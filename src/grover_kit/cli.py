"""Command-line surface: compile, run, predict, sweep, trace and sample.

Subcommands:

* ``run``     simulate a marked-bitstring search and report probabilities,
              plane coordinates and angle; ``--trace`` adds per-step states
* ``sweep``   iteration table k = 0..kmax, simulated next to closed form
* ``predict`` closed-form only, no simulation; ``--optimal`` picks k
* ``sample``  seeded shot histogram of the final state
* ``dump``    emit the compiled circuit in the text format
* ``load``    parse a circuit text file, run it on |0...0>, report

Output is text (default), ``--format json`` or ``--format csv``. Exit codes:
0 success, 2 usage or validation error, 1 internal error. Reports go to
stdout, diagnostics to stderr. Bitstrings are msb-first (qubit 0 leftmost)
unless ``--bit-order lsb`` asks for reversed display; the internal
convention never changes. ``GROVER_KIT_SEED`` supplies the default sampling
seed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import replace
from typing import Iterable, NamedTuple

import numpy as np

from grover_kit import __version__
from grover_kit.circuit import (
    Circuit,
    GroverSpec,
    OracleStyle,
    SpecError,
    build_grover_circuit,
    circuit_from_text,
    circuit_to_text,
    grover_data_state,
    grover_step_labels,
    op_to_text,
    run,
)
from grover_kit.geometry import (
    data_state,
    grover_angles,
    iteration_report,
    oblique_coords,
    optimal_iterations,
    p_each_unmarked,
    plane_angle,
    plane_decompose,
    predicted_success,
)
from grover_kit.sampling import check_shots_and_seed, measure_all
from grover_kit.statevector import StateVector, check_n_qubits

FORMAT_VERSION = "1"
SEED_ENV_VAR = "GROVER_KIT_SEED"
AMPLITUDE_CUTOFF = 1e-12
# --trace keeps up to steps x 2^wires amplitudes. A json trace peaks near 1.1 KiB of RSS
# per amplitude (measured at n=14), so about 1.2 GiB at this limit.
MAX_TRACE_AMPLITUDES = 1 << 20

_STYLE_FLAGS = {"mcz": OracleStyle.MCZ_DIRECT, "mcx-ancilla": OracleStyle.MCX_ANCILLA}
# Field named by a SpecError -> the flag that supplied it.
_SPEC_FLAGS = {
    "n_qubits": "--n", "marked": "--marked", "iterations": "--iterations", "m": "--m",
    "k_max": "--kmax", "shots": "--shots", "seed": "--seed",
}
# Leaf names of nested summary keys in run's CSV; other nested keys prefix their leaves.
_CSV_NAMES = {"p_per_marked": "p({})", "plane": "{}", "oblique": "{}"}


class UsageError(Exception):
    """Bad flag value or inconsistent invocation; maps to exit code 2."""


class Report(NamedTuple):
    """One command's output, built once and printed by `_emit` in the chosen format.

    `rows` and `lines` may be lazy: only the requested format is consumed.
    """

    doc: dict | None
    columns: list[str]
    rows: Iterable[list]
    lines: Iterable[str]


def _oriented(bits: str, bit_order: str) -> str:
    return bits if bit_order == "msb" else bits[::-1]


def _validate_spec_args(args) -> GroverSpec:
    """The spec the flags describe, with marked strings in the internal msb-first order.

    Validity does not depend on the bit order, so the strings are checked as
    given and error messages quote them as typed.
    """
    iterations = getattr(args, "iterations", 0)
    spec = GroverSpec(args.n, tuple(args.marked), iterations, _STYLE_FLAGS[args.style])
    bit_order = getattr(args, "bit_order", "msb")
    return replace(spec, marked=tuple(_oriented(bits, bit_order) for bits in spec.marked))


def _spec_echo(spec: GroverSpec, args) -> dict:
    return {
        "n": spec.n_qubits,
        "marked": [_oriented(b, args.bit_order) for b in spec.marked],
        "iterations": spec.iterations,
        "style": args.style,
        "bit_order": args.bit_order,
    }


def _document(command: str, spec_echo: dict, rows: list, **extra) -> dict:
    return {
        "command": command,
        "versions": {"tool": __version__, "format": FORMAT_VERSION},
        "spec": spec_echo,
        "rows": rows,
        **extra,
    }


def _records_table(records: list[dict]) -> tuple[list[str], list[list]]:
    """CSV columns and rows of flat records that all share the first one's keys."""
    return list(records[0]), [list(record.values()) for record in records]


def _flatten(mapping: dict, pattern: str = "{}") -> Iterable[tuple[str, object]]:
    """(name, value) leaves of a nested summary, in order, named as in run's CSV."""
    for key, value in mapping.items():
        name = pattern.format(key)
        if isinstance(value, dict):
            yield from _flatten(value, _CSV_NAMES.get(key, name + "_{}"))
        else:
            yield name, value


def _r(value: float, precision: int) -> float:
    return round(float(value), precision) + 0.0  # + 0.0 turns -0.0 into 0.0


def _complex_entry(z: complex, precision: int) -> dict:
    return {"re": _r(z.real, precision), "im": _r(z.imag, precision)}


def _fmt(value: float | dict, precision: int) -> str:
    """A rounded number, or a rounded {re, im} entry as ``re`` or ``re+imj``."""
    if not isinstance(value, dict):
        return f"{value:.{precision}f}"
    if abs(value["im"]) <= AMPLITUDE_CUTOFF:
        return _fmt(value["re"], precision)
    return f"{_fmt(value['re'], precision)}{value['im']:+.{precision}f}j"


def _nonzero(values: np.ndarray, n_qubits: int, bit_order: str) -> list[tuple[str, object]]:
    """(bitstring, value) of each entry whose magnitude is above the cutoff, in index order."""
    keep = np.flatnonzero(np.abs(values) > AMPLITUDE_CUTOFF)
    width = f"0{n_qubits}b"
    bits = (_oriented(format(i, width), bit_order) for i in keep.tolist())
    return list(zip(bits, values[keep].tolist()))


def _simulate(circuit, labels, args) -> tuple[StateVector, list[dict] | None]:
    """Run `circuit` on |0...0>; with --trace, one slice and one row per run of equal `labels()`."""
    if not args.trace:
        return run(circuit), None
    n = circuit.n_qubits
    steps = [(label, sum(1 for _ in group)) for label, group in itertools.groupby(labels())]
    if len(steps) << n > MAX_TRACE_AMPLITUDES:
        raise UsageError(
            f"--trace: {len(steps)} steps x 2^{n} amplitudes exceed {MAX_TRACE_AMPLITUDES}"
        )
    state, rows, first = None, [], 0  # the first slice starts from |0...0>
    for step, (label, size) in enumerate(steps):
        last = first + size - 1
        state = run(Circuit(n, circuit.ops[first:last + 1]), state)
        nonzero = _nonzero(state.amps, n, args.bit_order)
        entries = [{"bitstring": b, **_complex_entry(z, args.precision)} for b, z in nonzero]
        rows.append({"step": step, "label": label, "ops": [first, last], "state": entries})
        first = last + 1
    return (state if steps else run(circuit)), rows


def _trace_lines(rows: list[dict], precision: int) -> Iterable[str]:
    for row in rows:
        first, last = row["ops"]
        span = f"op {first}" if first == last else f"ops {first}..{last}"
        yield f"step {row['step']}  [{row['label']}]  {span}"
        for entry in row["state"]:
            yield f"  |{entry['bitstring']}>  {_fmt(entry, precision)}"


def _with_trace(report: Report, trace_rows: list[dict] | None, summary, precision: int) -> Report:
    """A traced run's report: the step rows, with the untraced records under "summary"."""
    if trace_rows is None:
        return report
    return Report(
        {**report.doc, "rows": trace_rows, "summary": summary},
        ["step", "label", "bitstring", "re", "im"],
        (
            [row["step"], row["label"], entry["bitstring"], entry["re"], entry["im"]]
            for row in trace_rows
            for entry in row["state"]
        ),
        itertools.chain(report.lines, [""], _trace_lines(trace_rows, precision)),
    )


def _resolve_seed(args) -> int:
    """--seed, else $GROVER_KIT_SEED, else 0; `check_shots_and_seed` checks the range."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR}: not an integer: {raw!r}") from None


def cmd_run(args) -> Report:
    spec = _validate_spec_args(args)
    if args.trace:  # the trace shows gate-level steps, so only it runs the gates
        circuit = build_grover_circuit(spec)
        final, trace_rows = _simulate(circuit, lambda: grover_step_labels(spec), args)
        data = data_state(final, spec)
    else:
        data, trace_rows = grover_data_state(spec), None
    p = args.precision
    coords = plane_decompose(data, spec.marked)
    c_p, c_r = oblique_coords(data, spec.marked)
    angles = grover_angles(spec.n_qubits, spec.n_marked)
    per_marked = {
        _oriented(b, args.bit_order): _r(data.probability(b), p) for b in spec.marked
    }
    summary = {
        "p_marked_total": _r(sum(data.probability(b) for b in spec.marked), p),
        "p_marked_formula": _r(
            predicted_success(spec.n_qubits, spec.n_marked, spec.iterations), p
        ),
        "p_per_marked": per_marked,
        "theta_sin": _r(angles.theta_sin, p),
        "theta_cos": _r(angles.theta_cos, p),
        "plane": {
            "a_marked": _complex_entry(coords.a_marked, p),
            "a_unmarked": _complex_entry(coords.a_unmarked, p),
            "residual_norm": _r(coords.residual_norm, p),
        },
        "angle": _r(plane_angle(coords), p),
        "oblique": {"c_p": _complex_entry(c_p, p), "c_r": _complex_entry(c_r, p)},
    }
    scalars = ("theta_sin", "theta_cos", "p_marked_total", "p_marked_formula")
    lines = [
        f"n: {spec.n_qubits}",
        f"marked: {' '.join(per_marked)}",
        f"iterations: {spec.iterations}",
        f"style: {args.style}",
        *(f"{key}: {_fmt(summary[key], p)}" for key in scalars),
        *(f"p({bits}): {_fmt(value, p)}" for bits, value in per_marked.items()),
        *(f"{key}: {_fmt(value, p)}" for key, value in summary["plane"].items()),
        f"angle: {_fmt(summary['angle'], p)}",
        "oblique: " + " ".join(f"{key}={_fmt(z, p)}" for key, z in summary["oblique"].items()),
    ]
    table = [list(leaf) for leaf in _flatten(summary)]
    doc = _document("run", _spec_echo(spec, args), [summary])
    report = Report(doc, ["quantity", "value"], table, lines)
    return _with_trace(report, trace_rows, summary, p)


def cmd_sweep(args) -> Report:
    spec = _validate_spec_args(args)
    rows = iteration_report(spec, args.kmax)
    p = args.precision
    records = [
        {key: value if key == "k" else _r(value, p) for key, value in vars(row).items()}
        for row in rows
    ]
    fields = list(records[0])[1:]
    widths = (p + 4, p + 6, p + 6, p + 6)
    lines = [f"{'k':>3}  " + "  ".join(f"{f:>{w}}" for f, w in zip(fields, widths))]
    lines += [
        f"{row.k:>3}  " + "  ".join(f"{getattr(row, f):>{w}.{p}f}" for f, w in zip(fields, widths))
        for row in rows
    ]
    echo = _spec_echo(replace(spec, iterations=args.kmax), args)
    return Report(_document("sweep", echo, records), *_records_table(records), lines)


def cmd_predict(args) -> Report:
    check_n_qubits(args.n)
    angles = grover_angles(args.n, args.m)
    k = optimal_iterations(args.n, args.m) if args.optimal else args.iterations
    p = args.precision
    result = {
        "n": args.n,
        "m": args.m,
        "iterations": k,
        "optimal": bool(args.optimal),
        "theta_sin": _r(angles.theta_sin, p),
        "theta_cos": _r(angles.theta_cos, p),
        "p_marked_formula": _r(predicted_success(args.n, args.m, k), p),
        "p_each_unmarked": _r(p_each_unmarked(args.n, args.m, k), p),
    }
    spec_echo = {key: result[key] for key in ("n", "m", "iterations", "optimal")}
    table = [[key, value] for key, value in result.items() if key != "optimal"]
    lines = [f"{key}: {value}" for key, value in spec_echo.items()]
    lines += [f"{key}: {_fmt(value, p)}" for key, value in result.items() if key not in spec_echo]
    return Report(
        _document("predict", spec_echo, [result]),
        ["quantity", "value"],
        table + [["optimal", int(result["optimal"])]],
        lines,
    )


def cmd_sample(args) -> Report:
    spec = _validate_spec_args(args)
    seed = _resolve_seed(args)
    check_shots_and_seed(args.shots, seed)
    histogram = measure_all(grover_data_state(spec), args.shots, seed)
    records = [
        {"bitstring": _oriented(bits, args.bit_order), "count": count}
        for bits, count in histogram.counts.items()
    ]
    records.sort(key=lambda d: (-d["count"], d["bitstring"]))
    lines = [f"shots: {histogram.shots}", f"seed: {histogram.seed}"]
    lines += [f"{d['bitstring']}  {d['count']}" for d in records]
    doc = _document(
        "sample", _spec_echo(spec, args), records, shots=histogram.shots, seed=histogram.seed
    )
    return Report(doc, *_records_table(records), lines)


def cmd_dump(args) -> Report:
    spec = _validate_spec_args(args)
    text = circuit_to_text(build_grover_circuit(spec))
    if args.out is None or args.out == "-":
        return Report(None, [], [], text.splitlines())
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"--out: {err}") from None
    return Report(None, [], [], [])


def cmd_load(args) -> Report:
    if args.file is None or args.file == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise UsageError(f"--file: {err}") from None
        source = args.file
    try:
        circuit = circuit_from_text(text)
    except (ValueError, IndexError) as err:
        raise UsageError(f"--file: {err}") from None
    final, trace_rows = _simulate(circuit, lambda: map(op_to_text, circuit.ops), args)
    p = args.precision
    probs = _nonzero(final.probabilities(), circuit.n_qubits, args.bit_order)
    records = [{"bitstring": bits, "p": _r(value, p)} for bits, value in probs]
    records.sort(key=lambda d: (-d["p"], d["bitstring"]))
    lines = [f"source: {source}", f"n: {circuit.n_qubits}", f"ops: {len(circuit)}"]
    lines += [f"p({d['bitstring']}): {_fmt(d['p'], p)}" for d in records]
    spec_echo = {"source": source, "n": circuit.n_qubits, "bit_order": args.bit_order}
    report = Report(_document("load", spec_echo, records), *_records_table(records), lines)
    return _with_trace(report, trace_rows, records, p)


def _emit(report: Report, fmt: str) -> None:
    """Print a command's report as json, csv or text: the one place --format is read."""
    if fmt == "json":
        print(json.dumps(report.doc, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows(report.rows)
    else:
        for line in report.lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    # One parent parser per shared flag group; each subcommand lists the groups it takes.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"), default="text")
    output.add_argument("--precision", type=int, default=6, metavar="DIGITS")
    output.add_argument("--bit-order", choices=("msb", "lsb"), default="msb")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--n", type=int, required=True, help="data qubit count")
    spec.add_argument(
        "--marked", nargs="+", required=True, metavar="BITS", help="marked bitstrings"
    )
    spec.add_argument("--style", choices=tuple(_STYLE_FLAGS), default="mcz")
    iterations = argparse.ArgumentParser(add_help=False)
    iterations.add_argument("--iterations", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="grover-kit",
        description="Simulate and analyze Grover amplitude amplification circuits.",
    )
    parser.add_argument("--version", action="version", version=f"grover-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, func, groups, help_text in (
        ("run", cmd_run, [spec, iterations, output],
         "simulate and report probabilities and plane geometry"),
        ("sweep", cmd_sweep, [spec, output], "iteration table, simulated next to closed form"),
        ("predict", cmd_predict, [output], "closed-form probabilities, no simulation"),
        ("sample", cmd_sample, [spec, iterations, output],
         "seeded shot histogram of the final state"),
        ("dump", cmd_dump, [spec, iterations], "emit the compiled circuit text"),
        ("load", cmd_load, [output], "parse circuit text, run it on |0...0>"),
    ):
        cmds[name] = sub.add_parser(name, parents=groups, help=help_text)
        cmds[name].set_defaults(func=func)

    cmds["run"].add_argument("--trace", action="store_true", help="emit the state after each step")
    cmds["sweep"].add_argument("--kmax", type=int, required=True)
    predict = cmds["predict"]
    predict.add_argument("--n", type=int, required=True)
    predict.add_argument("--m", type=int, required=True, help="marked string count")
    group = predict.add_mutually_exclusive_group(required=True)
    group.add_argument("--iterations", type=int)
    group.add_argument("--optimal", action="store_true")
    cmds["sample"].add_argument("--shots", type=int, required=True)
    cmds["sample"].add_argument("--seed", type=int, help=f"default: ${SEED_ENV_VAR} or 0")
    cmds["dump"].add_argument("--out", metavar="PATH", help="default: stdout")
    cmds["load"].add_argument("--file", metavar="PATH", help="default: stdin")
    cmds["load"].add_argument("--trace", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        precision = getattr(args, "precision", 6)
        if not 0 <= precision <= 17:
            raise UsageError(f"--precision: must be in 0..17, got {precision}")
        _emit(args.func(args), getattr(args, "format", "text"))
    except SpecError as err:
        flag = _SPEC_FLAGS[err.field]
        if err.field == "seed" and args.seed is None:
            flag = SEED_ENV_VAR  # the seed came from the environment
        print(f"error: {flag}: {err}", file=sys.stderr)
        return 2
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as err:  # anything not mapped to a flag is an internal fault
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
