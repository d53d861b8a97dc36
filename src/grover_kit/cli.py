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
import io
import itertools
import json
import os
import sys
from dataclasses import replace
from functools import cache, partial
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from grover_kit import __version__
from grover_kit.spec import (
    GroverSpec,
    OracleStyle,
    SpecError,
    check_k_max,
    check_n_qubits,
    check_shots_and_seed,
    grover_angles,
    optimal_iterations,
    p_each_unmarked,
    predicted_success,
)

if TYPE_CHECKING:  # numpy and the simulation modules load inside the commands that use them
    import numpy as np

    from grover_kit.statevector import StateVector

FORMAT_VERSION = "1"
SEED_ENV_VAR = "GROVER_KIT_SEED"
AMPLITUDE_CUTOFF = 1e-12
# --trace keeps up to steps x 2^wires amplitudes, as a row index of 8 bytes each (and a
# bitstring in a step that drops some), and writes one step at a time. A json trace of 933,888
# amplitudes at n=14 took 0.50-0.52 s with a 54 MiB peak RSS on a 2-vCPU machine, where complex
# states and tables built per step took 0.58-0.64 s and 63 MiB, so this limit bounds time
# rather than memory.
MAX_TRACE_AMPLITUDES = 1 << 20

_STYLE_FLAGS = {"mcz": OracleStyle.MCZ_DIRECT, "mcx-ancilla": OracleStyle.MCX_ANCILLA}
# Field named by a SpecError -> the flag that supplied it: every exit 2 but argparse's.
_SPEC_FLAGS = {
    "n_qubits": "--n", "marked": "--marked", "iterations": "--iterations", "m": "--m",
    "k_max": "--kmax", "shots": "--shots", "seed": "--seed", "trace": "--trace",
    "file": "--file", "out": "--out", "precision": "--precision",
}
# Leaf names of nested summary keys in run's CSV; other nested keys prefix their leaves.
_CSV_NAMES = {"p_per_marked": "p({})", "plane": "{}", "oblique": "{}"}
# Table rows per rendered chunk: bounds the strings held at 2^20 rows.
_TABLE_BLOCK = 1 << 12


# Each listing's layout per format, as str.format templates: (head, prefix, tail, sep, foot).
# A block, a trace step or `_TABLE_BLOCK` rows of a table, is its head, then its lines joined
# by sep, each the prefix, a bitstring and the tail of its value, then its foot (a literal).
_LAYOUTS = {
    ("trace", "json"): (
        '{comma}\n    {{\n      "step": {number},\n      "label": {json_label},\n'
        '      "ops": [\n        {first},\n        {last}\n      ],\n      "state": [\n',
        '        {{\n          "bitstring": "',
        '",\n          "re": {re!r},\n          "im": {im!r}\n        }}',
        ",\n", "\n      ]\n    }",
    ),
    ("trace", "csv"): ("", "{csv_row}", ",{re!r},{im!r}", "\n", ""),
    ("trace", "text"): ("step {number}  [{label}]  {span}\n", "  |", ">  {text}", "\n", ""),
    ("table", "json"): (
        "{comma}", '\n    {{\n      "bitstring": "', '",\n      "{name}": {value}\n    }}', ",", ""
    ),
    ("table", "csv"): ("", "", ",{value}", "\n", ""),
    ("table", "text"): ("", "{left}", "{right}{text}", "\n", ""),
    # A sweep is (head, row, sep): the head, then a row per k joined by sep. The head reads
    # each field's name, a row its value; text columns are {a} and {b} wide, {d} places.
    ("sweep", "json"): (
        "", '\n    {{\n      "k": {k},\n      "angle": {angle!r},\n      "p_marked_sim": '
        '{p_marked_sim!r},\n      "p_marked_formula": {p_marked_formula!r},\n      '
        '"p_each_unmarked": {p_each_unmarked!r}\n    }}', ",",
    ),
    ("sweep", "csv"): (
        "{k},{angle},{p_marked_sim},{p_marked_formula},{p_each_unmarked}\n",
        "{k},{angle!r},{p_marked_sim!r},{p_marked_formula!r},{p_each_unmarked!r}", "\n",
    ),
    ("sweep", "text"): (
        "  k  {angle:>{a}}  {p_marked_sim:>{b}}  {p_marked_formula:>{b}}  {p_each_unmarked:>{b}}\n",
        "{k:>3}  {angle:>{a}.{d}f}  {p_marked_sim:>{b}.{d}f}  {p_marked_formula:>{b}.{d}f}  "
        "{p_each_unmarked:>{b}.{d}f}", "\n",
    ),
}


class Rows(NamedTuple):
    """A per-outcome listing as columns, rows in their producer's order: the bitstrings (an
    S<wires> array), each row's position in `values`, and the distinct values, rounded once."""

    bits: np.ndarray
    which: np.ndarray
    values: list


class Listing(partial):
    """Rows rendered from columns, one string per chunk: `listing(fmt, precision)` (json: the
    items of a list without its brackets). It stands where its rows go: for a top-level list
    in a report's json document, or among its csv rows or text lines."""


class Report(NamedTuple):
    """One command's output, printed by `_emit` in the chosen format: the json document, the
    csv rows with the header first, and the text lines. Each may hold `Listing`s, which render
    only in the format printed, in place of its rows or lines."""

    doc: dict | None
    table: list
    lines: list


def _oriented(bits: str, bit_order: str) -> str:
    return bits if bit_order == "msb" else bits[::-1]


def _validate_spec_args(args, iterations: int) -> GroverSpec:
    """The spec the flags describe, with marked strings in the internal msb-first order. The
    strings are checked as typed, as errors quote them; only --bit-order lsb then builds a
    second spec, of the strings reversed."""
    spec = GroverSpec(args.n, tuple(args.marked), iterations, _STYLE_FLAGS[args.style])
    if getattr(args, "bit_order", "msb") == "msb":
        return spec
    return replace(spec, marked=tuple(bits[::-1] for bits in spec.marked))


def _spec_echo(spec: GroverSpec, args) -> dict:
    marked = [_oriented(b, args.bit_order) for b in spec.marked]
    return {"n": spec.n_qubits, "marked": marked, "iterations": spec.iterations,
            "style": args.style, "bit_order": args.bit_order}


def _report(
    command: str, echo: dict, rows: list | Listing, lines: list, table: list,
    trace: list | None = None, summary=None, **extra,
) -> Report:
    """A command's report. A traced report holds the steps in place of the rows, with
    `summary`, the untraced rows, under "summary" in json, and a blank line before the steps
    in text."""
    versions = {"tool": __version__, "format": FORMAT_VERSION}
    doc = {"command": command, "versions": versions, "spec": echo, "rows": rows, **extra}
    if trace is not None:
        steps = Listing(_trace_chunks, trace)
        doc.update(rows=steps if trace else [], summary=summary)
        return Report(doc, [["step", "label", "bitstring", "re", "im"], steps], [*lines, "", steps])
    return Report(doc, table, lines)


def _flatten(mapping: dict, pattern: str = "{}") -> Iterable[tuple[str, object]]:
    """(name, value) leaves of a nested summary, in order, named as in run's csv."""
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
    """An int as it is, a rounded number, or a rounded {re, im} entry as ``re`` or ``re+imj``."""
    if not isinstance(value, dict):
        return str(value) if isinstance(value, int) else f"{value:.{precision}f}"
    if abs(value["im"]) <= AMPLITUDE_CUTOFF:
        return _fmt(value["re"], precision)
    return f"{_fmt(value['re'], precision)}{value['im']:+.{precision}f}j"


def _line(key: str, value, precision: int) -> str:
    """A ``key: value`` text line: a string as it is, any other value by `_fmt`."""
    return f"{key}: {value if isinstance(value, str) else _fmt(value, precision)}"


def _rows(values: np.ndarray, n_qubits: int, bit_order: str, convert) -> Rows:
    """The rows of the entries of `values` above the cutoff, in index order, each named by its
    index. `convert` rounds each distinct value once: equal floats round alike, and a
    gate-built state holds a handful of them."""
    import numpy as np

    from grover_kit.statevector import bitstrings

    keep = np.flatnonzero(np.abs(values) > AMPLITUDE_CUTOFF)
    distinct, which = np.unique(values[keep], return_inverse=True)
    bits = bitstrings(keep, n_qubits, bit_order)
    return Rows(bits, which, [convert(v) for v in distinct.tolist()])


def _ends(tails: list[str], sep: str) -> np.ndarray:
    """Each tail followed by `sep`, as the rows of one uint8 matrix, padded with 0xFF: a byte
    that no UTF-8 text holds."""
    import numpy as np

    ends = [(tail + sep).encode() for tail in tails]
    width = max(map(len, ends), default=0)
    table = np.frombuffer(b"".join(end.ljust(width, b"\xff") for end in ends), dtype=np.uint8)
    return table.reshape(len(ends), width)


def _join(bits: np.ndarray, which: np.ndarray, prefix: str, ends: np.ndarray, sep: str) -> str:
    """Lines that each join `prefix`, a bitstring and the end of its value, `ends[which]`,
    with `sep` between them; `ends` is `_ends(tails, sep)` of the values' tails. Each line is
    a row of one uint8 matrix: the prefix, the bitstring, then the value's end, so dropping
    every 0xFF (and the last `sep`) leaves the text."""
    import numpy as np

    head = np.frombuffer(prefix.encode(), dtype=np.uint8)
    start, stop = head.size, head.size + bits.itemsize
    lines = np.empty((len(bits), stop + ends.shape[1]), dtype=np.uint8)
    lines[:, :start] = head
    lines[:, start:stop] = bits.view(np.uint8).reshape(len(bits), bits.itemsize)
    lines[:, stop:] = ends[which]
    flat = lines.ravel()
    kept = flat[flat != 0xFF]
    return str(kept[:kept.size - len(sep.encode())], "utf-8")


def _check_trace(steps: int, wires: int) -> None:
    if steps << wires > MAX_TRACE_AMPLITUDES:
        message = f"{steps} steps x 2^{wires} amplitudes exceed {MAX_TRACE_AMPLITUDES}"
        raise SpecError("trace", message)


def _simulate(circuit, labels: Iterable[str], args) -> tuple[StateVector, list]:
    """Run `circuit` on |0...0>, one step per run of equal `labels`: its label, its first
    and last op, and the `Rows` of its state.

    The steps share two tables, each built once per trace: the bitstrings of every index
    that some step keeps, and the distinct kept amplitudes, each rounded once. A step that
    keeps every amplitude lists the first table whole; each step finds its values' rows in
    the second by a binary search, which holds less at the trace limit than np.unique's
    inverse of every kept amplitude at once."""
    from grover_kit.circuit import run, run_steps

    n = circuit.n_qubits
    steps = [(label, sum(1 for _ in group)) for label, group in itertools.groupby(labels)]
    _check_trace(len(steps), n)
    if not steps:
        return run(circuit), []
    import numpy as np

    from grover_kit.statevector import bitstrings

    seen, kept = np.zeros(1 << n, dtype=bool), []
    ends = list(itertools.accumulate(size for _, size in steps))
    for (label, size), end, state in zip(steps, ends, run_steps(circuit, ends)):
        mask = np.abs(state.amps) > AMPLITUDE_CUTOFF
        seen |= mask
        kept.append((label, (end - size, end - 1), None if mask.all() else mask, state.amps[mask]))
    table = bitstrings(np.flatnonzero(seen), n, args.bit_order)
    slot = np.cumsum(seen) - 1  # each seen index's row of `table`
    distinct = np.unique(np.concatenate([amps for *_, amps in kept]))
    values = [_complex_entry(v, args.precision) for v in distinct.tolist()]
    trace = []
    for label, ops, mask, amps in kept:  # a mask of None keeps every amplitude
        bits = table if mask is None else table[slot[mask]]
        trace.append((label, ops, Rows(bits, np.searchsorted(distinct, amps), values)))
    return state, trace


def _trace_chunks(trace: list, fmt: str, precision: int) -> Iterator[str]:
    """The trace in `fmt` by `_LAYOUTS`, one string per step (json: "rows" without its
    brackets). The ends of a table of values that consecutive steps share, as the steps of
    `_simulate` share one, are formatted and encoded once."""
    head, prefix, tail, sep, foot = _LAYOUTS["trace", fmt]
    values = ends = None
    for number, (label, (first, last), rows) in enumerate(trace):
        if rows.values is not values:
            values = rows.values
            tails = [tail.format(**v, text=_fmt(v, precision)) for v in values]
            ends = _ends(tails, sep)
        step = {"number": number, "label": label, "first": first, "last": last,
                "span": f"op {first}" if first == last else f"ops {first}..{last}",
                "comma": "," if number else "", "json_label": json.dumps(label)}
        if fmt == "csv":  # only the csv layout reads csv_row
            csv.writer(line := io.StringIO(), lineterminator="\n").writerow([number, label, ""])
            step["csv_row"] = line.getvalue()[:-1]
        lines = _join(rows.bits, rows.which, prefix.format_map(step), ends, sep)
        yield head.format_map(step) + lines + foot


def _ranked(rows: Rows) -> np.ndarray:
    """The table order of `rows`: by descending value, then by the bitstring as displayed."""
    import numpy as np

    return np.lexsort((rows.bits, -np.asarray(rows.values)[rows.which]))


def _table_chunks(rows: Rows, order, fields: dict, fmt: str, precision: int) -> Iterator[str]:
    """A table in `fmt` by `_LAYOUTS`, its rows listed in `order` (row indices, or None for
    rows already in table order), one string per block of rows (json: the list without its
    brackets). `fields` holds the value's json key, `name`, and what a text line puts around
    the bitstring, `left` and `right`."""
    head, prefix, tail, sep, _ = _LAYOUTS["table", fmt]
    tails = [tail.format(value=v, text=_fmt(v, precision), **fields) for v in rows.values]
    ends = _ends(tails, sep)
    for start in range(0, len(rows.bits), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        block = block if order is None else order[block]
        lines = _join(rows.bits[block], rows.which[block], prefix.format_map(fields), ends, sep)
        yield head.format(comma="," if start else "") + lines


def _resolve_seed(args) -> int:
    """--seed, else $GROVER_KIT_SEED, else 0; `check_shots_and_seed` checks the range."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise SpecError("seed", f"not an integer: {raw!r}") from None


def _summary_lines(echo: dict, summary: dict, fmt: str, precision: int) -> Iterable[str]:
    """run's summary in `fmt`: the csv rows, `quantity,value` and then each leaf of the json
    summary in order, a float by its repr as csv.writer prints it; or the text lines."""
    if fmt == "csv":
        return [f"{k},{v}" for k, v in [("quantity", "value"), *_flatten(summary)]]
    p, scalars = precision, ("theta_sin", "theta_cos", "p_marked_total", "p_marked_formula")
    head = {**echo, "marked": " ".join(echo["marked"])}
    return [
        *(f"{key}: {head[key]}" for key in ("n", "marked", "iterations", "style")),
        *(_line(key, summary[key], p) for key in scalars),
        *(_line(f"p({bits})", value, p) for bits, value in summary["p_per_marked"].items()),
        *(_line(key, value, p) for key, value in summary["plane"].items()),
        _line("angle", summary["angle"], p),
        "oblique: " + " ".join(f"{key}={_fmt(z, p)}" for key, z in summary["oblique"].items()),
    ]


def cmd_run(args) -> Report:
    spec = _validate_spec_args(args, args.iterations)
    from grover_kit import circuit
    from grover_kit.geometry import data_state, grover_summary, plane_angle, state_summary

    if args.trace:  # the trace shows gate-level steps, so only it runs the gates and holds a state
        blocks = circuit._grover_blocks(spec)
        _check_trace(circuit._trace_steps(spec, blocks), spec.circuit_qubits)
        gates = circuit.build_grover_circuit(spec, blocks)
        final, trace = _simulate(gates, circuit.grover_step_labels(spec, blocks), args)
        plane = state_summary(data_state(final, spec), spec.marked)
    else:
        plane, trace = grover_summary(spec), None
    probs, coords, (c_p, c_r) = plane
    p = args.precision
    angles = grover_angles(spec.n_qubits, spec.n_marked)
    per_marked = {_oriented(b, args.bit_order): _r(q, p) for b, q in zip(spec.marked, probs)}
    summary = {
        "p_marked_total": _r(sum(probs), p),
        "p_marked_formula": _r(predicted_success(spec.n_qubits, spec.n_marked, spec.iterations), p),
        "p_per_marked": per_marked,
        "theta_sin": _r(angles.theta_sin, p), "theta_cos": _r(angles.theta_cos, p),
        "plane": {"a_marked": _complex_entry(coords.a_marked, p),
                  "a_unmarked": _complex_entry(coords.a_unmarked, p),
                  "residual_norm": _r(coords.residual_norm, p)},
        "angle": _r(plane_angle(coords), p),
        "oblique": {"c_p": _complex_entry(c_p, p), "c_r": _complex_entry(c_r, p)},
    }
    echo = _spec_echo(spec, args)
    lines = Listing(_summary_lines, echo, summary)  # built only in the format printed
    return _report("run", echo, [summary], [lines], [lines], trace, summary)


def _sweep_chunks(rows: list, fmt: str, precision: int) -> Iterator[str]:
    """The sweep table in `fmt` by `_LAYOUTS`, as one string (json: "rows" without its
    brackets). json and csv print each value rounded, by its repr, as json.dumps and
    csv.writer print a float; text prints it unrounded, to `precision` places."""
    head, row, sep = _LAYOUTS["sweep", fmt]
    widths = {"a": precision + 4, "b": precision + 6, "d": precision}
    records = [vars(r) for r in rows]
    if fmt != "text":
        records = [{k: v if k == "k" else _r(v, precision) for k, v in r.items()} for r in records]
    head = head.format(**{name: name for name in records[0]}, **widths)
    yield head + sep.join(row.format(**r, **widths) for r in records)


def cmd_sweep(args) -> Report:
    spec = check_k_max(_validate_spec_args(args, 0), args.kmax)  # at k_max iterations
    from grover_kit.geometry import iteration_report

    rows = Listing(_sweep_chunks, iteration_report(spec, args.kmax))
    return _report("sweep", _spec_echo(spec, args), rows, [rows], [rows])


def cmd_predict(args) -> Report:
    check_n_qubits(args.n)
    angles = grover_angles(args.n, args.m)
    k = optimal_iterations(args.n, args.m) if args.optimal else args.iterations
    p = args.precision
    result = {
        "n": args.n, "m": args.m, "iterations": k, "optimal": bool(args.optimal),
        "theta_sin": _r(angles.theta_sin, p), "theta_cos": _r(angles.theta_cos, p),
        "p_marked_formula": _r(predicted_success(args.n, args.m, k), p),
        "p_each_unmarked": _r(p_each_unmarked(args.n, args.m, k), p),
    }
    echo = {key: result[key] for key in ("n", "m", "iterations", "optimal")}
    rows = ([key, value] for key, value in result.items() if key != "optimal")
    table = [["quantity", "value"], *rows, ["optimal", int(args.optimal)]]
    lines = [_line(key, value, p) for key, value in result.items()]
    return _report("predict", echo, [result], lines, table)


def cmd_sample(args) -> Report:
    spec = _validate_spec_args(args, args.iterations)
    seed = _resolve_seed(args)
    check_shots_and_seed(args.shots, seed)
    import numpy as np

    from grover_kit.sampling import sample_grover
    from grover_kit.statevector import bitstrings

    histogram = sample_grover(spec, args.shots, seed)
    starts = np.diff(histogram.tallies, prepend=0) != 0  # tallies descend: equal ones are a run
    bits = bitstrings(histogram.outcomes, spec.n_qubits, args.bit_order)
    counts = Rows(bits, np.cumsum(starts) - 1, histogram.tallies[starts].tolist())
    # The histogram's ties are in index order, which is the msb display order; lsb re-ranks.
    order = None if args.bit_order == "msb" else _ranked(counts)
    table = Listing(_table_chunks, counts, order, {"name": "count", "left": "", "right": "  "})
    lines = [f"shots: {histogram.shots}", f"seed: {histogram.seed}", table]
    return _report(
        "sample", _spec_echo(spec, args), table, lines, [["bitstring", "count"], table],
        shots=histogram.shots, seed=histogram.seed,
    )


def cmd_dump(args) -> Report:
    spec = _validate_spec_args(args, args.iterations)
    from grover_kit import circuit

    blocks = circuit._grover_blocks(spec)
    try:  # counted before it is built, so that every dumped circuit loads
        circuit._check_load_work(circuit._grover_ops(spec, blocks), spec.circuit_qubits)
    except ValueError as err:
        raise SpecError("iterations", f"{err}, so load would refuse it") from None
    text = circuit.circuit_to_text(circuit.build_grover_circuit(spec, blocks))
    if args.out is None or args.out == "-":
        return Report(None, [], text.splitlines())
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise SpecError("out", str(err)) from None
    return Report(None, [], [])


def cmd_load(args) -> Report:
    from grover_kit.circuit import circuit_from_text, op_to_text, run

    try:  # a read, decode, parse, width or work error; UnicodeDecodeError is a ValueError
        if args.file is None or args.file == "-":
            text, source = sys.stdin.read(), "<stdin>"
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text, source = fh.read(), args.file
        circuit = circuit_from_text(text)
    except (OSError, ValueError, IndexError) as err:
        raise SpecError("file", str(err)) from None
    if args.trace:
        final, trace = _simulate(circuit, map(op_to_text, circuit.ops), args)
    else:
        final, trace = run(circuit), None
    probs = _rows(final.probabilities(), circuit.n_qubits, args.bit_order,
                  partial(_r, precision=args.precision))
    fields = {"name": "p", "left": "p(", "right": "): "}
    table = Listing(_table_chunks, probs, _ranked(probs), fields)
    lines = [f"source: {source}", f"n: {circuit.n_qubits}", f"ops: {len(circuit)}", table]
    echo = {"source": source, "n": circuit.n_qubits, "bit_order": args.bit_order}
    return _report("load", echo, table, lines, [["bitstring", "p"], table], trace, table)


def _emit(report: Report, fmt: str, precision: int) -> None:
    """Print a command's report as json, csv or text: the one place --format is read. A
    `Listing` is rendered only here, in that format, one chunk at a time where it stands. In
    json it is spliced into the frame that json.dumps renders with its key's list empty:
    json.dumps escapes newlines in strings, so a newline and a 2-space indent only ever start
    a top-level key."""
    if fmt == "json":
        listed = {key: value for key, value in report.doc.items() if isinstance(value, Listing)}
        text = json.dumps({**report.doc, **dict.fromkeys(listed, [])}, indent=2)
        for key, listing in listed.items():
            head, _, text = text.partition(f'\n  "{key}": []')
            sys.stdout.write(f'{head}\n  "{key}": [')
            sys.stdout.writelines(listing(fmt, precision))
            text = "\n  ]" + text
        print(text)
        return
    write = csv.writer(sys.stdout, lineterminator="\n").writerow if fmt == "csv" else print
    for item in report.table if fmt == "csv" else report.lines:
        if isinstance(item, Listing):
            sys.stdout.writelines(chunk + "\n" for chunk in item(fmt, precision))
        else:
            write(item)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process. Each `parse_args` call fills a new
    Namespace, so no value carries from one call to the next."""
    # One parent parser per shared flag group; each subcommand lists the groups it takes.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"), default="text")
    output.add_argument("--precision", type=int, default=6, metavar="DIGITS")
    output.add_argument("--bit-order", choices=("msb", "lsb"), default="msb")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--n", type=int, required=True, help="data qubit count")
    spec.add_argument("--marked", nargs="+", required=True, metavar="BITS",
                      help="marked bitstrings")
    spec.add_argument("--style", choices=tuple(_STYLE_FLAGS), default="mcz")
    iterations = argparse.ArgumentParser(add_help=False)
    iterations.add_argument("--iterations", type=int, default=1)

    description = "Simulate and analyze Grover amplitude amplification circuits."
    parser = argparse.ArgumentParser(prog="grover-kit", description=description)
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
            raise SpecError("precision", f"must be in 0..17, got {precision}")
        _emit(args.func(args), getattr(args, "format", "text"), precision)
    except SpecError as err:
        flag = _SPEC_FLAGS[err.field]
        if err.field == "seed" and args.seed is None:
            flag = SEED_ENV_VAR  # the seed came from the environment
        print(f"error: {flag}: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as err:  # anything not mapped to a flag is an internal fault
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
