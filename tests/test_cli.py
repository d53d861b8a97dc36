import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grover_kit
from grover_kit import circuit, cli, geometry, sampling, statevector
from grover_kit.cli import main
from grover_kit.sampling import Histogram

EXPECTED_TRACE_LABELS = [
    "1.0",
    "1.1",
    "k1 2.1[01]",
    "k1 2.2[01]",
    "k1 2.3[01]",
    "k1 3.1",
    "k1 3.2",
    "k1 3.3",
    "k1 3.4",
    "k1 3.5",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_json_canonical(capsys):
    code, out, err = run_cli(
        capsys, "run", "--n", "5", "--marked", "10100", "--iterations", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "run"
    assert doc["versions"]["format"] == "1"
    assert doc["spec"] == {
        "n": 5,
        "marked": ["10100"],
        "iterations": 1,
        "style": "mcz",
        "bit_order": "msb",
    }
    (summary,) = doc["rows"]
    assert summary["p_marked_total"] == 0.258301
    assert summary["p_marked_formula"] == 0.258301
    assert summary["p_per_marked"]["10100"] == 0.258301
    assert summary["plane"]["residual_norm"] == 0.0


def test_run_certain_outcome(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "2", "--marked", "01", "--iterations", "1")
    assert code == 0
    assert "p_marked_total: 1.000000" in out


def test_run_text_precision(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--n", "5", "--marked", "10100", "--iterations", "1", "--precision", "3",
    )
    assert code == 0
    assert "p_marked_total: 0.258" in out


def test_run_rejects_wrong_length(capsys):
    code, out, err = run_cli(capsys, "run", "--n", "5", "--marked", "1010", "--iterations", "1")
    assert code == 2
    assert out == ""
    assert "--marked" in err


def test_run_rejects_oversized_register(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "27", "--marked", "0" * 27, "--iterations", "1")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("command", [["run"], ["dump"], ["sweep", "--kmax", "1"]])
def test_ancilla_register_too_wide(capsys, command):
    argv = [*command, "--n", "26", "--marked", "0" * 26, "--style", "mcx-ancilla"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: --n:")


def test_run_rejects_iterations_above_limit(capsys):
    code, out, err = run_cli(capsys, "run", "--n", "2", "--marked", "01", "--iterations", "8193")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --iterations:")


def test_run_rejects_bad_characters(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "3", "--marked", "0a1", "--iterations", "1")
    assert code == 2
    assert "--marked" in err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--marked", "01"])
    assert exc.value.code == 2


def test_run_trace_steps(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--n", "2", "--marked", "01", "--iterations", "1",
        "--style", "mcx-ancilla", "--trace", "--format", "json", "--precision", "12",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["label"] for row in doc["rows"]] == EXPECTED_TRACE_LABELS
    first = doc["rows"][0]
    assert first["state"] == [{"bitstring": "001", "re": 1.0, "im": 0.0}]
    assert doc["summary"]["p_marked_total"] == 1.0


SPEC_FLAGS = ["--n", "4", "--marked", "0010", "1101", "--style", "mcx-ancilla"]


@pytest.mark.parametrize(
    "argv, gate_path",
    [
        (["run", *SPEC_FLAGS, "--iterations", "3"], False),
        (["sample", *SPEC_FLAGS, "--iterations", "3", "--shots", "10"], False),
        (["sweep", *SPEC_FLAGS, "--kmax", "3"], False),
        (["run", *SPEC_FLAGS, "--iterations", "3", "--trace"], True),
        (["load", "--file", "-"], True),
    ],
)
def test_command_picks_the_executor(capsys, monkeypatch, argv, gate_path):
    """Untraced Grover commands run no gates; a trace or a loaded circuit runs them."""
    calls = []
    for name in ("_apply_single_inplace", "_apply_multicontrolled_inplace"):
        kernel = getattr(circuit, name)
        monkeypatch.setattr(
            circuit, name, lambda *a, kernel=kernel: calls.append(a[2]) or kernel(*a)
        )
    monkeypatch.setattr("sys.stdin", io.StringIO("H 0\nMCX c=0 t=1\n"))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert bool(calls) is gate_path


def test_run_trace_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--n", "2", "--marked", "01", "--iterations", "1", "--trace", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["step", "label", "bitstring", "re", "im"]


def test_sweep_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "5", "--marked", "10100", "--kmax", "5", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "angle", "p_marked_sim", "p_marked_formula", "p_each_unmarked"]
    assert len(rows) == 7
    sim = [round(float(r[2]), 3) for r in rows[1:]]
    each = [round(float(r[4]), 3) for r in rows[1:]]
    assert sim == [0.031, 0.258, 0.602, 0.897, 0.999, 0.860]
    assert each == [0.031, 0.024, 0.013, 0.003, 0.000, 0.005]


def test_sweep_kmax_zero(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--marked", "001", "--kmax", "0", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[1][2]) == 0.125


def test_sweep_kmax_bound(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--marked", "001", "--kmax", "65")
    assert code == 2
    assert "--kmax" in err


def test_predict_optimal(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--n", "5", "--m", "1", "--optimal", "--format", "json"
    )
    assert code == 0
    (result,) = json.loads(out)["rows"]
    assert result["iterations"] == 4
    assert result["p_marked_formula"] == 0.999182
    assert result["optimal"] is True


def test_predict_fixed_iterations(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "3", "--m", "1", "--iterations", "1")
    assert code == 0
    assert "p_marked_formula: 0.781250" in out


def test_predict_rejects_full_space(capsys):
    code, _, err = run_cli(capsys, "predict", "--n", "5", "--m", "32", "--iterations", "1")
    assert code == 2
    assert "--m" in err


def test_predict_iterations_limit(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "2", "--m", "1", "--iterations", "8192")
    assert code == 0
    assert "iterations: 8192" in out
    for k in ("8193", "1" + "0" * 310):
        code, out, err = run_cli(capsys, "predict", "--n", "2", "--m", "1", "--iterations", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --iterations:")


def test_sample_reproducible_and_in_interval(capsys):
    argv = (
        "sample", "--n", "5", "--marked", "10100", "--iterations", "1",
        "--shots", "1024", "--seed", "7", "--format", "json",
    )
    code, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    counts = {row["bitstring"]: row["count"] for row in doc["rows"]}
    assert sum(counts.values()) == 1024
    assert 222 <= counts["10100"] <= 307


def test_sample_rejects_zero_shots(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--n", "2", "--marked", "01", "--iterations", "1", "--shots", "0"
    )
    assert code == 2
    assert "--shots" in err


def test_sample_rejects_too_many_shots(capsys, monkeypatch):
    def no_simulation(*_):
        raise AssertionError("shots must be checked before the state is built or measured")

    monkeypatch.setattr(circuit, "grover_data_state", no_simulation)
    monkeypatch.setattr(sampling, "measure_all", no_simulation)
    monkeypatch.setattr(sampling, "sample_grover", no_simulation)
    code, out, err = run_cli(
        capsys, "sample", "--n", "2", "--marked", "01", "--shots", str((1 << 20) + 1)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --shots:")


def test_sample_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GROVER_KIT_SEED", "7")
    argv = ("sample", "--n", "3", "--marked", "001", "--iterations", "1", "--shots", "64")
    code, from_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("GROVER_KIT_SEED")
    code2, from_flag, _ = run_cli(capsys, *argv, "--seed", "7")
    assert code == 0 and code2 == 0
    assert from_env == from_flag


def test_sample_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("GROVER_KIT_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "sample", "--n", "2", "--marked", "01", "--iterations", "1", "--shots", "8"
    )
    assert code == 2
    assert "GROVER_KIT_SEED" in err


def test_sample_out_of_range_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("GROVER_KIT_SEED", str(1 << 64))
    code, _, err = run_cli(capsys, "sample", "--n", "2", "--marked", "01", "--shots", "8")
    assert code == 2
    assert err.startswith("error: GROVER_KIT_SEED:")


def test_bit_order_lsb_round_trip(capsys):
    # 00101 read lsb-first is the internal 10100
    code, out, _ = run_cli(
        capsys,
        "run", "--n", "5", "--marked", "00101", "--iterations", "1",
        "--bit-order", "lsb", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["marked"] == ["00101"]
    (summary,) = doc["rows"]
    assert summary["p_per_marked"]["00101"] == 0.258301


def test_dump_load_round_trip(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    code, _, _ = run_cli(
        capsys,
        "dump", "--n", "2", "--marked", "01", "--iterations", "1",
        "--style", "mcx-ancilla", "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("# qubits: 3")
    code2, out, _ = run_cli(capsys, "load", "--file", str(path), "--format", "json")
    assert code2 == 0
    doc = json.loads(out)
    assert doc["spec"]["n"] == 3
    probs = {row["bitstring"]: row["p"] for row in doc["rows"]}
    assert probs == {"010": 0.5, "011": 0.5}


def test_dump_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "dump", "--n", "3", "--marked", "001", "--iterations", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# qubits: 3"
    assert lines[1].startswith("# qubit 0 is the leftmost")
    assert lines[2:] == ["H 0", "H 1", "H 2"]


def _largest_dumped_k(spec):
    """The largest k whose circuit `load` reads: ops x (2^width + LOAD_OP_WORK) within
    MAX_LOAD_WORK, the ops counted from the circuits at k = 0 and k = 1."""
    prep = len(circuit.build_grover_circuit(dataclasses.replace(spec, iterations=0)))
    block = len(circuit.build_grover_circuit(dataclasses.replace(spec, iterations=1))) - prep
    ops = circuit.MAX_LOAD_WORK // ((1 << spec.circuit_qubits) + circuit.LOAD_OP_WORK)
    return (ops - prep) // block


@pytest.mark.parametrize("n, marked, style", [
    (26, ["1" * 26], "mcz"),
    (25, ["0" * 25], "mcx-ancilla"),
    (20, ["1" * 20], "mcz"),
    (18, ["010101010101010101", "111111111111111111"], "mcx-ancilla"),
])
def test_dump_refuses_what_load_refuses(capsys, n, marked, style):
    """At the largest k that fits MAX_LOAD_WORK, the dumped text parses; one more iteration is
    refused by dump, naming --iterations, and its circuit text by the parser."""
    spec = grover_kit.GroverSpec(n, tuple(marked), 0, cli._STYLE_FLAGS[style])
    k = _largest_dumped_k(spec)
    argv = ["dump", "--n", str(n), "--marked", *marked, "--style", style, "--iterations"]
    code, out, _ = run_cli(capsys, *argv, str(k))
    assert code == 0
    assert circuit.circuit_from_text(out) == circuit.build_grover_circuit(
        dataclasses.replace(spec, iterations=k)
    )
    code, out, err = run_cli(capsys, *argv, str(k + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: --iterations: ")
    assert err.endswith(", so load would refuse it\n")
    text = circuit.circuit_to_text(
        circuit.build_grover_circuit(dataclasses.replace(spec, iterations=k + 1))
    )
    with pytest.raises(ValueError, match="amplitude updates exceed"):
        circuit.circuit_from_text(text)


@pytest.mark.parametrize("style", ["mcz", "mcx-ancilla"])
def test_dump_load_round_trip_at_the_work_bound(capsys, monkeypatch, tmp_path, style):
    # With the bound patched to 200 ops' work, the circuit at the largest accepted k loads, and
    # its marked probabilities, summed over the ancilla, are run's; k + 1 is refused by dump.
    spec_flags = ["--n", "4", "--marked", "0110", "1011", "--style", style]
    spec = grover_kit.GroverSpec(4, ("0110", "1011"), 0, cli._STYLE_FLAGS[style])
    wires = spec.circuit_qubits
    monkeypatch.setattr(circuit, "MAX_LOAD_WORK", 200 * ((1 << wires) + circuit.LOAD_OP_WORK))
    k = _largest_dumped_k(spec)
    assert k >= 3
    path = tmp_path / "grover.txt"
    assert run_cli(capsys, "dump", *spec_flags, "--iterations", str(k), "--out", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "load", "--file", str(path), "--format", "json")
    assert code == 0
    loaded = {}
    for row in json.loads(out)["rows"]:
        loaded[row["bitstring"][:4]] = loaded.get(row["bitstring"][:4], 0.0) + row["p"]
    code, out, _ = run_cli(capsys, "run", *spec_flags, "--iterations", str(k), "--format", "json")
    for bits, p in json.loads(out)["rows"][0]["p_per_marked"].items():
        assert loaded[bits] == pytest.approx(p, abs=2e-6)
    code, out, err = run_cli(capsys, "dump", *spec_flags, "--iterations", str(k + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: --iterations:")


def test_dump_refused_before_it_builds(capsys, monkeypatch):
    # 100 marked strings at n = 10 and k = 8192: about 9 M ops, which took 7.2 s and 241 MiB
    # to write at k = 2048. The ops are counted from one block, so nothing is built.
    def no_build(*_):
        raise AssertionError("dump must count its ops before it builds the circuit")

    monkeypatch.setattr(circuit, "build_grover_circuit", no_build)
    marked = [format(i, "010b") for i in range(0, 1000, 10)]
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "dump", "--n", "10", "--marked", *marked, "--iterations", "8192"
    )
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: --iterations: ")


def test_load_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("H 0\n"))
    code, out, _ = run_cli(capsys, "load")
    assert code == 0
    assert "p(0): 0.500000" in out
    assert "p(1): 0.500000" in out


@pytest.mark.parametrize("wires, code", [(20, 0), (21, 2)])
def test_load_trace_size_limit(capsys, monkeypatch, wires, code):
    # one op is one step, so 20 wires is exactly MAX_TRACE_AMPLITUDES
    monkeypatch.setattr("sys.stdin", io.StringIO(f"# qubits: {wires}\nX 0\n"))
    got, out, err = run_cli(capsys, "load", "--trace", "--format", "json")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: --trace:")
    else:
        assert json.loads(out)["rows"][0]["state"] == [
            {"bitstring": "1" + "0" * (wires - 1), "re": 1.0, "im": 0.0}
        ]


@pytest.mark.parametrize("trace", [[], ["--trace"]])
@pytest.mark.parametrize("ops, code", [(2, 0), (3, 2)])
def test_load_work_limit(capsys, monkeypatch, trace, ops, code):
    # With the limit patched to 2 ops x (2^2 + LOAD_OP_WORK), a third op on 2 wires is refused
    # before any run.
    def no_simulation(*_):
        raise AssertionError("the work must be checked before the circuit runs")

    monkeypatch.setattr(circuit, "MAX_LOAD_WORK", 2 * (4 + circuit.LOAD_OP_WORK))
    if code:
        monkeypatch.setattr(circuit, "run", no_simulation)
        monkeypatch.setattr(circuit, "run_steps", no_simulation)
    monkeypatch.setattr("sys.stdin", io.StringIO("# qubits: 2\n" + "H 0\n" * ops))
    got, out, err = run_cli(capsys, "load", *trace)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: --file:")


@pytest.mark.parametrize("ops, code", [(1000, 0), (1001, 2)])
def test_narrow_long_file_pays_per_op(capsys, monkeypatch, ops, code):
    # A limit of 1,000 ops' work at 2 wires. Counting 2^2 updates per op alone would admit
    # 1000 x (4 + LOAD_OP_WORK) / 4, over 500,000 ops.
    monkeypatch.setattr(circuit, "MAX_LOAD_WORK", 1000 * (4 + circuit.LOAD_OP_WORK))
    monkeypatch.setattr("sys.stdin", io.StringIO("# qubits: 2\n" + "H 0\n" * ops))
    got, out, err = run_cli(capsys, "load")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith(f"error: --file: 1001 ops x (2^2 + {circuit.LOAD_OP_WORK}) amplitude")


def test_load_work_is_bounded_while_parsing(capsys, monkeypatch):
    # 4,089 ops at 20 wires already exceed MAX_LOAD_WORK. Parsing all 200,000 ops before the
    # check peaked at 32 MiB (tracemalloc); refusing as the ops accumulate peaked at 4.4 MiB.
    monkeypatch.setattr("sys.stdin", io.StringIO("# qubits: 20\n" + "H 0\n" * 200_000))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "load")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: --file:")
    assert peak < 8 << 20


def test_run_trace_size_limit(capsys, monkeypatch):
    def no_simulation(*_):
        raise AssertionError("the trace size must be checked before the circuit is built")

    for name in ("build_grover_circuit", "run", "run_steps"):
        monkeypatch.setattr(circuit, name, no_simulation)
    code, out, err = run_cli(
        capsys, "run", "--n", "17", "--marked", "0" * 17, "--iterations", "1", "--trace"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --trace:")


@pytest.mark.parametrize("k", [64, 8192])
def test_run_trace_refused_before_the_circuit_is_built(capsys, monkeypatch, k):
    # 1,000 marked strings: k = 8192 would build about 10^8 ops (an estimated 11 GiB) before
    # the trace size was checked, so building fails the test here instead.
    def no_build(*_):
        raise AssertionError("the trace size must be checked before the circuit is built")

    marked = [format(i, "010b") for i in range(1000)]
    message = "error: --trace: "
    if k == 64:  # the steps are the runs of equal labels of the whole circuit
        labels = circuit.grover_step_labels(grover_kit.GroverSpec(10, tuple(marked), k))
        steps = len(list(itertools.groupby(labels)))
        message += f"{steps} steps x 2^10 amplitudes exceed 1048576\n"
    for name in ("build_grover_circuit", "grover_step_labels"):
        monkeypatch.setattr(circuit, name, no_build)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "run", "--n", "10", "--marked", *marked, "--iterations", str(k), "--trace"
    )
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == message if k == 64 else err.startswith(message)


@pytest.mark.parametrize("command", ["run", "load"])
def test_trace_validates_one_circuit(capsys, monkeypatch, tmp_path, command):
    """A trace steps through the circuit it was given; it builds no circuit per step."""
    spec = ["--n", "3", "--marked", "101", "--iterations", "2"]
    path = tmp_path / "grover.txt"
    assert main(["dump", *spec, "--out", str(path)]) == 0
    argv = ["load", "--file", str(path)] if command == "load" else ["run", *spec]
    with mock.patch.object(
        circuit.Circuit, "__post_init__", autospec=True, side_effect=circuit.Circuit.__post_init__
    ) as validate:
        code, out, _ = run_cli(capsys, *argv, "--trace", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) > 1
    assert validate.call_count == 1


def test_trace_norm_drift_raises(capsys, monkeypatch):
    """A kernel that scales the state by 1.01 on its 7th call fails the norm check of that
    step, the H layer "k1 3.1" that its 8th call ends: the run stops there and exits 1, and
    nothing is renormalized or printed."""
    kernel, calls = circuit._apply_single_inplace, []

    def drifting(amps, *args):
        kernel(amps, *args)
        calls.append(args)
        if len(calls) == 7:
            amps *= 1.01

    monkeypatch.setattr(circuit, "_apply_single_inplace", drifting)
    code, out, err = run_cli(
        capsys, "run", "--n", "3", "--marked", "101", "--iterations", "1", "--trace"
    )
    assert (code, out, len(calls)) == (1, "", 8)
    assert err.startswith("internal error: ValueError: state norm ")
    assert "deviates from 1 by more than" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_load_trace_empty_circuit(capsys, monkeypatch, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO("# qubits: 2\n"))
    code, out, _ = run_cli(capsys, "load", "--trace", "--format", fmt)
    assert code == 0
    if fmt == "text":
        assert "p(00): 1.000000" in out.splitlines()
    else:
        doc = json.loads(out)
        assert doc["rows"] == []
        assert doc["summary"] == [{"bitstring": "00", "p": 1.0}]


def test_run_takes_the_plane_sums_once(capsys, monkeypatch):
    calls, plane_sums = [], geometry.plane_sums

    def counting(*args):
        calls.append(args)
        return plane_sums(*args)

    monkeypatch.setattr(geometry, "plane_sums", counting)
    code, _, _ = run_cli(
        capsys, "run", "--n", "4", "--marked", "0010", "--iterations", "1", "--trace"
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "load"])
def test_trace_builds_one_table_per_trace(capsys, monkeypatch, tmp_path, command):
    """A trace finds its bitstrings and its distinct amplitudes once, not once per step;
    `load` adds one of each for its probability table."""
    spec = ["--n", "4", "--marked", "0010", "--iterations", "2"]
    if command == "load":
        path = tmp_path / "grover.txt"
        assert main(["dump", *spec, "--out", str(path)]) == 0
        argv, tables, steps = ["load", "--file", str(path), "--trace"], 2, 52  # a step per op
    else:
        argv, tables, steps = ["run", *spec, "--trace"], 1, 17  # 1 + 8 per iteration
    calls = {"bitstrings": 0, "unique": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counting(statevector, "bitstrings")
    counting(np, "unique")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == steps
    assert calls == {"bitstrings": tables, "unique": tables}


def test_untraced_run_and_sample_hold_no_state(capsys, monkeypatch):
    """Untraced `run` reads its summary, and `sample` its distribution, from (v, u) alone."""
    def no_state(*_, **__):
        raise AssertionError("an untraced run or sample must not build or analyse a state")

    for module, name in ((circuit, "grover_data_state"), (circuit, "run"),
                         (geometry, "plane_sums"), (sampling, "measure_all")):
        monkeypatch.setattr(module, name, no_state)
    monkeypatch.setattr(statevector.StateVector, "__init__", no_state)
    spec = ["--n", "4", "--marked", "0010", "1100", "--iterations", "1"]
    assert run_cli(capsys, "run", *spec)[0] == 0
    assert run_cli(capsys, "sample", *spec, "--shots", "100")[0] == 0


@pytest.mark.parametrize("argv", [
    ["run", "--n", "4", "--marked", "0010", "1100", "--iterations", "1", "--trace"],
    ["dump", "--n", "4", "--marked", "0010", "1100", "--iterations", "3"],
])
def test_grover_blocks_built_once(capsys, argv):
    """A traced run counts its steps, builds its circuit and labels its ops from one
    `_grover_blocks`, and dump counts and builds its ops from one."""
    with mock.patch.object(circuit, "_grover_blocks", wraps=circuit._grover_blocks) as blocks:
        assert run_cli(capsys, *argv)[0] == 0
    assert blocks.call_count == 1


@pytest.mark.parametrize("argv, specs", [
    (["run", "--iterations", "2"], 1),
    (["run", "--iterations", "2", "--format", "json"], 1),
    (["run", "--iterations", "2", "--bit-order", "lsb"], 2),  # the marked strings reversed
    (["run", "--iterations", "2", "--trace"], 2),  # the plane analysis checks the marked strings
    (["sweep", "--kmax", "5"], 2),  # the spec, then at k_max iterations
    (["sweep", "--kmax", "0", "--format", "csv"], 1),  # a spec at k = 0 is at k_max already
    (["sample", "--iterations", "2", "--shots", "10"], 1),
    (["dump", "--iterations", "2"], 1),
])
def test_spec_validations_per_command(capsys, argv, specs):
    with mock.patch.object(
        grover_kit.GroverSpec, "__post_init__", autospec=True,
        side_effect=grover_kit.GroverSpec.__post_init__,
    ) as validate:
        assert run_cli(capsys, *argv, "--n", "4", "--marked", "0010", "1100")[0] == 0
    assert validate.call_count == specs


@pytest.mark.parametrize("argv", [["sweep", "--kmax", "64"], ["sweep", "--kmax", "0"]])
def test_sweep_rows_skip_json_dumps(capsys, argv):
    """json.dumps renders the sweep document with "rows" empty; the row template fills it."""
    argv = [*argv, "--n", "8", "--marked", "00010010", "--format", "json"]
    with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [call.args[0]["rows"] for call in dumps.call_args_list] == [[]]
    assert [row["k"] for row in json.loads(out)["rows"]] == list(range(int(argv[2]) + 1))


@pytest.mark.parametrize("fmt, flattens", [("text", False), ("json", False), ("csv", True)])
def test_run_flattens_only_for_csv(capsys, monkeypatch, fmt, flattens):
    """run builds its csv rows only when it prints csv, and its text lines only for text."""
    calls = []
    flatten = cli._flatten
    monkeypatch.setattr(cli, "_flatten", lambda *a: calls.append(a) or flatten(*a))
    argv = ["run", "--n", "4", "--marked", "0010", "--iterations", "1", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert bool(calls) is flattens
    assert ("theta_sin: " in out) is (fmt == "text")


def test_untraced_run_memory():
    # The summary is O(m) floats: the parent wrote and validated a 16 MiB state at n=20.
    argv = ["run", "--n", "20", "--marked", "1" * 20, "0" * 20, "--format", "json"]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_sample_memory_per_amplitude():
    # A bound from when one float64 buffer held the probabilities and then their running
    # sum (8 B per amplitude). `sample` now holds no per-amplitude buffer at all, so it is
    # loose; test_sample_memory_is_constant below holds the current bound.
    argv = ["sample", "--n", "16", "--marked", "1" * 16, "--shots", "64", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv)  # first-use imports (numpy.random) are not the sampler's memory
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (1 << 16) < 12


@pytest.mark.parametrize(
    "marked",
    [["1" * 20], [format(i, "020b") for i in range(0, 1 << 20, 1023)]],
    ids=["one", "spaced"],
)
def test_sample_memory_is_constant(marked):
    # The running sum is kept as pieces, O(m + n) of them for m marked strings at n qubits
    # however the strings lie, so no 2^n buffer is built: one float64 per amplitude would be
    # 8 MiB at n=20. The 1,026 strings spaced 1,023 apart, with short unmarked runs between
    # them, make about 3,100 pieces: a 0.25 MiB peak.
    argv = ["sample", "--n", "20", "--marked", *marked, "--shots", "64", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv)  # first-use imports (numpy.random) are not the sampler's memory
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


# Reference trace renderer: one dict per kept amplitude, rendered by json.dumps, csv.writer
# and the line generator below. The columnar renderer in cli must match it byte for byte.
def reference_trace_rows(raw_steps, n_qubits, bit_order, precision):
    rows = []
    for step, (label, (first, last), amps) in enumerate(raw_steps):
        keep = np.flatnonzero(np.abs(amps) > cli.AMPLITUDE_CUTOFF)
        bits = (cli._oriented(format(i, f"0{n_qubits}b"), bit_order) for i in keep.tolist())
        entries = [
            {"bitstring": b, **cli._complex_entry(z, precision)}
            for b, z in zip(bits, amps[keep].tolist())
        ]
        rows.append({"step": step, "label": label, "ops": [first, last], "state": entries})
    return rows


def reference_trace_lines(rows, precision):
    for row in rows:
        first, last = row["ops"]
        span = f"op {first}" if first == last else f"ops {first}..{last}"
        yield f"step {row['step']}  [{row['label']}]  {span}"
        for entry in row["state"]:
            yield f"  |{entry['bitstring']}>  {cli._fmt(entry, precision)}"


def reference_trace_output(report, rows, summary, fmt, precision):
    if fmt == "json":
        return json.dumps({**report.doc, "rows": rows, "summary": summary}, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["step", "label", "bitstring", "re", "im"])
        writer.writerows(
            [row["step"], row["label"], entry["bitstring"], entry["re"], entry["im"]]
            for row in rows
            for entry in row["state"]
        )
    else:
        for line in [*report.lines, "", *reference_trace_lines(rows, precision)]:
            print(line, file=out)
    return out.getvalue()


# Components that round to -0, sit on either side of AMPLITUDE_CUTOFF, or repeat as
# gate-built amplitudes do.
COMPONENTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-13, -5e-13, 2e-12, -2e-12, -4e-7, 4e-7, 0.5, -0.5, 0.35355339059327373]
    ),
    st.floats(-1.0, 1.0),
)


@st.composite
def raw_traces(draw):
    """(wires, [(label, (first, last), amps)]): a few distinct amplitudes per step, at
    least one of them above the cutoff, as a state of unit norm has."""
    n = draw(st.integers(1, 4))
    steps, first = [], 0
    for _ in range(draw(st.integers(0, 4))):
        pool = draw(st.lists(st.builds(complex, COMPONENTS, COMPONENTS), min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1 << n, max_size=1 << n))
        amps = np.array([pool[i] for i in picks], dtype=np.complex128)
        amps[draw(st.integers(0, (1 << n) - 1))] = complex(draw(st.sampled_from([1.0, -0.5])), 0.0)
        label = draw(st.one_of(st.sampled_from(["1.1", "k1 2.1[01]", "MCX c=0,1 t=2"]), st.text()))
        last = first + draw(st.integers(0, 3))
        steps.append((label, (first, last), amps))
        first = last + 1
    return n, steps


@settings(max_examples=300, deadline=None)
@given(
    raw_traces(),
    st.integers(0, 17),
    st.sampled_from(["msb", "lsb"]),
    st.sampled_from(["text", "json", "csv"]),
    st.text(),
)
def test_trace_renderer_matches_reference(raw, precision, bit_order, fmt, source):
    n, raw_steps = raw
    entry = functools.partial(cli._complex_entry, precision=precision)
    steps = [(label, ops, cli._rows(amps, n, bit_order, entry)) for label, ops, amps in raw_steps]
    summary = [{"bitstring": "0" * n, "p": 1.0}]
    echo = {"source": source, "n": n, "bit_order": bit_order}
    report = cli._report("load", echo, summary, [f"source: {source}"], [])
    traced = cli._report("load", echo, summary, report.lines, [], steps, summary)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(traced, fmt, precision)
    rows = reference_trace_rows(raw_steps, n, bit_order, precision)
    assert out.getvalue() == reference_trace_output(report, rows, summary, fmt, precision)


def test_trace_memory_per_kept_amplitude():
    # 9 steps, each keeping all 2^14 amplitudes. The columns and one rendered step take ~116 B
    # per amplitude (98 B with one string per line); a dict per amplitude and a whole rendered
    # document take ~1 KiB.
    argv = ["run", "--n", "14", "--marked", "0" * 14, "--iterations", "1", "--trace",
            "--format", "json"]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (9 << 14) < 512


@settings(max_examples=300, deadline=None)
@given(
    st.text(), st.lists(st.text(), min_size=1, max_size=6), st.text(min_size=1),
    st.integers(1, 26), st.lists(st.tuples(st.integers(0, (1 << 26) - 1), st.integers(0, 5)),
                                 max_size=64),
)
@example("\x00", ["\x00", ""], "\x00", 1, [(0, 0), (1, 1), (1, 0)])
@example("é|", ["", "→ ½"], "\n", 3, [(5, 1), (2, 0)])
def test_join_matches_str_join(prefix, tails, sep, wires, rows):
    # Any text, NUL, non-ASCII and empty tails included: no UTF-8 text holds the 0xFF padding.
    strings = [format(index % (1 << wires), f"0{wires}b") for index, _ in rows]
    picks = [pick % len(tails) for _, pick in rows]
    bits = np.array(strings, dtype=f"S{wires}")
    got = cli._join(bits, np.array(picks, dtype=np.intp), prefix, cli._ends(tails, sep), sep)
    assert got == sep.join(prefix + b + tails[w] for b, w in zip(strings, picks))


def test_trace_rounds_each_distinct_amplitude_once():
    # Four steps of 2 wires: 1/sqrt(2), then 1/2 three times (the last also -1/2). Rounding per
    # step takes 1 + 1 + 1 + 2 calls; once per trace takes one per distinct amplitude.
    text = "# qubits: 2\nH 0\nH 1\nX 0\nZ 1\n"
    parsed, state, distinct, per_step = circuit.circuit_from_text(text), None, set(), 0
    for op in parsed.ops:
        state = circuit.run(circuit.Circuit(2, (op,)), state)
        kept = {z for z in state.amps.tolist() if abs(z) > cli.AMPLITUDE_CUTOFF}
        distinct |= kept
        per_step += len(kept)
    out = io.StringIO()
    with mock.patch.object(cli, "_complex_entry", wraps=cli._complex_entry) as convert, \
            mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        assert main(["load", "--trace", "--format", "json"]) == 0
    assert len(json.loads(out.getvalue())["rows"]) == 4
    assert per_step > len(distinct)
    assert convert.call_count == len(distinct)


# Reference sample renderer: one dict per outcome, sorted in Python and rendered through the
# dict-row report. The columnar renderer in cli must match it byte for byte.
def reference_sample_report(histogram, echo, bit_order):
    records = [
        {"bitstring": cli._oriented(bits, bit_order), "count": count}
        for bits, count in histogram.counts.items()
    ]
    records.sort(key=lambda d: (-d["count"], d["bitstring"]))
    lines = [f"shots: {histogram.shots}", f"seed: {histogram.seed}"]
    lines += [f"{d['bitstring']}  {d['count']}" for d in records]
    table = [["bitstring", "count"], *([d["bitstring"], d["count"]] for d in records)]
    return cli._report(
        "sample", echo, records, lines, table, shots=histogram.shots, seed=histogram.seed
    )


@st.composite
def histograms(draw):
    """A Histogram in measure_all's order, with many count ties."""
    n = draw(st.integers(1, 6))
    outcomes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    counts = draw(st.lists(
        st.one_of(st.integers(1, 3), st.integers(1, 1 << 20)),
        min_size=len(outcomes), max_size=len(outcomes),
    ))
    pairs = sorted(zip(outcomes, counts), key=lambda pair: (-pair[1], pair[0]))
    shots = sum(counts)
    return Histogram(
        shots, draw(st.integers(0, 2**64 - 1)), n,
        np.array([i for i, _ in pairs], dtype=np.int64), np.array([c for _, c in pairs]),
    )


@settings(max_examples=300, deadline=None)
@given(
    histograms(),
    st.sampled_from(["msb", "lsb"]),
    st.sampled_from(["text", "json", "csv"]),
    st.sampled_from([1, 2, 3, 1 << 12]),
)
def test_sample_renderer_matches_reference(histogram, bit_order, fmt, block):
    n = histogram.n_qubits
    argv = ["sample", "--n", str(n), "--marked", "1" * n, "--iterations", "0",
            "--shots", "1", "--seed", str(histogram.seed), "--bit-order", bit_order]
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sampling, "sample_grover", lambda *_: histogram))
        stack.enter_context(mock.patch.object(cli, "_TABLE_BLOCK", block))
        stack.enter_context(contextlib.redirect_stdout(out))
        cli._emit(cli.cmd_sample(args), fmt, 6)
    echo = {"n": n, "marked": ["1" * n], "iterations": 0, "style": "mcz", "bit_order": bit_order}
    want = io.StringIO()
    with contextlib.redirect_stdout(want):
        cli._emit(reference_sample_report(histogram, echo, bit_order), fmt, 6)
    assert out.getvalue() == want.getvalue()


@pytest.mark.parametrize("bit_order, lexsorts", [("msb", 0), ("lsb", 1)])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sample_table_sorts_once(bit_order, lexsorts, fmt):
    # The histogram is already in descending count order, ties by index: the msb table order.
    # Only lsb, whose bitstrings read reversed, ranks the rows again; nothing re-sorts the counts.
    argv = ["sample", "--n", "12", "--marked", "1" * 12, "--iterations", "0", "--shots", "4000",
            "--seed", "3", "--bit-order", bit_order]
    args = cli.build_parser().parse_args(argv)
    with mock.patch.object(np, "unique", wraps=np.unique) as unique, \
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli._emit(cli.cmd_sample(args), fmt, 6)
    assert (unique.call_count, lexsort.call_count) == (0, lexsorts)


# Reference load renderer: one dict per outcome, sorted in Python, formatted by `_line` and
# rendered by json.dumps and csv.writer; a traced load adds the reference trace. The columnar
# table in cli must match it byte for byte.
def reference_load_output(text, fmt, precision, bit_order, trace):
    parsed = circuit.circuit_from_text(text)
    n, raw_steps, state, first = parsed.n_qubits, [], None, 0
    for label, group in itertools.groupby(map(circuit.op_to_text, parsed.ops)):
        last = first + len(list(group)) - 1
        state = circuit.run(circuit.Circuit(n, parsed.ops[first:last + 1]), state)
        raw_steps.append((label, (first, last), state.amps))
        first = last + 1
    probs = (state if raw_steps else circuit.run(parsed)).probabilities()
    records = [
        {"bitstring": cli._oriented(format(i, f"0{n}b"), bit_order), "p": cli._r(p, precision)}
        for i, p in enumerate(probs.tolist()) if p > cli.AMPLITUDE_CUTOFF
    ]
    records.sort(key=lambda d: (-d["p"], d["bitstring"]))
    lines = ["source: <stdin>", f"n: {n}", f"ops: {len(parsed)}"]
    lines += [cli._line(f"p({d['bitstring']})", d["p"], precision) for d in records]
    doc = {
        "command": "load",
        "versions": {"tool": grover_kit.__version__, "format": cli.FORMAT_VERSION},
        "spec": {"source": "<stdin>", "n": n, "bit_order": bit_order},
        "rows": records,
    }
    if trace:
        rows = reference_trace_rows(raw_steps, n, bit_order, precision)
        report = argparse.Namespace(doc=doc, lines=lines)
        return reference_trace_output(report, rows, records, fmt, precision)
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows([["bitstring", "p"], *([d["bitstring"], d["p"]] for d in records)])
    else:
        print("\n".join(lines), file=out)
    return out.getvalue()


@st.composite
def load_texts(draw):
    """Circuit text of up to 10 gates on 1-5 wires: their final states hold a few distinct
    probabilities, powers of 1/2 that tie after rounding at a low precision."""
    n = draw(st.integers(1, 5))
    ops = []
    for _ in range(draw(st.integers(0, 10))):
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        controls = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        kind = draw(st.sampled_from("XZ" if controls else "HXZ"))
        ops.append(circuit.Gate(kind, target, controls))
    return circuit.circuit_to_text(circuit.Circuit(n, ops))


@settings(max_examples=300, deadline=None)
@given(
    load_texts(),
    st.integers(0, 17),
    st.sampled_from(["msb", "lsb"]),
    st.sampled_from(["text", "json", "csv"]),
    st.booleans(),
)
def test_load_renderer_matches_reference(text, precision, bit_order, fmt, trace):
    argv = ["load", "--format", fmt, "--precision", str(precision), "--bit-order", bit_order]
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        assert main(argv + ["--trace"] * trace) == 0
    assert out.getvalue() == reference_load_output(text, fmt, precision, bit_order, trace)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_load_table_memory_per_outcome(monkeypatch, fmt):
    # H on each of 16 wires: 2^16 outcomes of p = 2^-16. The columns and one rendered block
    # take ~89 B per outcome; a dict per outcome took 520-1,023 B.
    text = "# qubits: 16\n" + "".join(f"H {q}\n" for q in range(16))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["load", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (1 << 16) < 128


# Reference sweep and run renderers: the rounded records of each row, rendered by
# json.dumps(indent=2), csv.writer and f-string lines. The row templates and the run summary
# listing in cli must match them byte for byte.
def _reference_output(doc, table, lines, fmt):
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(table)
    else:
        print("\n".join(lines), file=out)
    return out.getvalue()


def _reference_doc(command, spec, iterations, style, bit_order, rows):
    echo = {
        "n": spec.n_qubits, "marked": [cli._oriented(b, bit_order) for b in spec.marked],
        "iterations": iterations, "style": style, "bit_order": bit_order,
    }
    versions = {"tool": grover_kit.__version__, "format": cli.FORMAT_VERSION}
    return {"command": command, "versions": versions, "spec": echo, "rows": rows}


def reference_sweep(spec, k_max, style, bit_order, fmt, p):
    rows = geometry.iteration_report(spec, k_max)
    records = [
        {key: value if key == "k" else cli._r(value, p) for key, value in vars(row).items()}
        for row in rows
    ]
    fields = list(records[0])[1:]
    widths = (p + 4, p + 6, p + 6, p + 6)
    lines = [f"{'k':>3}  " + "  ".join(f"{f:>{w}}" for f, w in zip(fields, widths))]
    lines += [
        f"{row.k:>3}  " + "  ".join(f"{getattr(row, f):>{w}.{p}f}" for f, w in zip(fields, widths))
        for row in rows
    ]
    table = [list(records[0]), *(list(r.values()) for r in records)]
    doc = _reference_doc("sweep", spec, k_max, style, bit_order, records)
    return _reference_output(doc, table, lines, fmt)


def _reference_leaves(mapping, pattern="{}"):
    names = {"p_per_marked": "p({})", "plane": "{}", "oblique": "{}"}
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _reference_leaves(value, names.get(key, pattern.format(key) + "_{}"))
        else:
            yield [pattern.format(key), value]


def reference_run(spec, style, bit_order, fmt, p):
    probs, coords, (c_p, c_r) = geometry.grover_summary(spec)
    angles = grover_kit.grover_angles(spec.n_qubits, spec.n_marked)
    per_marked = {cli._oriented(b, bit_order): cli._r(q, p) for b, q in zip(spec.marked, probs)}
    entry = functools.partial(cli._complex_entry, precision=p)
    summary = {
        "p_marked_total": cli._r(sum(probs), p),
        "p_marked_formula": cli._r(
            grover_kit.predicted_success(spec.n_qubits, spec.n_marked, spec.iterations), p
        ),
        "p_per_marked": per_marked,
        "theta_sin": cli._r(angles.theta_sin, p),
        "theta_cos": cli._r(angles.theta_cos, p),
        "plane": {
            "a_marked": entry(coords.a_marked),
            "a_unmarked": entry(coords.a_unmarked),
            "residual_norm": cli._r(coords.residual_norm, p),
        },
        "angle": cli._r(geometry.plane_angle(coords), p),
        "oblique": {"c_p": entry(c_p), "c_r": entry(c_r)},
    }
    scalars = ("theta_sin", "theta_cos", "p_marked_total", "p_marked_formula")
    lines = [
        f"n: {spec.n_qubits}",
        f"marked: {' '.join(per_marked)}",
        f"iterations: {spec.iterations}",
        f"style: {style}",
        *(cli._line(key, summary[key], p) for key in scalars),
        *(cli._line(f"p({bits})", value, p) for bits, value in per_marked.items()),
        *(cli._line(key, value, p) for key, value in summary["plane"].items()),
        cli._line("angle", summary["angle"], p),
        "oblique: " + " ".join(f"{key}={cli._fmt(z, p)}" for key, z in summary["oblique"].items()),
    ]
    table = [["quantity", "value"], *_reference_leaves(summary)]
    doc = _reference_doc("run", spec, spec.iterations, style, bit_order, [summary])
    return _reference_output(doc, table, lines, fmt)


@st.composite
def grover_flags(draw):
    """(n, marked as typed, k, style, bit order, format, precision): n <= 10, any m, k <= 64."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, (1 << n) - 1))
    indices = draw(st.randoms(use_true_random=False)).sample(range(1 << n), m)
    k = draw(st.integers(0, 64 if n > 1 else 0))
    return (
        n, [format(i, f"0{n}b") for i in indices], k,
        draw(st.sampled_from(["mcz", "mcx-ancilla"])), draw(st.sampled_from(["msb", "lsb"])),
        draw(st.sampled_from(["text", "json", "csv"])), draw(st.integers(0, 17)),
    )


@settings(max_examples=300, deadline=None)
@given(grover_flags(), st.sampled_from(["sweep", "run"]))
@example((1, ["0"], 0, "mcz", "msb", "json", 0), "sweep")
@example((3, ["001", "110"], 64, "mcx-ancilla", "lsb", "text", 17), "sweep")
@example((2, ["01", "10", "11"], 1, "mcz", "lsb", "csv", 0), "run")
def test_sweep_and_run_renderers_match_reference(flags, command):
    n, marked, k, style, bit_order, fmt, precision = flags
    argv = [command, "--n", str(n), "--marked", *marked, "--style", style,
            "--kmax" if command == "sweep" else "--iterations", str(k),
            "--bit-order", bit_order, "--format", fmt, "--precision", str(precision)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    internal = tuple(cli._oriented(bits, bit_order) for bits in marked)
    spec = grover_kit.GroverSpec(n, internal, k, cli._STYLE_FLAGS[style])
    if command == "sweep":
        want = reference_sweep(spec, k, style, bit_order, fmt, precision)
    else:
        want = reference_run(spec, style, bit_order, fmt, precision)
    assert out.getvalue() == want


def test_load_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("MCX t=2\n")
    code, _, err = run_cli(capsys, "load", "--file", str(path))
    assert code == 2
    assert "line 1" in err


def test_load_missing_file(capsys):
    code, _, err = run_cli(capsys, "load", "--file", "/nonexistent/circuit.txt")
    assert code == 2
    assert "--file" in err


def test_load_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# qubits: 1 \xe9\nH 0\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "load", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --file:")


def test_dump_to_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "dump", "--n", "2", "--marked", "01", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out:")


def test_precision_bound(capsys):
    code, _, err = run_cli(
        capsys, "run", "--n", "2", "--marked", "01", "--iterations", "1", "--precision", "40"
    )
    assert code == 2
    assert "--precision" in err


# The flags of every subcommand: dest -> (option strings, type, default, choices,
# required, nargs, metavar, help). Option order in --help is not pinned.
_OUTPUT_FLAGS = {
    "format": (("--format",), None, "text", ("text", "json", "csv"), False, None, None, None),
    "precision": (("--precision",), int, 6, None, False, None, "DIGITS", None),
    "bit_order": (("--bit-order",), None, "msb", ("msb", "lsb"), False, None, None, None),
}
_SPEC_FLAGS = {
    "n": (("--n",), int, None, None, True, None, None, "data qubit count"),
    "marked": (("--marked",), None, None, None, True, "+", "BITS", "marked bitstrings"),
    "style": (("--style",), None, "mcz", ("mcz", "mcx-ancilla"), False, None, None, None),
}
_ITERATIONS_FLAG = {"iterations": (("--iterations",), int, 1, None, False, None, None, None)}
CLI_SURFACE = {
    "run": {
        **_SPEC_FLAGS,
        **_ITERATIONS_FLAG,
        "trace": (
            ("--trace",), None, False, None, False, 0, None, "emit the state after each step"
        ),
        **_OUTPUT_FLAGS,
    },
    "sweep": {
        **_SPEC_FLAGS,
        "kmax": (("--kmax",), int, None, None, True, None, None, None),
        **_OUTPUT_FLAGS,
    },
    "predict": {
        "n": (("--n",), int, None, None, True, None, None, None),
        "m": (("--m",), int, None, None, True, None, None, "marked string count"),
        "iterations": (("--iterations",), int, None, None, False, None, None, None),
        "optimal": (("--optimal",), None, False, None, False, 0, None, None),
        **_OUTPUT_FLAGS,
    },
    "sample": {
        **_SPEC_FLAGS,
        **_ITERATIONS_FLAG,
        "shots": (("--shots",), int, None, None, True, None, None, None),
        "seed": (
            ("--seed",), int, None, None, False, None, None, "default: $GROVER_KIT_SEED or 0"
        ),
        **_OUTPUT_FLAGS,
    },
    "dump": {
        **_SPEC_FLAGS,
        **_ITERATIONS_FLAG,
        "out": (("--out",), None, None, None, False, None, "PATH", "default: stdout"),
    },
    "load": {
        "file": (("--file",), None, None, None, False, None, "PATH", "default: stdin"),
        "trace": (("--trace",), None, False, None, False, 0, None, None),
        **_OUTPUT_FLAGS,
    },
}
# Mutually exclusive groups of each subcommand: (required, dests).
CLI_EXCLUSIVE = {"predict": [(True, ["iterations", "optimal"])]}


def _subparsers():
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_cli_surface_is_pinned():
    subparsers = _subparsers()
    assert list(subparsers) == list(CLI_SURFACE)
    for name, parser in subparsers.items():
        flags = {
            a.dest: (
                tuple(a.option_strings), a.type, a.default,
                tuple(a.choices) if a.choices else None, a.required, a.nargs, a.metavar, a.help,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert flags == CLI_SURFACE[name], name
        groups = [
            (g.required, [a.dest for a in g._group_actions])
            for g in parser._mutually_exclusive_groups
        ]
        assert groups == CLI_EXCLUSIVE.get(name, []), name


@pytest.mark.parametrize("command", [[], *([name] for name in CLI_SURFACE)])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: grover-kit")
