"""Byte-exact CLI outputs, compared against the files under tests/golden/.

Each case runs ``main(argv)`` in-process from inside tests/golden/ (so that
``load --file`` reports the same relative source path everywhere) and
compares stdout byte for byte and the exit code exactly. For a failing
case only the start of stderr is pinned, ``error: --<flag>:``, so messages
may be reworded as long as they name the same flag.

Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import re
import sys
from pathlib import Path

import pytest

from grover_kit.cli import _SPEC_FLAGS, SEED_ENV_VAR, main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json", "csv")
STYLES = ("mcz", "mcx-ancilla")
ORDERS = ("msb", "lsb")
STDIN_CIRCUIT = "# qubits: 2\nH 0\nMCX c=0 t=1\nZ 1\n"
NEGATIVE_ZERO = re.compile(r"(?<![0-9.])-0(?:\.0*)?(?![0-9.])")


def _cases() -> dict[str, tuple[list[str], str | None]]:
    """Case name -> (argv, stdin text or None)."""
    cases: dict[str, list[str]] = {}
    for style in STYLES:
        for order in ORDERS:
            spec = ["--n", "4", "--marked", "0010", "1101", "--style", style]
            small = ["--n", "3", "--marked", "001", "110", "--style", style]
            for fmt in FORMATS:
                out = ["--format", fmt, "--bit-order", order]
                tag = f"{style}-{order}-{fmt}"
                cases[f"run-{tag}"] = ["run", *spec, "--iterations", "1", *out]
                cases[f"run-trace-{tag}"] = ["run", *small, "--iterations", "1", "--trace", *out]
                cases[f"sweep-{tag}"] = ["sweep", *spec, "--kmax", "3", *out]
                cases[f"sample-{tag}"] = [
                    "sample", *spec, "--iterations", "2", "--shots", "200", "--seed", "11", *out
                ]
        cases[f"dump-{style}"] = ["dump", "--n", "3", "--marked", "011", "--iterations", "1",
                                  "--style", style]
    cases["dump-out-dash"] = ["dump", "--n", "2", "--marked", "01", "--out", "-"]
    for order in ORDERS:
        for fmt in FORMATS:
            out = ["--format", fmt, "--bit-order", order]
            predict = ["predict", "--n", "5", "--m", "3", "--iterations", "2"]
            cases[f"predict-{order}-{fmt}"] = [*predict, *out]
            cases[f"load-{order}-{fmt}"] = ["load", "--file", "ancilla.circ", *out]
            cases[f"load-trace-{order}-{fmt}"] = ["load", "--file", "mixed.circ", "--trace", *out]
    for fmt in FORMATS:
        optimal = ["predict", "--n", "5", "--m", "1", "--optimal"]
        cases[f"predict-optimal-{fmt}"] = [*optimal, "--format", fmt]
    cases["run-k0"] = ["run", "--n", "3", "--marked", "101", "--iterations", "0"]
    cases["run-n1-k0"] = ["run", "--n", "1", "--marked", "1", "--iterations", "0",
                          "--format", "json"]
    cases["sweep-n1-k0"] = ["sweep", "--n", "1", "--marked", "0", "--kmax", "0"]
    cases["sample-default-seed"] = ["sample", "--n", "3", "--marked", "010", "--shots", "50"]
    for digits in ("0", "17"):
        for fmt in FORMATS:
            cases[f"precision{digits}-run-{fmt}"] = [
                "run", "--n", "5", "--marked", "10100", "00111", "--iterations", "2",
                "--precision", digits, "--format", fmt,
            ]
            cases[f"precision{digits}-sweep-{fmt}"] = [
                "sweep", "--n", "3", "--marked", "001", "--kmax", "4", "--precision", digits,
                "--format", fmt, "--style", "mcx-ancilla",
            ]
        cases[f"precision{digits}-predict"] = ["predict", "--n", "4", "--m", "2", "--optimal",
                                               "--precision", digits]
        cases[f"precision{digits}-run-trace"] = [
            "run", "--n", "2", "--marked", "10", "--iterations", "1", "--trace",
            "--precision", digits, "--style", "mcx-ancilla",
        ]
        cases[f"precision{digits}-load"] = ["load", "--file", "mixed.circ", "--precision", digits]
    errors = {
        "n-too-large": ["run", "--n", "27", "--marked", "0" * 27],
        "n-zero": ["run", "--n", "0", "--marked", "0"],
        "n-ancilla-too-wide": ["dump", "--n", "26", "--marked", "0" * 26, "--style", "mcx-ancilla"],
        "marked-length": ["run", "--n", "3", "--marked", "01"],
        "marked-length-lsb": ["run", "--n", "3", "--marked", "0111", "--bit-order", "lsb"],
        "marked-chars": ["run", "--n", "3", "--marked", "0a1"],
        "marked-duplicate": ["run", "--n", "3", "--marked", "001", "001"],
        "marked-duplicate-lsb": ["sample", "--n", "2", "--marked", "01", "01", "--shots", "4",
                                 "--bit-order", "lsb"],
        "marked-whole-space": ["run", "--n", "1", "--marked", "0", "1", "--iterations", "0"],
        "iterations-negative": ["run", "--n", "3", "--marked", "001", "--iterations", "-1"],
        "n-one-amplified": ["run", "--n", "1", "--marked", "1", "--iterations", "1"],
        "sweep-kmax-high": ["sweep", "--n", "3", "--marked", "001", "--kmax", "65"],
        "sweep-kmax-negative": ["sweep", "--n", "3", "--marked", "001", "--kmax", "-1"],
        "sweep-marked": ["sweep", "--n", "3", "--marked", "1111", "--kmax", "2"],
        "sweep-n-one": ["sweep", "--n", "1", "--marked", "1", "--kmax", "1"],
        "predict-n": ["predict", "--n", "27", "--m", "1", "--iterations", "1"],
        "predict-m": ["predict", "--n", "3", "--m", "0", "--iterations", "1"],
        "predict-iterations": ["predict", "--n", "3", "--m", "1", "--iterations", "-2"],
        "predict-iterations-high": ["predict", "--n", "3", "--m", "1", "--iterations", "8193"],
        "trace-too-large": ["run", "--n", "17", "--marked", "0" * 17, "--trace"],
        "sample-shots": ["sample", "--n", "3", "--marked", "001", "--shots", "0"],
        "sample-seed-negative": ["sample", "--n", "3", "--marked", "001", "--shots", "3",
                                 "--seed", "-1"],
        "sample-seed-large": ["sample", "--n", "3", "--marked", "001", "--shots", "3",
                              "--seed", str(1 << 64)],
        "sample-marked": ["sample", "--n", "3", "--marked", "00x", "--shots", "3"],
        "dump-marked": ["dump", "--n", "3", "--marked", "00"],
        "dump-iterations": ["dump", "--n", "3", "--marked", "001", "--iterations", "-3"],
        "dump-work": ["dump", "--n", "26", "--marked", "1" * 26, "--iterations", "1"],
        "load-missing": ["load", "--file", "no-such-file.circ"],
        "load-parse": ["load", "--file", "bad-gate.circ"],
        "load-width": ["load", "--file", "too-wide.circ"],
        "load-work": ["load", "--file", "too-much-work.circ"],
        "precision-high": ["run", "--n", "2", "--marked", "01", "--precision", "18"],
        "precision-negative": ["sweep", "--n", "2", "--marked", "01", "--kmax", "1",
                               "--precision", "-1"],
        "usage-missing-flag": ["run", "--marked", "01"],
        "usage-bad-choice": ["run", "--n", "2", "--marked", "01", "--format", "xml"],
    }
    cases.update({f"error-{name}": argv for name, argv in errors.items()})
    out = {name: (argv, None) for name, argv in cases.items()}
    out["load-stdin"] = (["load"], STDIN_CIRCUIT)
    out["load-stdin-trace-json"] = (["load", "--trace", "--format", "json"], STDIN_CIRCUIT)
    return out


CASES = _cases()


def _invoke(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin or "")
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _stderr_head(err: str) -> str:
    """``error: --flag:`` (or ``usage:``) at the start of a failing call's stderr."""
    return ":".join(err.split(":")[:2]) + ":" if err.startswith("error:") else err[:6]


@pytest.fixture
def in_golden_dir(monkeypatch):
    monkeypatch.delenv("GROVER_KIT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, in_golden_dir):
    status = json.loads((GOLDEN / "status.json").read_text())[name]
    argv, stdin = CASES[name]
    code, out, err = _invoke(argv, stdin)
    assert code == status["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    if code == 0:
        assert err == ""
    else:
        assert _stderr_head(err) == status["stderr"]


def _exit_2_cases() -> dict[str, tuple[list[str], dict[str, str]]]:
    """Every exit-2 golden case but argparse's usage errors, an --out that cannot be written
    and a bad seed in the environment: name -> (argv, environment)."""
    cases = {
        name: (argv, {})
        for name, (argv, _) in CASES.items()
        if name.startswith("error-") and not name.startswith("error-usage-")
    }
    unwritable = str(GOLDEN / "no-such-dir" / "x.circ")
    cases["dump-out-unwritable"] = (["dump", "--n", "2", "--marked", "01", "--out", unwritable], {})
    sample = ["sample", "--n", "3", "--marked", "001", "--shots", "3"]
    cases["sample-env-seed"] = (sample, {SEED_ENV_VAR: "x"})
    return cases


EXIT_2_CASES = _exit_2_cases()


@pytest.mark.parametrize("name", sorted(EXIT_2_CASES))
def test_every_exit_2_names_a_flag_from_the_table(name, in_golden_dir, monkeypatch):
    argv, env = EXIT_2_CASES[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = _invoke(argv, None)
    assert (code, out) == (2, "")
    flag = err.split(":")[1].strip()
    assert err.startswith(f"error: {flag}:")
    assert flag in {*_SPEC_FLAGS.values(), SEED_ENV_VAR}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_prints_no_negative_zero(name):
    """A value that rounds to zero prints as 0, never -0, -0.0 or -0.000000."""
    out = (GOLDEN / f"{name}.out").read_text()
    assert NEGATIVE_ZERO.findall(out) == []


if __name__ == "__main__":
    import os

    os.environ.pop("GROVER_KIT_SEED", None)
    os.chdir(GOLDEN)
    status = {}
    for name, (argv, stdin) in sorted(CASES.items()):
        code, out, err = _invoke(argv, stdin)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        status[name] = {"exit": code, "stderr": _stderr_head(err) if code else ""}
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(status)} cases to {GOLDEN}")
