"""The CLI's fixed cost: one parser per process, and start-up paths that need no numpy."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grover_kit
from grover_kit import cli
from grover_kit.spec import SpecError, check_iterations, check_n_qubits

SRC = Path(grover_kit.__file__).resolve().parent.parent
SPEC = ["--n", "4", "--marked", "0010", "1101", "--iterations", "2"]


def call(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh(argv: list[str]) -> tuple[int, str, str]:
    """`call` with a parser built for this call alone."""
    cli.build_parser.cache_clear()
    try:
        return call(argv)
    finally:
        cli.build_parser.cache_clear()


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "first, second",
    [
        (["run", *SPEC, "--trace"], ["run", *SPEC]),
        (["predict", "--n", "6", "--m", "2", "--optimal"],
         ["predict", "--n", "6", "--m", "2", "--iterations", "3"]),
        (["sample", *SPEC, "--shots", "50", "--bit-order", "lsb"],
         ["sample", *SPEC, "--shots", "50"]),
        (["sweep", *SPEC[:5], "--kmax", "3", "--format", "json"],
         ["sweep", *SPEC[:5], "--kmax", "3"]),
        (["run", "--n", "4", "--iterations", "2"], ["run", *SPEC]),  # argparse exits 2
    ],
)
def test_no_state_carries_between_calls(first, second):
    """Two calls in either order on the cached parser print what a fresh parser prints."""
    for pair in ((first, second), (second, first)):
        expected = [fresh(argv) for argv in pair]
        parser = cli.build_parser()
        assert [call(argv) for argv in pair] == expected
        assert cli.build_parser() is parser


def cold(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh ``python -X importtime *args`` on this checkout's src/, and the modules it
    imported: -X importtime logs every module on its first import, from interpreter start."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    log = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc, {line.rsplit("|", 1)[1].strip() for line in log}


@pytest.mark.parametrize(
    "args, code",
    [
        (["-m", "grover_kit.cli", "predict", "--n", "12", "--m", "3", "--optimal",
          "--format", "json"], 0),
        (["-m", "grover_kit.cli", "--help"], 0),
        (["-m", "grover_kit.cli", "predict", "--help"], 0),
        (["-m", "grover_kit.cli", "--version"], 0),
        (["-m", "grover_kit.cli", "predict", "--n", "12"], 2),  # argparse: --m is missing
        (["-m", "grover_kit.cli", "run", "--n", "3", "--marked", "101", "--style", "x"], 2),
        (["-c", "import grover_kit"], 0),
        (["-c", "import grover_kit; print(grover_kit.optimal_iterations(12, 3))"], 0),
        # Spec errors: every command validates its flags before it imports numpy.
        (["-m", "grover_kit.cli", "run", "--n", "0", "--marked", "1"], 2),
        (["-m", "grover_kit.cli", "sample", "--n", "2", "--marked", "01", "--shots", "0"], 2),
        (["-m", "grover_kit.cli", "sweep", "--n", "1", "--marked", "0", "--kmax", "3"], 2),
        (["-m", "grover_kit.cli", "dump", "--n", "0", "--marked", "1"], 2),
    ],
)
def test_start_without_numpy(args, code):
    proc, imported = cold(*args)
    assert proc.returncode == code, proc.stderr[-500:]
    assert "grover_kit" in imported
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    if "--optimal" in args:
        row = json.loads(proc.stdout)["rows"][0]
        assert (row["iterations"], row["p_marked_formula"]) == (29, 0.999317)
    if "--version" in args:
        assert proc.stdout == f"grover-kit {grover_kit.__version__}\n"


def test_cold_predict_imports_only_the_spec():
    """A cold `predict` is the benchmark's setup_s: it loads the closed form and nothing more."""
    proc, imported = cold("-m", "grover_kit.cli", "predict", "--n", "12", "--m", "3", "--optimal")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert {name for name in imported if name.split(".")[0] == "grover_kit"} == {
        "grover_kit", "grover_kit.spec"
    }


def test_cold_run_still_simulates():
    proc, imported = cold("-m", "grover_kit.cli", "run", *SPEC, "--format", "json")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "numpy" in imported  # the probe sees numpy where it is loaded
    summary = json.loads(proc.stdout)["rows"][0]
    assert summary["p_marked_total"] == summary["p_marked_formula"] == 0.945312


PUBLIC = {
    "AncillaFactorizationError", "Circuit", "Gate", "GroverAngles", "GroverSpec", "Histogram",
    "IterationRow", "OracleStyle", "PlaneCoords", "StateVector", "binomial_interval",
    "bitstring_to_index", "build_grover_circuit", "circuit_from_text", "circuit_to_text",
    "dense_unitary", "equal_up_to_global_phase", "grover_angles", "grover_data_state",
    "grover_step_labels", "iteration_report", "ket", "marked_plane_basis", "measure_all",
    "oblique_coords", "optimal_iterations", "p_each_unmarked", "plane_angle", "plane_decompose",
    "predicted_success", "run", "strip_ancilla",
}


def test_lazy_names_are_the_module_objects():
    assert grover_kit.__all__ == sorted(PUBLIC)
    for name in grover_kit.__all__:
        value = getattr(grover_kit, name)
        assert value.__module__.startswith("grover_kit.")
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(grover_kit.__all__) <= set(dir(grover_kit))


def test_readme_quick_start_runs():
    """The README's library quick start runs as written against the public names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})


def test_each_package_import_is_used():
    """A module imports from another grover_kit module only the names it uses, so each name
    has one home: spec names are read from grover_kit.spec, not through a simulation module."""
    unused = {}
    for path in sorted((SRC / "grover_kit").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "grover_kit")
            for alias in node.names
        }
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_lazy_unknown_name_and_star_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        grover_kit.no_such_name
    namespace: dict = {}
    exec("from grover_kit import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(grover_kit, name) for name in PUBLIC
    }


@pytest.mark.parametrize("check", [check_n_qubits, check_iterations])
def test_integer_checks(check):
    check(3)
    check(np.int64(3))  # numpy registers its integer types as numbers.Integral
    for bad in (np.bool_(True), True, 3.0):
        with pytest.raises(SpecError):
            check(bad)
