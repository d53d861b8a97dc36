"""Tests of the benchmark's output checker.

Run from the repository root with ``python3 -m pytest perfbench/test_check.py``.
Real CLI outputs must pass; each corrupted output must count as a failed job.
"""

from __future__ import annotations

import io
import json
import re
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from check import binomial_tail, check, expected_steps  # noqa: E402
from workloads import Job, make_jobs, p_marked  # noqa: E402

from grover_kit import cli  # noqa: E402


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _bump_first(pattern: str, text: str) -> str:
    """Add 0.01 to the first number the pattern captures."""
    match = re.search(pattern, text, flags=re.MULTILINE)
    assert match, pattern
    value = float(match.group(1)) + 0.01
    return text[: match.start(1)] + f"{value:.6f}" + text[match.end(1) :]


def _drop_json_step(text: str) -> str:
    doc = json.loads(text)
    doc["rows"].pop()
    return json.dumps(doc)


def _drop_csv_step(text: str) -> str:
    lines = text.splitlines()
    last = lines[-1].split(",")[0]
    return "\n".join(line for line in lines if line.split(",")[0] != last) + "\n"


def _marked_to_half(job: Job, text: str) -> str:
    """Text sample output in which the marked string took half of the shots."""
    other = next(b for b in ("0" * job.n, "1" * job.n) if b not in job.marked)
    half = job.shots // 2
    lines = [f"shots: {job.shots}", f"seed: {job.shot_seed}", f"{job.marked[0]}  {half}"]
    return "\n".join(lines + [f"{other}  {job.shots - half}", ""])


def _bump(pattern: str):
    return lambda job, text: _bump_first(pattern, text)


CASES = [
    (Job("run", 7, ("0010110",), 2, "mcz", "json"), _bump(r'"p_marked_total": ([-0-9.e]+)')),
    (
        Job("run", 7, ("0010110", "1111111"), 3, "mcx-ancilla", "text"),
        _bump(r"^residual_norm: ([-0-9.]+)"),
    ),
    (Job("run", 6, ("010101",), 1, "mcz", "csv"), _bump(r"^p_marked_total,([-0-9.e]+)")),
    (
        Job("sweep", 6, ("000111", "101000"), 4, "mcx-ancilla", "text"),
        _bump(r"^  3 +[0-9.]+ +([0-9.]+)"),
    ),
    (Job("sweep", 6, ("000111",), 4, "mcz", "csv"), _bump(r"^2,[0-9.e-]+,([0-9.e-]+)")),
    (Job("sample", 8, ("10110001",), 1, "mcz", "text", shots=3000, shot_seed=7), _marked_to_half),
    (
        Job("run", 5, ("10100",), 2, "mcx-ancilla", "json", trace=True),
        lambda job, text: _drop_json_step(text),
    ),
    (
        Job("run", 5, ("10100", "00011"), 1, "mcz", "csv", trace=True),
        lambda job, text: _drop_csv_step(text),
    ),
    (
        Job("run", 4, ("0110",), 1, "mcz", "text", trace=True),
        lambda job, text: text.replace("step 3  [", "stop 3  ["),
    ),
]


@pytest.mark.parametrize("job, corrupt", CASES, ids=lambda c: getattr(c, "command", ""))
def test_real_output_passes_and_corrupted_output_fails(job, corrupt):
    out = cli_output(job.argv())
    assert check(job, 0, out) is None
    assert check(job, 0, corrupt(job, out)) is not None
    assert check(job, 1, out) == "exit code 1"


def test_load_trace_steps_follow_the_dumped_circuit(tmp_path):
    path = str(tmp_path / "c.txt")
    job = Job("load", 6, ("110010",), 2, "mcx-ancilla", "json", trace=True, circuit_file=path)
    cli_output(job.dump_argv(path))
    out = cli_output(job.argv())
    assert check(job, 0, out) is None
    assert len(json.loads(out)["rows"]) == expected_steps(job)
    assert check(job, 0, _drop_json_step(out)) is not None


def test_every_workload_job_passes_on_the_package(tmp_path):
    for workload in ("deep", "wide", "report"):
        jobs = make_jobs(workload, 3, str(tmp_path))
        assert jobs == make_jobs(workload, 3, str(tmp_path))
        for job in (j for j in jobs if j.n <= 12):
            if job.circuit_file:
                cli_output(job.dump_argv(job.circuit_file))
            assert check(job, 0, cli_output(job.argv())) is None, job


def test_client_counts_a_corrupted_job_as_failed():
    job, corrupt = CASES[0]

    def main(argv):
        print(corrupt(job, cli_output(argv)), end="")
        return 0

    client = run.Client(types.SimpleNamespace(main=main), [job])
    client.cycle()
    assert len(client.times) == 1
    assert len(client.failures) == 1 and "p_marked_total" in client.failures[0]

    honest = run.Client(cli, [job])
    honest.cycle()
    assert honest.failures == []


def test_binomial_tail_refuses_only_far_counts():
    p = p_marked(16, 1, 1)
    assert binomial_tail(0, 4000, p) > 0.1
    assert binomial_tail(3, 4000, p) > 1e-9
    assert binomial_tail(40, 4000, p) < 1e-9
