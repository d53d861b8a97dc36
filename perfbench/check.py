"""Output checker: decides whether one CLI job's stdout is correct.

Every figure is compared with the closed form sin^2((2k+1) asin(sqrt(m/2^n)))
computed in ``workloads.p_marked``. ``check`` returns None for a correct
output and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import Job, p_marked

# Reports round to 6 decimals; a rounded value may sit 5e-7 from the truth.
ROUNDED_TOL = 2e-6
# Sums of up to 2m rounded probabilities or squared rounded amplitudes.
SUM_TOL = 1e-5
# Two-sided binomial tail below which a shot count is refused. A 3-sigma
# interval refuses about one correct histogram in 370, which over the
# hundreds of distinct sample jobs of a set of runs would fail correct code;
# 1e-9 sits beyond 6 sigma.
SHOT_TAIL = 1e-9

_STEP_LINE = re.compile(r"^step \d+  \[")


def expected_steps(job: Job) -> int:
    """Trace rows the CLI must render: one per run of equal step labels."""
    if job.command == "load":
        with open(job.circuit_file, encoding="utf-8") as fh:
            ops = [line.split("#", 1)[0].strip() for line in fh]
        ops = [op for op in ops if op]
        return sum(1 for i, op in enumerate(ops) if i == 0 or op != ops[i - 1])
    oracle = sum(1 + 2 * ("0" in bits) for bits in job.marked)
    return (job.style == "mcx-ancilla") + 1 + job.k * (oracle + 5)


def binomial_tail(count: int, shots: int, p: float) -> float:
    """min(P[X <= count], P[X >= count]) for X ~ Binomial(shots, p)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == round(shots * p) else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(shots + 1)

    def pmf(i: int) -> float:
        return math.exp(
            base - math.lgamma(i + 1) - math.lgamma(shots - i + 1) + i * log_p + (shots - i) * log_q
        )

    lower = sum(pmf(i) for i in range(count + 1))
    return min(lower, 1.0 - lower + pmf(count))


def _near(value: float, want: float, tol: float, what: str) -> str | None:
    if not abs(value - want) <= tol:
        return f"{what} = {value!r}, expected {want!r} within {tol}"
    return None


def _key_values(out: str, fmt: str) -> dict[str, str]:
    """`run` summary quantities from text (``key: value``) or csv output."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return {row[0]: row[1] for row in rows[1:] if len(row) == 2}
    pairs = (line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def _check_run(job: Job, out: str, want: float) -> str | None:
    if job.fmt == "json":
        doc = json.loads(out)
        summary = doc["rows"][0]
        total, residual = summary["p_marked_total"], summary["plane"]["residual_norm"]
        formula = summary["p_marked_formula"]
    else:
        kv = _key_values(out, job.fmt)
        total, residual = float(kv["p_marked_total"]), float(kv["residual_norm"])
        formula = float(kv["p_marked_formula"])
    return (
        _near(total, want, ROUNDED_TOL, "p_marked_total")
        or _near(formula, want, ROUNDED_TOL, "p_marked_formula")
        or _near(residual, 0.0, ROUNDED_TOL, "residual_norm")
    )


def _check_sweep(job: Job, out: str) -> str | None:
    if job.fmt == "json":
        rows = [(r["k"], r["p_marked_sim"], r["p_marked_formula"]) for r in json.loads(out)["rows"]]
    elif job.fmt == "csv":
        table = list(csv.reader(io.StringIO(out)))[1:]
        rows = [(int(r[0]), float(r[2]), float(r[3])) for r in table]
    else:
        table = [line.split() for line in out.splitlines()[1:]]
        rows = [(int(r[0]), float(r[2]), float(r[3])) for r in table]
    if [r[0] for r in rows] != list(range(job.k + 1)):
        return f"sweep rows cover k={[r[0] for r in rows]}, expected 0..{job.k}"
    for k, sim, formula in rows:
        want = p_marked(job.n, job.m, k)
        reason = _near(sim, want, ROUNDED_TOL, f"k={k} p_marked_sim") or _near(
            formula, want, ROUNDED_TOL, f"k={k} p_marked_formula"
        )
        if reason:
            return reason
    return None


def _check_sample(job: Job, out: str, want: float) -> str | None:
    if job.fmt == "json":
        counts = {r["bitstring"]: r["count"] for r in json.loads(out)["rows"]}
    elif job.fmt == "csv":
        counts = {r[0]: int(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]}
    else:
        lines = [line.split() for line in out.splitlines()]
        counts = {r[0]: int(r[1]) for r in lines if len(r) == 2 and not r[0].endswith(":")}
    if sum(counts.values()) != job.shots:
        return f"sample counts sum to {sum(counts.values())}, expected {job.shots} shots"
    if any(len(bits) != job.n or set(bits) - {"0", "1"} for bits in counts):
        return "sample keys are not data-register bitstrings"
    hits = sum(counts.get(bits, 0) for bits in job.marked)
    tail = binomial_tail(hits, job.shots, want)
    if tail < SHOT_TAIL:
        return f"{hits} of {job.shots} shots marked, tail probability {tail:.2e} at p={want:.3e}"
    return None


def _trace_summary(job: Job, out: str) -> tuple[int, float]:
    """(rendered trace steps, final marked-set probability) of a traced job."""
    marked = set(job.marked)
    if job.fmt == "json":
        doc = json.loads(out)
        steps = len(doc["rows"])
        if job.command == "run":
            return steps, doc["summary"]["p_marked_total"]
        return steps, sum(r["p"] for r in doc["summary"] if r["bitstring"][: job.n] in marked)
    if job.fmt == "csv":
        table = list(csv.reader(io.StringIO(out)))[1:]
        last = table[-1][0]
        final = (r for r in table if r[0] == last)
        prob = sum(float(r[3]) ** 2 + float(r[4]) ** 2 for r in final if r[2][: job.n] in marked)
        return len({r[0] for r in table}), prob
    lines = out.splitlines()
    steps = sum(1 for line in lines if _STEP_LINE.match(line))
    if job.command == "run":
        return steps, float(_key_values(out, "text")["p_marked_total"])
    prob = 0.0
    for line in lines:
        if line.startswith("p(") and line[2 : 2 + job.n] in marked:
            prob += float(line.split(": ", 1)[1])
    return steps, prob


def _check_trace(job: Job, out: str, want: float) -> str | None:
    steps, prob = _trace_summary(job, out)
    if steps != expected_steps(job):
        return f"trace has {steps} steps, expected {expected_steps(job)} label groups"
    return _near(prob, want, SUM_TOL, "final marked probability")


def check(job: Job, exit_code: int, out: str) -> str | None:
    """None when the job exited 0 and its output agrees with the closed form."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    want = p_marked(job.n, job.m, job.k)
    try:
        if job.trace:
            return _check_trace(job, out, want)
        if job.command == "run":
            return _check_run(job, out, want)
        if job.command == "sweep":
            return _check_sweep(job, out)
        if job.command == "sample":
            return _check_sample(job, out, want)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unparsable {job.fmt} output: {type(err).__name__}: {err}"
    return f"no check for command {job.command!r}"
