"""Job lists for the three benchmark workloads.

A workload is one cycle of CLI jobs that the benchmark repeats. The cells of
a cycle (command, n, m, k, style, output format, shot count) are fixed, so
every seed asks for the same amount of work and the figures of two seeds can
be compared. The seed draws the rest: the marked strings (with a fixed number
of zeros) and the shot seeds.

Closed forms are computed here from scratch, never by calling the package,
so that the checker does not trust the code it checks.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

STYLES = ("mcz", "mcx-ancilla")
FORMATS = ("text", "json", "csv")
MAX_SWEEP_K = 64
SHOTS = 4000


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must show."""

    command: str
    n: int
    marked: tuple[str, ...]
    k: int
    style: str
    fmt: str
    shots: int = 0
    shot_seed: int = 0
    trace: bool = False
    circuit_file: str = ""

    @property
    def m(self) -> int:
        return len(self.marked)

    @property
    def width(self) -> int:
        """Wire count of the compiled circuit."""
        return self.n + (self.style == "mcx-ancilla")

    def argv(self) -> list[str]:
        if self.command == "load":
            return ["load", "--file", self.circuit_file, "--trace", "--format", self.fmt]
        argv = [self.command, "--n", str(self.n), "--marked", *self.marked, "--style", self.style]
        if self.command == "sweep":
            argv += ["--kmax", str(self.k)]
        else:
            argv += ["--iterations", str(self.k)]
        if self.command == "sample":
            argv += ["--shots", str(self.shots), "--seed", str(self.shot_seed)]
        if self.trace:
            argv.append("--trace")
        return argv + ["--format", self.fmt]

    def dump_argv(self, path: str) -> list[str]:
        """The ``dump`` command that writes this job's circuit for ``load``."""
        return [
            "dump", "--n", str(self.n), "--marked", *self.marked,
            "--iterations", str(self.k), "--style", self.style, "--out", path,
        ]


def p_marked(n: int, m: int, k: int) -> float:
    """sin^2((2k+1) asin(sqrt(m/2^n))), the marked-set probability after k iterations."""
    return math.sin((2 * k + 1) * math.asin(math.sqrt(m / (1 << n)))) ** 2


def optimal_k(n: int, m: int) -> int:
    theta = math.asin(math.sqrt(m / (1 << n)))
    center = round(math.pi / (4 * theta) - 0.5)
    return max(range(max(0, center - 1), center + 2), key=lambda k: (p_marked(n, m, k), -k))


def _marked(rng: random.Random, n: int, m: int) -> tuple[str, ...]:
    """m distinct strings with n//2 zeros each.

    The oracle spends two X gates per zero, so a fixed zero count makes the
    gate count of a cell the same for every seed.
    """
    strings: set[str] = set()
    while len(strings) < m:
        zeros = set(rng.sample(range(n), n // 2))
        strings.add("".join("0" if q in zeros else "1" for q in range(n)))
    return tuple(sorted(strings))


def _deep(rng: random.Random) -> list[Job]:
    jobs = []
    for n in range(9, 14):
        for m in (1, 2, 4):
            for style in STYLES:
                fmt = FORMATS[len(jobs) % 3]
                jobs.append(Job("run", n, _marked(rng, n, m), optimal_k(n, m), style, fmt))
        # Two sweeps per n, one per style, rotating m so each m is swept.
        for style, m in zip(STYLES, ((1, 2, 4)[n % 3], (2, 4, 1)[n % 3])):
            k = min(optimal_k(n, m), MAX_SWEEP_K)
            jobs.append(Job("sweep", n, _marked(rng, n, m), k, style, FORMATS[len(jobs) % 3]))
    return jobs


def _wide(rng: random.Random) -> list[Job]:
    jobs = []
    for n in range(15, 21):
        m = (1, 2, 4)[n % 3]
        # The 21-wire ancilla job alone would take a third of a cycle.
        for style in STYLES if n < 20 else ("mcz",):
            fmt = FORMATS[len(jobs) % 3]
            jobs.append(Job("run", n, _marked(rng, n, m), 1, style, fmt))
            jobs.append(
                Job(
                    "sample", n, _marked(rng, n, m), 1, style, fmt,
                    shots=SHOTS, shot_seed=rng.randrange(1 << 32),
                )
            )
    return jobs


def _report(rng: random.Random, tmpdir: str) -> list[Job]:
    jobs = []
    for n in range(6, 11):
        for i, (style, fmt) in enumerate((s, f) for s in STYLES for f in FORMATS):
            # Commands alternate; k rotates with n so each n sees k=1..4.
            k = 1 + (n + i) % 4
            m = 1 + (i // 2) % 2
            marked = _marked(rng, n, m)
            if i % 2 == 0:
                jobs.append(Job("run", n, marked, k, style, fmt, trace=True))
            else:
                path = os.path.join(tmpdir, f"n{n}-{style}-{fmt}.txt")
                jobs.append(Job("load", n, marked, k, style, fmt, trace=True, circuit_file=path))
    return jobs


def make_jobs(workload: str, seed: int, tmpdir: str) -> list[Job]:
    """The seeded cycle of jobs for one workload, in a fixed cell order.

    The order is not shuffled: which jobs run before the largest one shapes
    the heap, and with it the peak RSS.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report":
        return _report(rng, tmpdir)
    return {"deep": _deep, "wide": _wide}[workload](rng)
