"""Problem specs, argument checks and the closed form, with no numpy import.

`predict` and the CLI's argument validation need only these, so a process
that uses nothing else starts without loading numpy. Each name has its one
home here: the simulation modules import it, and none re-exports it.

Closed form: with theta_sin = arcsin(sqrt(m/2^n)), the probability of
landing in the marked set after k iterations is sin^2((2k+1)*theta_sin).
The complementary convention theta_cos = arccos(sqrt(m/2^n)) is carried
alongside because sweep tables are often written in terms of it.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

MAX_QUBITS = 26
# Covers the optimal k of every allowed width: optimal_iterations(26, 1) is 6433.
MAX_ITERATIONS = 8192
# Rows of a sweep table: k = 0..MAX_REPORT_ITERATIONS.
MAX_REPORT_ITERATIONS = 64
MAX_SEED = (1 << 64) - 1
# `sample` holds no float per amplitude: about 150 bytes per marked string (the pieces of its
# running sum, about 3 per string) and about 25 bytes per shot (the draws, their outcomes and
# their run lengths), a 25 MiB tracemalloc peak at n=20 and 2^20 shots. The CLI
# renders a histogram in blocks of rows, in its own order at --bit-order msb and ranked once
# at lsb, so `sample --n 20 --iterations 0 --shots 2^20 --format json` (662,466 distinct
# outcomes) took 0.38-0.44 s (msb) and 0.76-0.79 s (lsb) with a 100 MiB peak RSS on a
# 2-vCPU machine.
MAX_SHOTS = 1 << 20


class SpecError(ValueError):
    """An argument fails validation; `field` names it: a GroverSpec field, a parameter, or
    one of the CLI-only values ``trace``, ``file``, ``out`` and ``precision``. The CLI maps
    each field to the flag that supplied it and exits 2."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _is_int(value) -> bool:
    """An int or numpy integer (numpy registers its integer types as Integral), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_n_qubits(n_qubits, ancillas: int = 0) -> None:
    """Raise SpecError("n_qubits") unless `n_qubits` is an integer (not a bool) in
    1..MAX_QUBITS that leaves room for `ancillas` more wires."""
    if not (_is_int(n_qubits) and 1 <= n_qubits <= MAX_QUBITS - ancillas):
        limit = f"1..{MAX_QUBITS - ancillas}" + (f" (plus {ancillas} ancilla)" if ancillas else "")
        raise SpecError("n_qubits", f"n_qubits must be an integer in {limit}, got {n_qubits!r}")


def check_iterations(k) -> None:
    """Raise SpecError("iterations") unless `k` is an integer (not a bool) in 0..MAX_ITERATIONS."""
    if not (_is_int(k) and 0 <= k <= MAX_ITERATIONS):
        raise SpecError(
            "iterations", f"iterations must be an integer in 0..{MAX_ITERATIONS}, got {k!r}"
        )


def check_shots_and_seed(shots: int, seed: int) -> None:
    """Raise SpecError("shots") or SpecError("seed") unless sampling accepts both."""
    if not 1 <= shots <= MAX_SHOTS:
        raise SpecError("shots", f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if not 0 <= seed <= MAX_SEED:
        raise SpecError("seed", f"seed must be a 64-bit non-negative integer, got {seed}")


class OracleStyle(enum.Enum):
    MCZ_DIRECT = "mcz"
    MCX_ANCILLA = "mcx_ancilla"


@dataclass(frozen=True)
class GroverSpec:
    """Problem statement: search width, marked bitstrings, iteration count, style.

    `marked` is normalized to a tuple sorted by index. With `mcx_ancilla` the
    compiled circuits have n_qubits + 1 wires and the ancilla is the last one.
    """

    n_qubits: int
    marked: tuple[str, ...]
    iterations: int
    style: OracleStyle = OracleStyle.MCZ_DIRECT

    def __post_init__(self):
        if not isinstance(self.style, OracleStyle):
            raise SpecError("style", f"style must be an OracleStyle, got {self.style!r}")
        check_n_qubits(self.n_qubits, ancillas=int(self.style is OracleStyle.MCX_ANCILLA))
        marked = tuple(self.marked) if not isinstance(self.marked, str) else (self.marked,)
        for bits in marked:
            if len(bits) != self.n_qubits or any(ch not in "01" for ch in bits):
                raise SpecError(
                    "marked", f"marked string {bits!r} is not a bitstring of length {self.n_qubits}"
                )
        if len(set(marked)) != len(marked):
            raise SpecError("marked", f"duplicate marked strings in {marked}")
        if not 1 <= len(marked) < (1 << self.n_qubits):
            count = f"got {len(marked)} for n={self.n_qubits}"
            raise SpecError("marked", f"need between 1 and 2^n - 1 marked strings, {count}")
        object.__setattr__(self, "marked", tuple(sorted(marked, key=lambda b: int(b, 2))))
        check_iterations(self.iterations)
        if self.iterations >= 1 and self.n_qubits < 2:
            raise SpecError("n_qubits", "amplification needs at least 2 data qubits")

    @property
    def n_marked(self) -> int:
        return len(self.marked)

    @property
    def circuit_qubits(self) -> int:
        """Wire count of compiled circuits: n_qubits, plus 1 for the ancilla style."""
        extra = 1 if self.style is OracleStyle.MCX_ANCILLA else 0
        return self.n_qubits + extra


def check_k_max(spec: GroverSpec, k_max) -> GroverSpec:
    """`spec` at `k_max` iterations, if it can be swept to row `k_max`; else raise SpecError:
    "k_max" unless it is in 0..MAX_REPORT_ITERATIONS, then as GroverSpec refuses k_max
    iterations (n=1 refuses k >= 1). A spec already at k_max iterations is returned as it is."""
    if not 0 <= k_max <= MAX_REPORT_ITERATIONS:
        raise SpecError("k_max", f"k_max must be in 0..{MAX_REPORT_ITERATIONS}, got {k_max}")
    return spec if spec.iterations == k_max else replace(spec, iterations=k_max)


@dataclass(frozen=True)
class GroverAngles:
    """Both angle conventions for an (n, m) search instance.

    theta_sin satisfies sin(theta_sin) = sqrt(m/2^n); theta_cos is the
    complement with cos(theta_cos) = sqrt(m/2^n). They sum to pi/2.
    """

    theta_sin: float
    theta_cos: float
    m: int
    n: int


def grover_angles(n_qubits: int, m: int) -> GroverAngles:
    """Rotation angles for m marked strings out of 2^n_qubits."""
    if not 1 <= m < (1 << n_qubits):
        raise SpecError("m", f"marked count must be in 1..2^{n_qubits} - 1, got {m}")
    ratio = math.sqrt(m / (1 << n_qubits))
    return GroverAngles(
        theta_sin=math.asin(ratio), theta_cos=math.acos(ratio), m=m, n=n_qubits
    )


def predicted_success(n_qubits: int, m: int, iterations: int) -> float:
    """Closed-form probability of the marked set after `iterations` steps (0..MAX_ITERATIONS)."""
    check_iterations(iterations)
    theta = grover_angles(n_qubits, m).theta_sin
    return math.sin((2 * iterations + 1) * theta) ** 2


def p_each_unmarked(n_qubits: int, m: int, iterations: int) -> float:
    """Closed-form probability of each individual unmarked string."""
    return (1.0 - predicted_success(n_qubits, m, iterations)) / ((1 << n_qubits) - m)


def optimal_iterations(n_qubits: int, m: int) -> int:
    """Iteration count maximizing predicted_success.

    Evaluates round(pi/(4*theta) - 1/2) and both neighbors rather than
    trusting the rounding alone, which misses by one for very small n.
    Smallest k wins ties.
    """
    theta = grover_angles(n_qubits, m).theta_sin
    center = round(math.pi / (4.0 * theta) - 0.5)
    candidates = sorted({max(0, center - 1), max(0, center), max(0, center + 1)})
    return max(candidates, key=lambda k: (predicted_success(n_qubits, m, k), -k))
