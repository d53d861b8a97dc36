"""Seeded projective measurement of final states into shot histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from grover_kit.spec import SpecError
from grover_kit.statevector import StateVector, bitstrings

MAX_SEED = (1 << 64) - 1
# measure_all holds one float per amplitude and about 40 bytes per shot (the draws, their
# outcomes and np.unique's sort): a 49 MiB tracemalloc peak at n=20 and 2^20 shots. The CLI
# renders a histogram in blocks of rows, so `sample --n 20 --iterations 0 --shots 2^20
# --format json` (662,466 distinct outcomes) took 1.2-1.4 s with a 100 MiB peak RSS on a
# 2-vCPU machine.
MAX_SHOTS = 1 << 20


def check_shots_and_seed(shots: int, seed: int) -> None:
    """Raise SpecError("shots") or SpecError("seed") unless measure_all accepts both."""
    if not 1 <= shots <= MAX_SHOTS:
        raise SpecError("shots", f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if not 0 <= seed <= MAX_SEED:
        raise SpecError("seed", f"seed must be a 64-bit non-negative integer, got {seed}")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Measurement outcome counts for a fixed (state, shots, seed) triple, as columns.

    `outcomes` holds the amplitude indices drawn at least once and `tallies` their counts,
    ordered by descending count, ties by index (which is msb-first lexicographic order).
    Tallies sum to shots.
    """

    shots: int
    seed: int
    n_qubits: int
    outcomes: np.ndarray
    tallies: np.ndarray

    @property
    def counts(self) -> dict[str, int]:
        """{msb-first bitstring over every qubit: count}, in the histogram's order."""
        keys = bitstrings(self.outcomes, self.n_qubits).astype(str).tolist()
        return dict(zip(keys, self.tallies.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            (self.shots, self.seed, self.n_qubits) == (other.shots, other.seed, other.n_qubits)
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.tallies, other.tallies)
        )


def measure_all(state: StateVector, shots: int, seed: int) -> Histogram:
    """Draw `shots` outcomes from |amps[i]|^2 with a fixed-seed generator.

    Identical (state, shots, seed) triples give identical histograms within
    one build of this package; cross-version bit-compatibility is not
    promised, so tests should assert statistical intervals, not counts.

    Every qubit of `state` is measured. Sampling is inverse-CDF: one uniform
    draw per shot, binary-searched against the cumulative distribution. That
    distribution is divided by its own total, so a norm that rounds below 1
    cannot send a draw to an outcome of probability 0. The outcomes are
    tallied by sorting the draws, so no 2^n-sized tally is built.
    """
    check_shots_and_seed(shots, seed)
    cdf = np.abs(state.amps)  # |a|^2 and then its running sum overwrite |a| in place
    np.cumsum(np.square(cdf, out=cdf), out=cdf)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    outcomes, tallies = np.unique(np.searchsorted(cdf, draws, side="right"), return_counts=True)
    order = np.argsort(-tallies, kind="stable")  # unique sorted the indices, so ties keep them
    return Histogram(shots, seed, state.n_qubits, outcomes[order], tallies[order])


def binomial_interval(p: float, shots: int, z: float = 3.0) -> tuple[int, int]:
    """[floor(mean - z*sigma), ceil(mean + z*sigma)] clamped to [0, shots]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not z > 0.0:
        raise ValueError(f"z must be > 0, got {z}")
    mean = shots * p
    sigma = math.sqrt(shots * p * (1.0 - p))
    lo = math.floor(mean - z * sigma)
    hi = math.ceil(mean + z * sigma)
    return max(0, lo), min(shots, hi)
