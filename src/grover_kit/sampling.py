"""Seeded projective measurement of final states into shot histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from grover_kit.statevector import SpecError, StateVector, index_to_bitstring

MAX_SEED = (1 << 64) - 1
# measure_all holds about 16 bytes per shot (draws, outcomes): 17 MiB at 2^20.
MAX_SHOTS = 1 << 20


def check_shots_and_seed(shots: int, seed: int) -> None:
    """Raise SpecError("shots") or SpecError("seed") unless measure_all accepts both."""
    if not 1 <= shots <= MAX_SHOTS:
        raise SpecError("shots", f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if not 0 <= seed <= MAX_SEED:
        raise SpecError("seed", f"seed must be a 64-bit non-negative integer, got {seed}")


@dataclass(frozen=True)
class Histogram:
    """Measurement outcome counts for a fixed (state, shots, seed) triple.

    Keys are msb-first bitstrings over every qubit of the measured state;
    counts sum to shots. Entries are ordered by descending count, ties lexicographic.
    """

    shots: int
    seed: int
    counts: dict[str, int]


def measure_all(state: StateVector, shots: int, seed: int) -> Histogram:
    """Draw `shots` outcomes from |amps[i]|^2 with a fixed-seed generator.

    Identical (state, shots, seed) triples give identical histograms within
    one build of this package; cross-version bit-compatibility is not
    promised, so tests should assert statistical intervals, not counts.

    Every qubit of `state` is measured and appears in the keys. Sampling
    is inverse-CDF: one uniform draw per shot, binary-searched against the
    cumulative distribution. That distribution is divided by its own total,
    so a norm that rounds below 1 cannot send a draw to an outcome of
    probability 0.
    """
    check_shots_and_seed(shots, seed)
    cdf = np.cumsum(state.probabilities())
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    outcomes = np.searchsorted(cdf, draws, side="right")
    n = state.n_qubits
    # A fixed tally length per width: a varying one raised peak RSS up to 10% over repeated samples.
    tallies = np.bincount(outcomes, minlength=1 << n)
    pairs = [(index_to_bitstring(int(i), n), int(tallies[i])) for i in np.flatnonzero(tallies)]
    pairs.sort(key=lambda kv: (-kv[1], kv[0]))
    return Histogram(shots=shots, seed=seed, counts=dict(pairs))


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
