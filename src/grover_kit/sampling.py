"""Seeded projective measurement of final states into shot histograms.

`measure_all` measures a given state: it writes the outcome probabilities
and their running sum into one float buffer and binary-searches it. That
is the reference. `sample_grover` measures a Grover spec's data register
from its two amplitudes and holds no 2^n buffer: `running_sums` keeps the
same running sum as arithmetic progressions, one kind of piece, and
`RunningSums.outcomes` finds the outcome each draw finds in the buffer.
Both draw and tally with `_tally`, so they give the same histogram bit for
bit.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass

import numpy as np

from grover_kit.circuit import grover_pair
from grover_kit.spec import GroverSpec, check_shots_and_seed
from grover_kit.statevector import StateVector, bitstrings


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
    probs = np.abs(state.amps)  # |a|^2 overwrites |a| in place
    return _draw(np.square(probs, out=probs), shots, seed, state.n_qubits)


def sample_grover(spec: GroverSpec, shots: int, seed: int) -> Histogram:
    """`measure_all(grover_data_state(spec), shots, seed)`, with no state and no 2^n buffer.

    The outcome probabilities are a*a with a = |u/sqrt(N)| everywhere, and
    b*b with b = |v/sqrt(N)| at the marked indices: the floats that
    measure_all takes from the written state. `running_sums` gives their
    running sum bit for bit, so the histogram is the same. `grover_pair`
    checks the pair's norm.
    """
    check_shots_and_seed(shots, seed)
    v, u = grover_pair(spec)
    root = math.sqrt(1 << spec.n_qubits)
    a, b = abs(u / root), abs(v / root)
    marked = np.array([int(bits, 2) for bits in spec.marked], dtype=np.int64)
    sums = running_sums(1 << spec.n_qubits, marked, a * a, b * b)
    return _tally(sums.outcomes, shots, seed, spec.n_qubits)


def _draw(probs: np.ndarray, shots: int, seed: int, n_qubits: int) -> Histogram:
    """Draw `shots` outcomes from `probs`, a float64 buffer that its running sum overwrites."""
    cdf = np.cumsum(probs, out=probs)
    cdf /= cdf[-1]
    return _tally(lambda draws: np.searchsorted(cdf, draws, side="right"), shots, seed, n_qubits)


def _tally(locate, shots: int, seed: int, n_qubits: int) -> Histogram:
    """Draw `shots` uniforms from `default_rng(seed)`, sorted, map them to outcome indices
    with `locate` and count them."""
    # Sorting gives the same tallies; each search starts where the last ended, 2.7x faster at
    # n=20. Sorted draws find sorted indices, so each outcome is one run of them.
    outcomes, tallies = _runs(locate(np.sort(np.random.default_rng(seed).random(shots))))
    order = np.argsort(-tallies, kind="stable")  # the runs are in index order, so ties keep it
    return Histogram(shots, seed, n_qubits, outcomes[order], tallies[order])


def _runs(located: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(located, return_counts=True)`` of sorted `located`, from its runs' lengths."""
    starts = np.ones(len(located) + 1, dtype=bool)  # where a run starts, and the end of the last
    np.not_equal(located[1:], located[:-1], out=starts[1:-1])
    runs = np.flatnonzero(starts)
    return located[runs[:-1]], np.diff(runs)


@dataclass(frozen=True, eq=False)
class RunningSums:
    """np.cumsum of a distribution, in pieces that cover the indices in order.

    Piece i covers `length[i]` indices from `start[i]` and holds first[i] + j*step[i] at
    its j-th index; every such value is a float, so the product and the sum are exact.
    A marked index is a one-index piece of step 0. `total` is the last sum.
    """

    start: np.ndarray
    length: np.ndarray
    first: np.ndarray
    step: np.ndarray
    total: float

    def outcomes(self, draws: np.ndarray) -> np.ndarray:
        """``searchsorted(cumsum / total, draws, side="right")`` for sorted draws in [0, 1).

        Each cdf value is the same float division of the same sum, compared
        with ``<=`` as searchsorted does.
        """
        last = (self.first + (self.length - 1) * self.step) / self.total
        at = np.empty(len(draws), dtype=np.int64)
        for block in range(0, len(draws), _DRAW_BLOCK):
            at[block:block + _DRAW_BLOCK] = self._locate(last, draws[block:block + _DRAW_BLOCK])
        return at

    def _locate(self, last: np.ndarray, u: np.ndarray) -> np.ndarray:
        """`outcomes` of sorted draws u, given each piece's last cdf value."""
        piece = np.searchsorted(last, u, side="right")  # the first piece that ends above u
        at = self.start[piece]
        walked = self.step[piece] > 0.0  # a step-0 piece lies wholly above u: j = 0
        if walked.any():
            piece = piece[walked]
            at[walked] += _progression_index(
                self.first[piece], self.step[piece], self.length[piece] - 1, self.total, u[walked]
            )
        return at


# Draws that `RunningSums.outcomes` locates at a time: its temporaries take about 100 B per
# draw, so a block holds them under 8 MiB at any shot count.
_DRAW_BLOCK = 1 << 16


def _progression_index(first, step, last, total, u):
    """The least j in [0, last] with (first + j*step)/total > u, which holds at j = last.

    The estimate from step and total is checked at itself and its left neighbour; where
    it misses (a cdf flat over many j, where step/total is under half an ulp), a
    bisection searches the side it missed towards.
    """
    j = np.clip(np.floor((u * total - first) / step) + 1, 0, last).astype(np.int64)
    at = first + j * step
    above = at / total > u
    at -= step
    left = (j > 0) & (at / total > u)  # the left neighbour is above too
    miss = np.flatnonzero(left | ~above)
    if miss.size:
        first, step, u = first[miss], step[miss], u[miss]
        lo = np.where(left[miss], 0, j[miss] + 1)
        hi = np.where(left[miss], j[miss] - 1, last[miss])
        todo = np.flatnonzero(lo < hi)
        while todo.size:
            mid = (lo[todo] + hi[todo]) // 2
            up = (first[todo] + mid * step[todo]) / total > u[todo]
            hi[todo] = np.where(up, mid, hi[todo])
            lo[todo] = np.where(up, lo[todo], mid + 1)
            todo = todo[lo[todo] < hi[todo]]
        j[miss] = lo
    return j


def running_sums(dim: int, marked: np.ndarray, q: float, r: float) -> RunningSums:
    """np.cumsum of p, with p[i] = r at the `marked` indices (distinct, at least one) and q
    at the other dim - len(marked), bit for bit and in O(len(marked) + log(dim)) memory.

    np.cumsum is a left fold, c[i] = fl(c[i-1] + p[i]). Each unmarked run is walked
    (`_walk`), and each marked index takes its one add as a one-index piece. That is about
    3 pieces per marked index, plus a few per binade the sums cross: 49,228 pieces for
    16,401 indices 1,023 apart at n=24 and k=3, 77 for one index at n=26 and k=6433.
    """
    pieces = array.array("d")  # (start, length, first, step) per piece
    carry, begin = 0.0, 0
    for i in np.sort(marked).tolist():
        carry = _walk(carry, q, begin, i, pieces) + r
        pieces.extend((i, 1, carry, 0.0))
        begin = i + 1
    carry = _walk(carry, q, begin, dim, pieces)
    start, length, first, step = np.frombuffer(pieces).reshape(-1, 4).T
    return RunningSums(start.astype(np.int64), length.astype(np.int64), first, step, carry)


def _walk(x: float, q: float, begin: int, end: int, pieces: array.array) -> float:
    """Append the pieces of the sums x + q, (x + q) + q, ... at indices begin..end-1 to
    `pieces`, and return the last (x if begin == end).

    In a binade [2^(e-1), 2^e) the floats are the multiples of one ulp, so adding q to
    a sum there moves it by a fixed number of ulps while it stays there, once one add has
    broken a tie to even. So the step is taken from the second add whose operand lies in
    the binade (the add that enters it may round differently), and every later sum in the
    binade is first + j*step.
    """
    e_before, e_x = None, (math.frexp(x)[1] if x else None)
    i = begin
    while i < end:
        y = x + q
        e_y = math.frexp(y)[1]
        if e_before == e_x == e_y:
            step = y - x
            count = end - i
            if step:  # the sums y + t*step below 2^e, in units of ulp 2^(e-53)
                gap = int(math.ldexp(math.ldexp(1.0, e_y) - y, 53 - e_y))
                count = min(count, -(-gap // int(math.ldexp(step, 53 - e_y))))
            pieces.extend((i, count, y, step))
            x = y + (count - 1) * step
            i += count
        else:
            pieces.extend((i, 1, y, 0.0))
            x, i = y, i + 1
            e_before, e_x = e_x, e_y
    return x


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
