from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_kit import sampling
from grover_kit.circuit import build_grover_circuit, grover_data_state, run
from grover_kit.geometry import strip_ancilla
from grover_kit.sampling import binomial_interval, measure_all
from grover_kit.spec import GroverSpec, OracleStyle, predicted_success
from grover_kit.statevector import StateVector, ket


def final_state(n, marked, k, style=OracleStyle.MCZ_DIRECT):
    return run(build_grover_circuit(GroverSpec(n, marked, k, style)))


def test_deterministic_for_fixed_seed():
    state = final_state(5, ("10100",), 1)
    a = measure_all(state, 1024, 7)
    b = measure_all(state, 1024, 7)
    assert a == b
    c = measure_all(state, 1024, 8)
    assert a.counts != c.counts


def test_counts_sum_and_key_width():
    state = final_state(3, ("001",), 1)
    hist = measure_all(state, 500, 1)
    assert sum(hist.counts.values()) == 500
    assert all(len(k) == 3 for k in hist.counts)
    assert hist.shots == 500 and hist.seed == 1


def test_entries_sorted_by_count_then_key():
    state = final_state(5, ("10100",), 1)
    hist = measure_all(state, 2048, 3)
    entries = list(hist.counts.items())
    for (ka, ca), (kb, cb) in zip(entries, entries[1:]):
        assert (ca > cb) or (ca == cb and ka < kb)


def test_deterministic_state_puts_all_shots_on_it():
    hist = measure_all(ket("01"), 64, 123)
    assert hist.counts == {"01": 64}


def test_ancilla_marginalized_from_keys():
    data = ket("01")
    full = StateVector(3, np.kron(data.amps, ket("m").amps))
    hist = measure_all(strip_ancilla(full), 256, 5)
    assert hist.counts == {"01": 256}


def test_marginalization_keeps_distribution():
    state = final_state(3, ("001",), 1, OracleStyle.MCX_ANCILLA)
    hist = measure_all(strip_ancilla(state), 4096, 11)
    assert all(len(k) == 3 for k in hist.counts)
    lo, hi = binomial_interval(predicted_success(3, 1, 1), 4096, 4.0)
    assert lo <= hist.counts["001"] <= hi


def test_measure_all_validation():
    state = ket("00")
    with pytest.raises(ValueError):
        measure_all(state, 0, 1)
    with pytest.raises(ValueError):
        measure_all(state, 10, -1)
    with pytest.raises(ValueError):
        measure_all(state, 10, 1 << 64)


def test_convergence_to_closed_form():
    # z=4 keeps the false-failure rate of this test near 6e-5 per run
    state = final_state(5, ("10100",), 1)
    hist = measure_all(state, 100_000, 42)
    lo, hi = binomial_interval(529 / 2048, 100_000, 4.0)
    assert lo <= hist.counts["10100"] <= hi


def test_single_qubit_marginal():
    state = ket("ppp")
    hist = measure_all(state, 4096, 9)
    ones_on_qubit0 = sum(c for bits, c in hist.counts.items() if bits[0] == "1")
    lo, hi = binomial_interval(0.5, 4096, 4.0)
    assert lo <= ones_on_qubit0 <= hi


def test_binomial_interval_examples():
    assert binomial_interval(0.2583, 1024, 3.0) == (222, 307)
    assert binomial_interval(529 / 2048, 1024, 3.0) == (222, 307)
    assert binomial_interval(1.0, 500, 3.0) == (500, 500)
    assert binomial_interval(0.0, 500, 3.0) == (0, 0)


def test_binomial_interval_clamps():
    lo, hi = binomial_interval(0.01, 10, 3.0)
    assert lo == 0
    lo2, hi2 = binomial_interval(0.99, 10, 3.0)
    assert hi2 == 10


def test_binomial_interval_validation():
    with pytest.raises(ValueError):
        binomial_interval(1.5, 100, 3.0)
    with pytest.raises(ValueError):
        binomial_interval(0.5, 0, 3.0)
    with pytest.raises(ValueError):
        binomial_interval(0.5, 100, 0.0)


class FixedDraws:
    """Stands in for the generator: returns the given draws, cycled to `shots`."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, shots):
        return np.resize(self.draws, shots)


@given(
    st.integers(1, 4)
    .flatmap(lambda n: st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1 << n, max_size=1 << n))
    .filter(any),
    st.floats(0.0, 1e-10),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8),
)
@example([0.5, 0.5, 0.0, 0.0], 1e-12, [])
@settings(max_examples=200, deadline=None)
def test_zero_probability_outcome_is_never_sampled(weights, deficit, draws):
    # The norm may fall short of 1 by rounding; the draws closest to 0 and
    # to 1 must still land on outcomes that have probability.
    n = len(weights).bit_length() - 1
    weights = np.array(weights)
    probs = weights / weights.sum() * (1.0 - deficit)
    state = StateVector(n, np.sqrt(probs))
    fixed = FixedDraws([0.0, np.nextafter(1.0, 0.0), *draws])
    with mock.patch.object(np.random, "default_rng", lambda seed: fixed):
        hist = measure_all(state, len(fixed.draws), 0)
    assert all(state.probability(bits) > 0.0 for bits in hist.counts)


def reference_counts(state, shots, seed):
    """The bincount-and-sort measure_all: a 2^n tally, then a sort of (bitstring, count)
    pairs by descending count, ties lexicographic."""
    cdf = np.cumsum(state.probabilities())
    cdf /= cdf[-1]
    outcomes = np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right")
    n = state.n_qubits
    tallies = np.bincount(outcomes, minlength=1 << n)
    pairs = [(format(int(i), f"0{n}b"), int(tallies[i])) for i in np.flatnonzero(tallies)]
    pairs.sort(key=lambda kv: (-kv[1], kv[0]))
    return dict(pairs)


@st.composite
def sampled_states(draw):
    """A Grover data state, or a random normalized state with some entries exactly 0."""
    n = draw(st.integers(1, 10))
    dim = 1 << n
    if draw(st.booleans()):
        indices = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=min(8, dim - 1),
                                unique=True))
        marked = tuple(format(i, f"0{n}b") for i in indices)
        k = draw(st.integers(0, 0 if n == 1 else 20))  # one qubit admits no iteration
        return grover_data_state(GroverSpec(n, marked, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps[rng.random(dim) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0.0
    amps[rng.integers(dim)] = 1.0  # at least one outcome has probability
    return StateVector(n, amps / np.linalg.norm(amps))


@given(sampled_states(), st.integers(1, 4096), st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
def test_histogram_matches_the_bincount_reference(state, shots, seed):
    hist = measure_all(state, shots, seed)
    want = reference_counts(state, shots, seed)
    assert list(hist.counts.items()) == list(want.items())
    assert int(hist.tallies.sum()) == shots
    assert np.all(state.probabilities()[hist.outcomes] > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
def test_runs_match_unique(values):
    """The tally counts the runs of sorted outcomes as np.unique counts them, dtypes too."""
    located = np.sort(np.array(values, dtype=np.intp))
    want = np.unique(located, return_counts=True)
    got = sampling._runs(located)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
