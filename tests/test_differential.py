"""The two-value executor against the gate path, dense matrices, the closed form and exact rationals.

The two-value executor replaces the compiled gates for untraced commands, so
`grover_data_state`, the state it writes, must agree with every other way of
computing the same state, and untraced `run` and `sample`, which read its two
values without writing the state, must agree with that state. Each pair has
its own tolerance, which grows with the iteration count k because rounding
accumulates once per iteration. The worst gaps measured over 3,200 random
specs drawn like `specs()` (n <= 10, any marked set for n <= 6 and up to 24
strings above, k <= 20, both styles), divided by k + 1, were:

* grover_data_state vs gate path, data register: 1.6e-15
* grover_data_state vs dense_unitary (n <= 8): 1.2e-15
* mcx_ancilla gate state vs grover_data_state (x) (|0>-|1>)/sqrt(2): 1.1e-15
* marked probability vs sin^2((2k+1)theta): 6.6e-16
* plane residual: 1.5e-15 (largest at k = 0, so plane_decompose's own
  rounding, not the executor's)
* plane_angle advance per iteration vs 2*theta (mod pi): 1.3e-15
* oblique_coords vs its closed form, times cos(theta): 1.5e-15 (40,000
  specs; the closed form divides by cos(theta))
* marked probability vs the exact rational recurrence: 1.1e-16 (6,000
  specs with n <= 14 and k <= 64)
* `grover_summary` vs `state_summary` of the written state: 2.7e-15 for
  a_unmarked, the residual, and c_p and c_r times cos(theta); 1.7e-16 for
  a_marked; the probabilities equal (3,000 specs with n <= 14, any m up to
  2^n - 1 and k <= 64; the largest gaps at m = 2^n - 1)

The tolerances below sit 3 to 9 times above those figures.

Untraced `sample` has no tolerance: `running_sums` must give every running
sum that np.cumsum gives over the written probabilities, bit for bit, and
`RunningSums.outcomes` every draw's searchsorted index.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grover_ops
from grover_kit import circuit, cli
from grover_kit.circuit import build_grover_circuit, dense_unitary, grover_data_state, run
from grover_kit.geometry import (
    data_state,
    grover_summary,
    iteration_report,
    oblique_coords,
    plane_angle,
    plane_decompose,
    state_summary,
)
from grover_kit.sampling import measure_all, running_sums, sample_grover
from grover_kit.spec import GroverSpec, OracleStyle, grover_angles, predicted_success
from grover_kit.statevector import StateVector

MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)


def amplitude_tol(k: int) -> float:
    """Largest entrywise gap allowed between two executors' states after k iterations."""
    return 1e-14 * (k + 1)


def exact_tol(k: int) -> float:
    """Gap allowed between a computed probability, residual or angle step and its exact value."""
    return 5e-15 * (k + 1)


@st.composite
def specs(draw, max_n: int = 10, max_k: int = 20) -> GroverSpec:
    """n <= max_n, a random set of marked strings, k <= max_k, either style.

    For n <= 6 the marked set has any size from 1 to 2^n - 1. Above that it
    is capped at 24 strings so that the gate path stays fast.
    """
    n = draw(st.integers(1, max_n))
    dim = 1 << n
    max_m = dim - 1 if n <= 6 else 24
    indices = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=max_m))
    k = draw(st.integers(0, max_k if n >= 2 else 0))
    style = draw(st.sampled_from(OracleStyle))
    return GroverSpec(n, tuple(format(i, f"0{n}b") for i in indices), k, style)


def exact_p_marked(n: int, m: int, k: int) -> Fraction:
    """The marked probability after k iterations, from the two-value recurrence in rationals."""
    dim = 1 << n
    v = u = Fraction(1)  # sqrt(N) times the marked and the unmarked amplitude
    for _ in range(k):
        v = -v
        d = 2 * (m * v + (dim - m) * u) / dim
        v, u = v - d, u - d
    return m * v * v / dim


@settings(max_examples=60, deadline=None)
@given(specs())
def test_fused_matches_gate_path(spec):
    fused = grover_data_state(spec)
    gate = run(build_grover_circuit(spec))
    tol = amplitude_tol(spec.iterations)
    assert np.max(np.abs(fused.amps - data_state(gate, spec).amps)) <= tol
    if spec.style is OracleStyle.MCX_ANCILLA:
        # The claim that lets the fused path skip the ancilla wire altogether.
        assert np.allclose(gate.amps, np.kron(fused.amps, MINUS), rtol=0.0, atol=tol)


@st.composite
def gate_circuits(draw) -> circuit.Circuit:
    """A spec's compiled circuit (n <= 10, k <= 4, either style) followed by up to 12 random
    H, X, Z, MCX and MCZ ops on its wires."""
    spec = draw(specs(max_k=4))
    width = spec.circuit_qubits
    extra = []
    for _ in range(draw(st.integers(0, 12))):
        wires = draw(st.permutations(range(width)))
        controls = wires[1:1 + draw(st.integers(0, width - 1))]
        kind = draw(st.sampled_from(("X", "Z") if controls else ("H", "X", "Z")))
        extra.append(circuit.Gate(kind, wires[0], tuple(controls)))
    return circuit.Circuit(width, build_grover_circuit(spec).ops + tuple(extra))


@settings(max_examples=100, deadline=None)
@given(gate_circuits())
def test_real_start_matches_complex_start(gates):
    """Every gate is real, so `run`'s float64 state is the complex128 state's real part, bit
    for bit but for the sign of a zero: a complex product adds the imaginary parts' 0 * 0,
    which can turn -0.0 into 0.0, and float == holds for either sign. No listing shows a
    zero, which is under the cutoff."""
    zero = np.zeros(1 << gates.n_qubits, dtype=np.complex128)
    zero[0] = 1.0
    real = run(gates)
    cplx = run(gates, StateVector(gates.n_qubits, zero))
    assert (real.amps.dtype, cplx.amps.dtype) == (np.float64, np.complex128)
    assert np.array_equal(real.amps, cplx.amps.real)
    assert not cplx.amps.imag.any()


@settings(max_examples=30, deadline=None)
@given(specs(max_n=8))
def test_fused_matches_dense_unitary(spec):
    prep = dense_unitary(build_grover_circuit(replace(spec, iterations=0)))
    amps = prep[:, 0]  # the preparation applied to |0...0>
    if spec.iterations:
        block = dense_unitary(grover_ops(spec))
        for _ in range(spec.iterations):
            amps = block @ amps
    dense = data_state(StateVector(spec.circuit_qubits, amps), spec)
    fused = grover_data_state(spec)
    assert np.max(np.abs(fused.amps - dense.amps)) <= amplitude_tol(spec.iterations)


@settings(max_examples=100, deadline=None)
@given(specs())
def test_fused_matches_closed_form_and_stays_in_plane(spec):
    n, m = spec.n_qubits, spec.n_marked
    theta = grover_angles(n, m).theta_sin
    previous = None
    for k in range(spec.iterations + 1):
        state = grover_data_state(replace(spec, iterations=k))
        p_sim = sum(state.probability(bits) for bits in spec.marked)
        assert abs(p_sim - predicted_success(n, m, k)) <= exact_tol(k)
        coords = plane_decompose(state, spec.marked)
        assert coords.residual_norm <= exact_tol(k)
        angle = plane_angle(coords)
        if previous is not None:
            gap = (angle - previous - 2.0 * theta) % math.pi
            assert min(gap, math.pi - gap) <= exact_tol(k)
        previous = angle


@settings(max_examples=200, deadline=None)
@given(specs(max_n=14, max_k=64))
def test_marked_probability_matches_exact_recurrence(spec):
    state = grover_data_state(spec)
    p_sim = sum(state.probability(bits) for bits in spec.marked)
    exact = exact_p_marked(spec.n_qubits, spec.n_marked, spec.iterations)
    assert abs(p_sim - exact) <= 5e-16 * (spec.iterations + 1)


@settings(max_examples=100, deadline=None)
@given(specs())
def test_oblique_coords_match_closed_form(spec):
    # After k iterations the state is (-1)^k (sin((2k+1)theta)|beta> + cos((2k+1)theta)|alpha>),
    # and |alpha> = (|uniform> - sin(theta)|beta>)/cos(theta).
    k = spec.iterations
    theta = grover_angles(spec.n_qubits, spec.n_marked).theta_sin
    sign, cos_theta = (-1) ** k, math.cos(theta)
    c_p, c_r = oblique_coords(grover_data_state(spec), spec.marked)
    tol = exact_tol(k) / cos_theta
    assert abs(c_p - sign * math.cos((2 * k + 1) * theta) / cos_theta) <= tol
    assert abs(c_r - sign * math.sin(2 * k * theta) / cos_theta) <= tol


@settings(max_examples=100, deadline=None)
@given(specs(max_k=64))
def test_sweep_rows_read_the_state_floats(spec):
    """Each sweep row reads the recurrence, not a state, yet gives the float that summing the
    materialized state's marked probabilities gives."""
    rows = iteration_report(spec, spec.iterations)
    for k, row in enumerate(rows):
        state = grover_data_state(replace(spec, iterations=k))
        assert row.p_marked_sim == sum(state.probability(bits) for bits in spec.marked)


@st.composite
def any_m_specs(draw, max_n: int = 14, max_k: int = 64) -> GroverSpec:
    """n <= max_n, any marked count m in 1..2^n - 1 at random indices, k <= max_k, either style."""
    n = draw(st.integers(1, max_n))
    dim = 1 << n
    m = draw(st.one_of(st.integers(1, dim - 1), st.sampled_from([1, max(dim // 4, 1), dim - 1])))
    indices = random.Random(draw(st.integers(0, 2**32))).sample(range(dim), m)
    k = draw(st.integers(0, max_k if n >= 2 else 0))
    style = draw(st.sampled_from(OracleStyle))
    return GroverSpec(n, tuple(format(i, f"0{n}b") for i in indices), k, style)


@settings(max_examples=150, deadline=None)
@given(any_m_specs())
def test_grover_summary_matches_state_summary(spec):
    """Untraced `run`'s O(m) summary against the same summary measured on the written state.
    c_p and c_r grow as 1/cos(theta), as in test_oblique_coords_match_closed_form."""
    fast = grover_summary(spec)
    dense = state_summary(grover_data_state(spec), spec.marked)
    tol = amplitude_tol(spec.iterations)
    assert fast.p_marked == dense.p_marked
    assert fast.coords.residual_norm == 0.0
    assert dense.coords.residual_norm <= tol
    assert abs(fast.coords.a_marked - dense.coords.a_marked) <= tol
    assert abs(fast.coords.a_unmarked - dense.coords.a_unmarked) <= tol
    cos_theta = math.cos(grover_angles(spec.n_qubits, spec.n_marked).theta_sin)
    for fast_c, dense_c in zip(fast.oblique, dense.oblique):
        assert abs(fast_c - dense_c) <= tol / cos_theta


@st.composite
def zero_unmarked_specs(draw) -> GroverSpec:
    """m = N/4 and k = 1: theta = pi/6, so every unmarked amplitude is exactly 0."""
    n = draw(st.integers(2, 12))
    dim = 1 << n
    indices = random.Random(draw(st.integers(0, 2**32))).sample(range(dim), dim // 4)
    return GroverSpec(n, tuple(format(i, f"0{n}b") for i in indices), 1)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(specs(max_n=12, max_k=40), zero_unmarked_specs()),
    st.integers(1, 4096),
    st.integers(0, 2**64 - 1),
)
def test_sample_grover_matches_measure_all(spec, shots, seed):
    """The float64 distribution from (v, u) draws what measuring the written state draws."""
    histogram = sample_grover(spec, shots, seed)
    assert histogram == measure_all(grover_data_state(spec), shots, seed)
    v, u = circuit.grover_pair(spec)
    if u == 0.0:  # an outcome of probability 0 is never drawn
        marked = {int(bits, 2) for bits in spec.marked}
        assert set(histogram.outcomes.tolist()) <= marked


def grover_case(spec: GroverSpec) -> tuple[int, np.ndarray, float, float]:
    """(N, marked indices, q, r): the unmarked and the marked outcome probability of the
    spec's data register, the floats that `sample_grover` computes."""
    v, u = circuit.grover_pair(spec)
    root = math.sqrt(1 << spec.n_qubits)
    a, b = abs(u / root), abs(v / root)
    marked = np.array([int(bits, 2) for bits in spec.marked], dtype=np.int64)
    return 1 << spec.n_qubits, marked, a * a, b * b


@st.composite
def running_sum_cases(draw, max_n: int) -> tuple[int, np.ndarray, float, float]:
    """`grover_case` of a spec with n <= max_n and k <= 64, its q then kept, made 0, made far
    under half an ulp of the sums after a marked index, or moved to a tie in a binade that
    the sums cross. The marked set is random, clustered in a window of 64 indices, evenly
    spaced with unmarked runs of 0 to 2,047 indices (at most 2^14 marks, as random has, so
    that no spec holds a million strings), or a random quarter of the indices at
    k = 1, where the unmarked amplitude is exactly 0. Every choice
    comes from one drawn seed, so that wide registers and long runs are as common as the
    narrow ones that hypothesis would favour."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = int(rng.integers(1 if rng.random() < 0.3 else max_n - 6, max_n + 1))
    dim = 1 << n
    layout = rng.choice(["random", "clustered", "spaced", "quarter"])
    k = int(rng.integers(0, 65)) if n >= 2 else 0
    if layout == "quarter" and 2 <= n <= 14:  # theta = pi/6: k = 1 leaves every unmarked amp 0
        marked, k = rng.choice(dim, dim // 4, replace=False), 1
    elif layout == "random":
        m = rng.integers(1, 5 if rng.random() < 0.5 else min(dim // 2, 1 << 14) + 1)
        marked = rng.choice(dim, min(m, dim - 1), replace=False)
    elif layout == "clustered" or n < 2:
        marked = np.unique(np.minimum(rng.integers(dim) + rng.integers(0, 64, 32), dim - 1))
    else:
        gap = int(rng.integers(1, 2049))  # adjacent, runs too short to step, and long runs
        marked = np.arange(rng.integers(min(gap, dim)), dim, gap)[: 1 << 14]
    bits = tuple(format(i, f"0{n}b") for i in marked[: dim - 1].tolist())
    dim, marked, q, r = grover_case(GroverSpec(n, bits, k))
    kind = rng.choice(["pair", "zero", "flat", "tie"])
    if kind == "zero" and r > 0.0:
        q = 0.0
    elif kind == "flat" and r > 0.0:
        q = math.ldexp(r, -60)
    elif kind == "tie" and q > 0.0:
        e = int(rng.integers(-6, 1))  # halfway between two floats of [2^(e-1), 2^e)
        q = math.ldexp(2 * math.floor(math.ldexp(q, 53 - e)) + 1, e - 54)
    return dim, marked, q, r


def expand(sums) -> np.ndarray:
    """Every running sum that the pieces hold, in index order."""
    values = np.empty(int(sums.length.sum()))
    end = 0
    for start, length, first, step in zip(
        sums.start.tolist(), sums.length.tolist(), sums.first.tolist(), sums.step.tolist()
    ):
        assert start == end
        end = start + length
        values[start:end] = first + np.arange(length) * step
    return values


@settings(max_examples=500, deadline=None)
@given(running_sum_cases(max_n=16))
# The add that enters a binade can round otherwise than the adds after it; a step taken
# from it was wrong here, from sum index 515 on.
@example(grover_case(GroverSpec(13, (format(6311, "013b"),), 2)))
def test_running_sums_match_cumsum(case):
    dim, marked, q, r = case
    probs = np.full(dim, q)
    probs[marked] = r
    want = np.cumsum(probs)
    sums = running_sums(dim, marked, q, r)
    assert np.array_equal(expand(sums), want)
    assert sums.total == want[-1]


@settings(max_examples=300, deadline=None)
@given(running_sum_cases(max_n=20), st.integers(0, 2**32))
def test_running_sums_outcomes_match_searchsorted(case, seed):
    """Each draw's outcome against searchsorted over the dense cdf, with draws on and next to
    random cdf values and each piece's first and last, from a first and a second call."""
    dim, marked, q, r = case
    probs = np.full(dim, q)
    probs[marked] = r
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    sums = running_sums(dim, marked, q, r)
    rng = np.random.default_rng(seed)
    at = np.concatenate((rng.integers(0, dim, 256), sums.start, sums.start + sums.length - 1))
    draws = np.concatenate(
        (rng.random(1024), cdf[at], np.nextafter(cdf[at], 0.0), np.nextafter(cdf[at], 1.0), [0.0])
    )
    draws = np.sort(draws[draws < 1.0])
    want = np.searchsorted(cdf, draws, side="right")
    assert np.array_equal(sums.outcomes(draws), want)
    assert np.array_equal(sums.outcomes(draws), want)


@pytest.mark.parametrize("command, extra", [("run", []), ("sample", ["--shots", "64"])])
def test_untraced_commands_raise_on_drift(monkeypatch, capsys, command, extra):
    """A recurrence whose norm grows by 1e-6 per iteration: untraced `run` and `sample` must
    refuse it, as `sweep` does (test_geometry.py::test_iteration_report_raises_on_drift)."""
    recurrence = circuit.grover_recurrence

    def drifting(spec):
        for k, (v, u) in enumerate(recurrence(spec)):
            yield v * (1 + 1e-6 * k), u * (1 + 1e-6 * k)

    monkeypatch.setattr(circuit, "grover_recurrence", drifting)
    argv = [command, "--n", "4", "--marked", "0101", *extra]
    assert cli.main([*argv, "--iterations", "0"]) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--iterations", "5"]) == 1
    assert capsys.readouterr().err.startswith("internal error: ValueError: row 5: state norm")
