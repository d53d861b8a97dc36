"""The two-value executor against the gate path, dense matrices, the closed form and exact rationals.

`grover_data_state` replaces the compiled gates for untraced commands, so it
must agree with every other way of computing the same state. Each pair has
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

The tolerances below sit 3 to 9 times above those figures.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_kit.circuit import (
    GroverSpec,
    OracleStyle,
    build_grover_circuit,
    dense_unitary,
    grover_data_state,
    grover_iteration,
    run,
)
from grover_kit.geometry import (
    data_state,
    grover_angles,
    iteration_report,
    oblique_coords,
    plane_angle,
    plane_decompose,
    predicted_success,
)
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


@settings(max_examples=30, deadline=None)
@given(specs(max_n=8))
def test_fused_matches_dense_unitary(spec):
    prep = dense_unitary(build_grover_circuit(replace(spec, iterations=0)))
    amps = prep[:, 0]  # the preparation applied to |0...0>
    if spec.iterations:
        block = dense_unitary(grover_iteration(spec))
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
