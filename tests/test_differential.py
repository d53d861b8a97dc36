"""The fused executor against the gate path, dense matrices and the closed form.

`grover_data_state` replaces the compiled gates for untraced commands, so it
must agree with every other way of computing the same state. Each pair has
its own tolerance, which grows with the iteration count k because rounding
accumulates once per iteration. The worst gaps measured over 1,600 random
specs (n <= 10, up to 24 marked strings, k <= 20, both styles), divided by
k + 1, were:

* fused vs gate path, data register: 1.6e-15
* fused vs dense_unitary (n <= 8): 1.2e-15
* mcx_ancilla gate state vs fused (x) (|0>-|1>)/sqrt(2): 1.1e-15
* fused marked probability vs sin^2((2k+1)theta): 5.6e-16
* plane residual of a fused state: 3.1e-16
* plane_angle advance per iteration vs 2*theta (mod pi): 3.0e-16

The tolerances below sit 6 to 16 times above those figures.
"""

import math
from dataclasses import replace

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
    """Gap allowed between a fused probability, residual or angle step and its exact value."""
    return 5e-15 * (k + 1)


@st.composite
def specs(draw, max_n: int = 10) -> GroverSpec:
    """n <= max_n, a random set of 1..min(2^n - 1, 24) marked strings, k <= 20, either style.

    The marked-set size is capped so that the gate path stays fast; at
    n <= 4 every m is still reachable.
    """
    n = draw(st.integers(1, max_n))
    dim = 1 << n
    indices = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=min(dim - 1, 24)))
    k = draw(st.integers(0, 20 if n >= 2 else 0))
    style = draw(st.sampled_from(OracleStyle))
    return GroverSpec(n, tuple(format(i, f"0{n}b") for i in indices), k, style)


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
    one = replace(spec, iterations=1) if spec.iterations else None
    state = grover_data_state(replace(spec, iterations=0))
    previous = plane_angle(plane_decompose(state, spec.marked))
    for k in range(spec.iterations + 1):
        if k > 0:
            state = grover_data_state(one, state)
        p_sim = sum(state.probability(bits) for bits in spec.marked)
        assert abs(p_sim - predicted_success(n, m, k)) <= exact_tol(k)
        coords = plane_decompose(state, spec.marked)
        assert coords.residual_norm <= exact_tol(k)
        if k > 0:
            angle = plane_angle(coords)
            gap = (angle - previous - 2.0 * theta) % math.pi
            assert min(gap, math.pi - gap) <= exact_tol(k)
            previous = angle
    assert np.array_equal(state.amps, grover_data_state(spec).amps)
