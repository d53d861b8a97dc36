import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grover_ops
from grover_kit import cli, geometry
from grover_kit.circuit import build_grover_circuit, grover_recurrence, run
from grover_kit.geometry import (
    AncillaFactorizationError,
    iteration_report,
    marked_plane_basis,
    oblique_coords,
    plane_angle,
    plane_decompose,
    strip_ancilla,
)
from grover_kit.spec import (
    GroverSpec,
    OracleStyle,
    grover_angles,
    optimal_iterations,
    p_each_unmarked,
    predicted_success,
)
from grover_kit.statevector import StateVector, ket

RNG = np.random.default_rng(20240819)

# Table values for n=5, one marked string, k = 0..5, rounded to 3 d.p.
SWEEP_P = [0.031, 0.258, 0.602, 0.897, 0.999, 0.860]
SWEEP_E0 = [0.031, 0.024, 0.013, 0.003, 0.000, 0.005]


def test_grover_angles_values():
    a = grover_angles(2, 1)
    assert math.isclose(a.theta_sin, math.pi / 6, abs_tol=1e-12)
    b = grover_angles(3, 1)
    assert round(b.theta_sin, 6) == 0.361367
    c = grover_angles(5, 1)
    assert round(c.theta_cos, 3) == 1.393
    assert round(math.cos(c.theta_cos), 3) == 0.177
    assert c.m == 1 and c.n == 5


def test_angle_conventions_are_complementary():
    for n in range(1, 9):
        for m in (1, 2, (1 << n) - 1):
            if not 1 <= m < (1 << n):
                continue
            a = grover_angles(n, m)
            assert abs(a.theta_sin + a.theta_cos - math.pi / 2) < 1e-12
            assert 0 < a.theta_sin <= math.pi / 2


def test_grover_angles_validation():
    with pytest.raises(ValueError):
        grover_angles(3, 0)
    with pytest.raises(ValueError):
        grover_angles(3, 8)


def test_predicted_success_exact_values():
    assert abs(predicted_success(5, 1, 1) - 529 / 2048) < 1e-12
    assert abs(predicted_success(2, 1, 1) - 1.0) < 1e-12
    assert abs(predicted_success(3, 1, 1) - 25 / 32) < 1e-12
    assert abs(predicted_success(3, 1, 2) - 121 / 128) < 1e-12
    assert round(predicted_success(5, 1, 2), 3) == 0.602
    with pytest.raises(ValueError):
        predicted_success(3, 1, -1)


def test_predicted_success_k0_is_uniform():
    for _ in range(20):
        n = int(RNG.integers(1, 9))
        m = int(RNG.integers(1, 1 << n))
        assert abs(predicted_success(n, m, 0) - m / (1 << n)) < 1e-12


def test_p_each_unmarked():
    assert round(p_each_unmarked(5, 1, 0), 3) == 0.031
    assert round(p_each_unmarked(5, 1, 1), 3) == 0.024
    assert round(p_each_unmarked(5, 1, 2), 3) == 0.013
    for k in range(6):
        total = predicted_success(5, 1, k) + 31 * p_each_unmarked(5, 1, k)
        assert abs(total - 1.0) < 1e-12


def test_optimal_iterations():
    assert optimal_iterations(5, 1) == 4
    assert optimal_iterations(2, 1) == 1
    assert optimal_iterations(3, 1) == 2
    # the returned k is never beaten by its neighbors
    for _ in range(30):
        n = int(RNG.integers(2, 11))
        m = int(RNG.integers(1, min(8, (1 << n) - 1) + 1))
        k = optimal_iterations(n, m)
        best = predicted_success(n, m, k)
        assert best >= predicted_success(n, m, k + 1) - 1e-12
        if k > 0:
            assert best >= predicted_success(n, m, k - 1) - 1e-12


def test_marked_plane_basis_orthonormal():
    beta, alpha = marked_plane_basis(5, ("10100",))
    assert np.isclose(np.linalg.norm(beta.amps), 1.0)
    assert np.isclose(np.linalg.norm(alpha.amps), 1.0)
    assert abs(np.vdot(beta.amps, alpha.amps)) < 1e-14
    assert np.isclose(beta.probability("10100"), 1.0)


def test_plane_decompose_uniform():
    coords = plane_decompose(ket("ppppp"), ("10100",))
    assert abs(coords.a_marked - 1 / math.sqrt(32)) < 1e-12
    assert abs(coords.a_unmarked - math.sqrt(31 / 32)) < 1e-12
    assert coords.residual_norm < 1e-12


def test_plane_decompose_beta_itself():
    beta, _ = marked_plane_basis(3, ("001", "110"))
    coords = plane_decompose(beta, ("001", "110"))
    assert abs(coords.a_marked - 1.0) < 1e-12
    assert abs(coords.a_unmarked) < 1e-12
    assert coords.residual_norm < 1e-12


def test_plane_decompose_post_oracle():
    oracle = grover_ops(GroverSpec(5, ("10100",), 1, OracleStyle.MCZ_DIRECT), "2.")
    state = run(oracle, ket("ppppp"))
    coords = plane_decompose(state, ("10100",))
    assert abs(coords.a_marked + 1 / math.sqrt(32)) < 1e-12
    assert abs(coords.a_unmarked - math.sqrt(31 / 32)) < 1e-12
    assert coords.residual_norm < 1e-12


def test_plane_coords_pythagoras_on_arbitrary_states():
    for _ in range(30):
        n = int(RNG.integers(2, 6))
        v = RNG.standard_normal(1 << n) + 1j * RNG.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        state = StateVector(n, v)
        coords = plane_decompose(state, (format(0, f"0{n}b"),))
        total = abs(coords.a_marked) ** 2 + abs(coords.a_unmarked) ** 2 + coords.residual_norm**2
        assert abs(total - 1.0) < 1e-9


def test_plane_decompose_validation():
    with pytest.raises(ValueError):
        plane_decompose(ket("ppp"), ("01",))
    with pytest.raises(ValueError):
        plane_decompose(ket("ppp"), ("001", "001"))


def test_plane_angle_progression():
    theta = grover_angles(3, 1).theta_sin
    spec = GroverSpec(3, ("001",), 0)
    state = run(build_grover_circuit(spec))
    block = grover_ops(spec)
    previous = plane_angle(plane_decompose(state, ("001",)))
    assert abs(previous - theta) < 1e-12
    for _ in range(6):
        state = run(block, initial=state)
        current = plane_angle(plane_decompose(state, ("001",)))
        delta = (current - previous) % math.pi
        gap = abs(delta - (2 * theta) % math.pi)
        assert min(gap, math.pi - gap) < 1e-10
        previous = current


def test_oblique_coords_after_one_iteration():
    # n=5: final state is (1/8 - 1)|uniform> - (2/sqrt(32))|marked>
    spec = GroverSpec(5, ("10100",), 1)
    state = run(build_grover_circuit(spec))
    c_p, c_r = oblique_coords(state, ("10100",))
    assert abs(c_p - (-7 / 8)) < 1e-12
    assert abs(c_r - (-2 / math.sqrt(32))) < 1e-12
    # n=3: -(1/2)|uniform> - (1/sqrt(2))|marked>
    spec3 = GroverSpec(3, ("001",), 1)
    state3 = run(build_grover_circuit(spec3))
    c_p3, c_r3 = oblique_coords(state3, ("001",))
    assert abs(c_p3 - (-0.5)) < 1e-12
    assert abs(c_r3 - (-1 / math.sqrt(2))) < 1e-12


def test_oblique_coords_reconstruct():
    spec = GroverSpec(4, ("0110", "1011"), 2)
    state = run(build_grover_circuit(spec))
    c_p, c_r = oblique_coords(state, spec.marked)
    beta, _ = marked_plane_basis(4, spec.marked)
    uniform = np.full(16, 0.25)
    rebuilt = c_p * uniform + c_r * beta.amps
    assert np.allclose(rebuilt, state.amps, atol=1e-10)


@st.composite
def states_and_marked(draw, max_n: int = 8) -> tuple[StateVector, tuple[str, ...]]:
    """A normalised complex state and a random set of 1..N-1 marked strings.

    The state is a random point of the marked/unmarked plane plus
    `off_plane` times complex Gaussian noise, so it is in the plane, near it
    or far off it.
    """
    n = draw(st.integers(1, max_n))
    dim = 1 << n
    m = draw(st.integers(1, dim - 1))
    off_plane = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.choice(dim, m, replace=False)
    beta = np.zeros(dim, dtype=np.complex128)
    beta[indices] = 1.0 / math.sqrt(m)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    noise = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps = a / math.sqrt(dim) + b * beta + off_plane * noise
    marked = tuple(format(int(i), f"0{n}b") for i in indices)
    return StateVector(n, amps / np.linalg.norm(amps)), marked


def gram_oblique(state, marked):
    """Reference (c_p, c_r): the 2x2 Gram solve against built |uniform> and |beta> vectors."""
    beta = marked_plane_basis(state.n_qubits, marked)[0].amps
    uniform = np.full(len(beta), 1.0 / math.sqrt(len(beta)), dtype=np.complex128)
    overlap = np.vdot(uniform, beta)
    gram = np.array([[1.0, overlap], [np.conj(overlap), 1.0]], dtype=np.complex128)
    rhs = np.array([np.vdot(uniform, state.amps), np.vdot(beta, state.amps)])
    return np.linalg.solve(gram, rhs), uniform, beta


@settings(max_examples=200, deadline=None)
@given(states_and_marked())
def test_oblique_coords_match_gram_solve_on_any_state(case):
    # Both forms round differently, and the Gram system's condition number
    # grows as N/(N - m). Over 35,000 random cases (n <= 8) the worst gap was
    # 5.0e-15 * N/(N - m) and the worst overlap left below was 1.3e-15; the
    # bounds sit 8 times above.
    state, marked = case
    dim, m = len(state.amps), len(marked)
    (ref_p, ref_r), uniform, beta = gram_oblique(state, marked)
    c_p, c_r = oblique_coords(state, marked)
    tol = 4e-14 * dim / (dim - m)
    assert abs(c_p - ref_p) <= tol
    assert abs(c_r - ref_r) <= tol
    # The fit is the orthogonal projection: what it leaves is orthogonal to both vectors.
    rest = state.amps - (c_p * uniform + c_r * beta)
    assert abs(np.vdot(uniform, rest)) <= 1e-14
    assert abs(np.vdot(beta, rest)) <= 1e-14


def reference_residual(state, marked):
    """The residual as one state-sized difference vector."""
    coords = plane_decompose(state, marked)
    indices = [int(bits, 2) for bits in marked]
    root_m, root_u = math.sqrt(len(indices)), math.sqrt(len(state.amps) - len(indices))
    remainder = state.amps - coords.a_unmarked / root_u
    remainder[indices] = state.amps[indices] - coords.a_marked / root_m
    return float(np.linalg.norm(remainder))


@settings(max_examples=200, deadline=None)
@given(states_and_marked(), st.integers(0, 8))
def test_blocked_residual_matches_one_difference_vector(case, log_block):
    # A state of one block gives the same float; more blocks change only how the squares
    # are grouped, so the two agree to a few ulps of the squared norm.
    state, marked = case
    want = reference_residual(state, marked)
    with mock.patch.object(geometry, "RESIDUAL_BLOCK", 1 << log_block):
        got = plane_decompose(state, marked).residual_norm
    if len(state.amps) <= 1 << log_block:
        assert got == want
    else:
        assert abs(got**2 - want**2) <= 1e-15 * max(want**2, 1e-300) + 1e-30


def test_plane_decompose_builds_no_state_sized_temporary():
    # n=16 is a 1 MiB state; the residual's buffer is RESIDUAL_BLOCK amplitudes (128 KiB).
    # The difference vector it replaced peaked at a whole state.
    state = StateVector(16, np.full(1 << 16, 2.0**-8, dtype=np.complex128))
    marked = ("0" * 16, "1" * 16)
    tracemalloc.start()
    try:
        plane_decompose(state, marked)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state.amps.nbytes // 4


def test_strip_ancilla():
    data = ket("01")
    full = StateVector(3, np.kron(data.amps, ket("m").amps))
    stripped = strip_ancilla(full)
    assert stripped.n_qubits == 2
    assert np.allclose(stripped.amps, data.amps, atol=1e-12)
    # global sign carried by the data factor survives
    full_minus = StateVector(3, np.kron(-data.amps, ket("m").amps))
    assert np.allclose(strip_ancilla(full_minus).amps, -data.amps, atol=1e-12)


def test_strip_ancilla_rejects_entangled():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    with pytest.raises(AncillaFactorizationError):
        strip_ancilla(bell)
    with pytest.raises(ValueError):
        strip_ancilla(ket("m"))
    # ancilla in |0> instead of |m> is also a factorization failure here
    with pytest.raises(AncillaFactorizationError):
        strip_ancilla(ket("p0"))


def test_iteration_report_table():
    spec = GroverSpec(5, ("10100",), 0)
    rows = iteration_report(spec, 5)
    assert [round(r.p_marked_sim, 3) for r in rows] == SWEEP_P
    assert [round(r.p_marked_formula, 3) for r in rows] == SWEEP_P
    assert [round(r.p_each_unmarked, 3) for r in rows] == SWEEP_E0
    theta = grover_angles(5, 1).theta_sin
    for row in rows:
        assert abs(row.angle - (2 * row.k + 1) * theta) < 1e-12
        assert abs(row.p_marked_sim - row.p_marked_formula) < 1e-10


def test_iteration_report_small_case():
    rows = iteration_report(GroverSpec(3, ("001",), 0), 2)
    assert round(rows[1].p_marked_sim, 5) == 0.78125
    assert round(rows[2].p_marked_sim, 5) == 0.94531


def test_iteration_report_both_styles_agree():
    for style in (OracleStyle.MCZ_DIRECT, OracleStyle.MCX_ANCILLA):
        spec = GroverSpec(4, ("0101", "1100"), 0, style)
        rows = iteration_report(spec, 6)
        assert len(rows) == 7
        for row in rows:
            assert abs(row.p_marked_sim - row.p_marked_formula) < 1e-10
            identity = row.p_marked_sim + (16 - 2) * row.p_each_unmarked
            assert abs(identity - 1.0) < 1e-9


def test_iteration_report_k0_row():
    rows = iteration_report(GroverSpec(4, ("1111",), 0), 0)
    assert len(rows) == 1
    assert abs(rows[0].p_marked_sim - 1 / 16) < 1e-12


def test_iteration_report_bounds():
    spec = GroverSpec(3, ("001",), 0)
    with pytest.raises(ValueError):
        iteration_report(spec, 65)
    with pytest.raises(ValueError):
        iteration_report(spec, -1)


def test_iteration_report_raises_on_drift(monkeypatch, capsys):
    # A recurrence whose norm grows by 1e-6 per iteration: the sweep must refuse row 1, as
    # validating a materialized state of that row would.
    def drifting(spec):
        for k, (v, u) in enumerate(grover_recurrence(spec)):
            yield v * (1 + 1e-6 * k), u * (1 + 1e-6 * k)

    monkeypatch.setattr(geometry, "grover_recurrence", drifting)
    spec = GroverSpec(4, ("0101",), 0)
    assert len(iteration_report(spec, 0)) == 1
    with pytest.raises(ValueError, match="row 1: state norm"):
        iteration_report(spec, 5)
    assert cli.main(["sweep", "--n", "4", "--marked", "0101", "--kmax", "5"]) == 1
    assert capsys.readouterr().err.startswith("internal error: ValueError: row 1: state norm")


def test_class_amplitudes_stay_uniform():
    # all marked amplitudes agree with each other after every iteration, and
    # likewise all unmarked ones
    spec = GroverSpec(4, ("0011", "1001", "1110"), 0)
    state = run(build_grover_circuit(spec))
    block = grover_ops(spec)
    marked_idx = [int(b, 2) for b in spec.marked]
    unmarked_idx = [i for i in range(16) if i not in marked_idx]
    for _ in range(8):
        state = run(block, initial=state)
        marked_amps = state.amps[marked_idx]
        unmarked_amps = state.amps[unmarked_idx]
        assert np.max(np.abs(marked_amps - marked_amps[0])) < 1e-12
        assert np.max(np.abs(unmarked_amps - unmarked_amps[0])) < 1e-12
