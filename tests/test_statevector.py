import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_kit.circuit import Circuit, Gate, run
from grover_kit.geometry import oblique_coords
from grover_kit.statevector import (
    StateVector,
    _apply_multicontrolled_inplace,
    _apply_single_inplace,
    bitstring_to_index,
    bitstrings,
    equal_up_to_global_phase,
    ket,
)

RNG = np.random.default_rng(20240817)


def random_state(n, rng=RNG):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v /= np.linalg.norm(v)
    return StateVector(n, v)


def test_index_convention():
    # qubit 0 is the leftmost ket character and the most significant index bit
    assert bitstring_to_index("10100") == 20
    assert bitstring_to_index("01") == 1
    assert bitstrings(np.array([20, 1]), 5).tolist() == [b"10100", b"00001"]
    assert bitstrings(np.array([20]), 5, "lsb").tolist() == [b"00101"]
    for i, bits in enumerate(bitstrings(np.arange(16), 4)):
        assert bitstring_to_index(bits.decode()) == i


def test_index_validation():
    with pytest.raises(ValueError):
        bitstring_to_index("102")
    with pytest.raises(ValueError):
        bitstring_to_index("")


def test_zero_state():
    s = ket("000")
    assert s.n_qubits == 3
    assert s.amps.dtype == np.complex128
    assert s.amps[0] == 1.0
    assert np.all(s.amps[1:] == 0.0)
    with pytest.raises(ValueError):
        ket("0" * 27)


def test_ket_basis_and_superposition():
    assert ket("01").amplitude("01") == 1.0
    assert ket("01").probability("00") == 0.0
    p = ket("p")
    assert np.allclose(p.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    m = ket("m")
    assert np.allclose(m.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)])
    uniform = ket("ppp")
    assert np.allclose(uniform.amps, np.full(8, 1 / np.sqrt(8)))
    with pytest.raises(ValueError):
        ket("01x")
    with pytest.raises(ValueError):
        ket("")


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.inf, 0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([complex(1.0, np.nan), 0.0]))
    with pytest.raises(ValueError):
        StateVector(True, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1.0, np.array([1.0, 0.0]))


def test_validation_allocates_no_state_sized_temporary():
    amps = np.zeros(1 << 16, dtype=np.complex128)
    amps[0] = 1.0
    tracemalloc.start()
    try:
        StateVector(16, amps, copy=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes / 32


def test_oblique_coords_allocates_no_state_sized_temporary():
    n = 16
    state = StateVector(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128), copy=False)
    marked = ("0" * n, "1" * n, "01" * (n // 2))
    tracemalloc.start()
    try:
        oblique_coords(state, marked)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state.amps.nbytes / 8


def test_amps_are_read_only():
    s = ket("00")
    with pytest.raises(ValueError):
        s.amps[0] = 0.5


def test_apply_single_does_not_mutate_input():
    s = ket("0")
    out = run(Circuit(1, (Gate("H", 0),)), s)
    assert s.amps[0] == 1.0
    assert np.allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_flips_the_msb_for_qubit_zero():
    s = ket("000")
    out = run(Circuit(3, (Gate("X", 0),)), s)
    # qubit 0 is the most significant bit: |000> -> |100> = index 4
    assert out.amplitude("100") == 1.0
    out2 = run(Circuit(3, (Gate("X", 2),)), s)
    assert out2.amplitude("001") == 1.0


def test_z_phase():
    z = Circuit(1, (Gate("Z", 0),))
    assert run(z, ket("1")).amplitude("1") == -1.0
    assert run(z, ket("0")).amplitude("0") == 1.0


def test_single_qubit_against_dense_kron():
    mats = {
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
    }
    eye = np.eye(2)
    for _ in range(50):
        n = int(RNG.integers(1, 5))
        target = int(RNG.integers(0, n))
        kind = ["H", "X", "Z"][int(RNG.integers(0, 3))]
        s = random_state(n)
        factors = [mats[kind] if q == target else eye for q in range(n)]
        dense = factors[0]
        for f in factors[1:]:
            dense = np.kron(dense, f)
        expected = dense @ s.amps
        got = run(Circuit(n, (Gate(kind, target),)), s).amps
        assert np.allclose(got, expected, atol=1e-12)


def test_involutions_and_norm():
    for _ in range(100):
        n = int(RNG.integers(1, 6))
        s = random_state(n)
        t = int(RNG.integers(0, n))
        for kind in ("H", "X", "Z"):
            twice = run(Circuit(n, (Gate(kind, t),) * 2), s)
            assert np.allclose(twice.amps, s.amps, atol=1e-12)
        h = run(Circuit(n, (Gate("H", t),)), s)
        assert np.isclose(np.linalg.norm(h.amps), 1.0, atol=1e-12)


def test_mcx_swaps_only_controlled_pairs():
    mcx = Circuit(3, (Gate("X", 2, (0, 1)),))
    assert run(mcx, ket("110")).amplitude("111") == 1.0
    # control not satisfied: untouched
    assert run(mcx, ket("100")).amplitude("100") == 1.0


def test_mcz_flips_sign_only_when_all_ones():
    s = random_state(3)
    out = run(Circuit(3, (Gate("Z", 2, (0, 1)),)), s)
    expected = s.amps.copy()
    expected[7] *= -1
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_mcx_as_permutation():
    for _ in range(30):
        n = int(RNG.integers(2, 6))
        qubits = RNG.permutation(n)
        n_controls = int(RNG.integers(1, n))
        controls = tuple(int(q) for q in qubits[:n_controls])
        target = int(qubits[n_controls])
        s = random_state(n)
        out = run(Circuit(n, (Gate("X", target, controls),)), s)
        cmask = sum(1 << (n - 1 - c) for c in controls)
        tbit = 1 << (n - 1 - target)
        expected = s.amps.copy()
        for i in range(1 << n):
            if (i & cmask) == cmask:
                expected[i] = s.amps[i ^ tbit]
        assert np.allclose(out.amps, expected, atol=1e-12)


def test_equal_up_to_global_phase():
    s = random_state(3)
    minus = StateVector(3, -s.amps)
    rotated = StateVector(3, np.exp(0.7j) * s.amps)
    assert equal_up_to_global_phase(s, s)
    assert equal_up_to_global_phase(s, minus)
    assert equal_up_to_global_phase(s, rotated)
    assert not equal_up_to_global_phase(ket("00"), ket("01"))
    assert not equal_up_to_global_phase(ket("0"), ket("00"))
    # orthogonal states are never phase-equal
    assert not equal_up_to_global_phase(ket("p"), ket("m"))


def dense_gate(n, kind, controls, target):
    """The gate as a 2^n x 2^n matrix, built from the bits of each basis index."""

    def bit(j, q):
        return (j >> (n - 1 - q)) & 1

    tbit = 1 << (n - 1 - target)
    s = 1.0 / np.sqrt(2.0)
    m = np.zeros((1 << n, 1 << n))
    for j in range(1 << n):
        if not all(bit(j, c) for c in controls):
            m[j, j] = 1.0
        elif kind == "X":
            m[j ^ tbit, j] = 1.0
        elif kind == "Z":
            m[j, j] = -1.0 if bit(j, target) else 1.0
        else:
            m[j & ~tbit, j] = s
            m[j | tbit, j] = -s if bit(j, target) else s
    return m


@st.composite
def gates(draw):
    n = draw(st.integers(1, 6))
    target = draw(st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != target]))
    controls = tuple(others[: draw(st.integers(0, len(others)))])
    kind = draw(st.sampled_from("XZ" if controls else "HXZ"))
    return n, kind, controls, target


@given(gates(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernels_match_dense_bit_arithmetic(gate, seed):
    n, kind, controls, target = gate
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
    expected = dense_gate(n, kind, controls, target) @ amps
    if controls:
        _apply_multicontrolled_inplace(amps, n, kind, controls, target)
    else:
        _apply_single_inplace(amps, n, kind, target)
    np.testing.assert_allclose(amps, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("base", ["Z", "X"])
def test_fully_controlled_gate_allocates_no_state_sized_temporary(base):
    n = 16
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[-1] = 1.0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _apply_multicontrolled_inplace(amps, n, base, tuple(range(n - 1)), n - 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes / 8
