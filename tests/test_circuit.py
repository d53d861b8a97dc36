import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grover_ops
from grover_kit.circuit import (
    Circuit,
    Gate,
    build_grover_circuit,
    circuit_from_text,
    circuit_to_text,
    dense_unitary,
    grover_step_labels,
    _trace_steps,
    op_to_text,
    run,
    run_steps,
)
from grover_kit.geometry import iteration_report
from grover_kit.sampling import measure_all
from grover_kit.spec import (
    MAX_ITERATIONS,
    MAX_QUBITS,
    MAX_SHOTS,
    GroverSpec,
    OracleStyle,
    SpecError,
    grover_angles,
    optimal_iterations,
    predicted_success,
)
from grover_kit.statevector import StateVector, bitstring_to_index, ket

RNG = np.random.default_rng(20240818)


def random_state(n, rng=RNG):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v /= np.linalg.norm(v)
    return StateVector(n, v)


def random_circuit(n, n_ops, rng=RNG):
    ops = []
    for _ in range(n_ops):
        roll = rng.integers(0, 5)
        if roll < 3:
            ops.append(Gate("HXZ"[roll], int(rng.integers(0, n))))
        else:
            qubits = rng.permutation(n)
            n_controls = int(rng.integers(1, n))
            controls = tuple(int(q) for q in qubits[:n_controls])
            target = int(qubits[n_controls])
            ops.append(Gate("X" if roll == 3 else "Z", target, controls))
    return Circuit(n, tuple(ops))


def test_op_validation():
    with pytest.raises(ValueError):
        Gate("Y", 0)
    with pytest.raises(IndexError):
        Gate("H", -1)
    with pytest.raises(ValueError):
        Gate("H", 1, (0,))
    with pytest.raises(ValueError):
        Gate("X", 0, (1, 1))
    with pytest.raises(ValueError):
        Gate("Z", 0, (0,))
    with pytest.raises(IndexError):
        Gate("H", True)
    with pytest.raises(IndexError):
        Gate("X", True, (False,))
    with pytest.raises(ValueError, match="not in"):
        Gate("H", 2, (0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        Gate("Z", 2, (0, 1, 0))
    with pytest.raises(ValueError, match="also listed as a control"):
        Gate("X", 1, (0, 1))
    with pytest.raises(IndexError):
        Gate("Z", False)
    with pytest.raises(IndexError):
        Gate("X", 2, (0, True))
    with pytest.raises(ValueError, match="not in"):
        Gate("Y", 1, (0,))
    assert Gate("X", 1, [0]).controls == (0,)
    assert Gate("X", 1) == Gate("X", 1, ())


def test_circuit_width_check():
    with pytest.raises(IndexError):
        Circuit(2, (Gate("H", 2),))
    with pytest.raises(IndexError):
        Circuit(2, (Gate("X", 3, (0,)),))
    with pytest.raises(IndexError):
        Circuit(3, (Gate("X", 1, (3,)),))
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(2.0, (Gate("H", 0),))
    with pytest.raises(ValueError):
        Circuit(True, (Gate("H", 0),))


def test_grover_spec_normalizes_marked():
    spec = GroverSpec(3, ("110", "001"), 1)
    assert spec.marked == ("001", "110")
    assert spec.n_marked == 2
    assert spec.circuit_qubits == 3
    assert GroverSpec(3, ("001",), 1, OracleStyle.MCX_ANCILLA).circuit_qubits == 4


def test_grover_spec_validation():
    with pytest.raises(ValueError):
        GroverSpec(3, ("01",), 1)
    with pytest.raises(ValueError):
        GroverSpec(3, ("0a1",), 1)
    with pytest.raises(ValueError):
        GroverSpec(3, ("001", "001"), 1)
    with pytest.raises(ValueError):
        GroverSpec(1, ("0", "1"), 0)
    with pytest.raises(ValueError):
        GroverSpec(3, ("001",), -1)
    with pytest.raises(ValueError):
        GroverSpec(3, (), 1)
    with pytest.raises(ValueError):
        GroverSpec(3, ("001",), 1.5)
    with pytest.raises(ValueError):
        GroverSpec(3, ("001",), True)
    with pytest.raises(SpecError) as err:
        GroverSpec(3.0, ("001",), 1)
    assert err.value.field == "n_qubits"
    with pytest.raises(SpecError) as err:
        GroverSpec(True, ("1",), 0)
    assert err.value.field == "n_qubits"


SPEC_ERRORS = {
    "grover_angles-m": (lambda: grover_angles(3, 8), "m"),
    "predicted_success-iterations": (lambda: predicted_success(3, 1, -1), "iterations"),
    "predicted_success-iterations-high": (
        lambda: predicted_success(3, 1, MAX_ITERATIONS + 1),
        "iterations",
    ),
    "iteration_report-k_max": (lambda: iteration_report(GroverSpec(3, ("001",), 0), 65), "k_max"),
    "iteration_report-n1": (lambda: iteration_report(GroverSpec(1, ("1",), 0), 1), "n_qubits"),
    "measure_all-shots-zero": (lambda: measure_all(ket("00"), 0, 1), "shots"),
    "measure_all-shots-high": (lambda: measure_all(ket("00"), MAX_SHOTS + 1, 1), "shots"),
    "measure_all-seed": (lambda: measure_all(ket("00"), 10, 1 << 64), "seed"),
    "GroverSpec-ancilla-width": (
        lambda: GroverSpec(MAX_QUBITS, ("0" * MAX_QUBITS,), 0, OracleStyle.MCX_ANCILLA),
        "n_qubits",
    ),
    "GroverSpec-iterations-high": (
        lambda: GroverSpec(2, ("01",), MAX_ITERATIONS + 1),
        "iterations",
    ),
}


@pytest.mark.parametrize("name", sorted(SPEC_ERRORS))
def test_spec_error_names_field(name):
    call, field = SPEC_ERRORS[name]
    with pytest.raises(SpecError) as err:
        call()
    assert err.value.field == field


def test_limits_admit_the_optimal_run():
    assert optimal_iterations(MAX_QUBITS, 1) <= MAX_ITERATIONS
    GroverSpec(MAX_QUBITS - 1, ("0" * (MAX_QUBITS - 1),), MAX_ITERATIONS, OracleStyle.MCX_ANCILLA)
    GroverSpec(MAX_QUBITS, ("0" * MAX_QUBITS,), MAX_ITERATIONS)


def test_mcz_oracle_is_diagonal_sign_flip():
    for _ in range(20):
        n = int(RNG.integers(2, 5))
        count = int(RNG.integers(1, min(4, (1 << n) - 1) + 1))
        chosen = RNG.choice(1 << n, size=count, replace=False)
        marked = tuple(format(int(i), f"0{n}b") for i in chosen)
        oracle = grover_ops(GroverSpec(n, marked, 1, OracleStyle.MCZ_DIRECT), "2.")
        dense = dense_unitary(oracle)
        expected = np.eye(1 << n, dtype=complex)
        for bits in marked:
            i = bitstring_to_index(bits)
            expected[i, i] = -1.0
        assert np.allclose(dense, expected, atol=1e-12)


def test_mcx_oracle_phase_kickback():
    # on (data) x |m> the ancilla form acts as the same diagonal sign flip
    n = 3
    marked = ("010", "111")
    oracle = grover_ops(GroverSpec(n, marked, 1, OracleStyle.MCX_ANCILLA), "2.")
    assert oracle.n_qubits == n + 1
    data = random_state(n)
    full = StateVector(n + 1, np.kron(data.amps, ket("m").amps))
    out = run(oracle, full)
    flipped = data.amps.copy()
    for bits in marked:
        flipped[bitstring_to_index(bits)] *= -1
    expected = np.kron(flipped, ket("m").amps)
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_mcz_oracle_needs_two_qubits():
    with pytest.raises(SpecError, match="at least 2 data qubits"):
        grover_ops(GroverSpec(1, ("1",), 0, OracleStyle.MCZ_DIRECT), "2.")


def test_diffuser_matrix():
    for n in (2, 3, 4):
        dense = dense_unitary(grover_ops(GroverSpec(n, ("0" * n,), 1), "3."))
        dim = 1 << n
        u = np.full(dim, 1 / np.sqrt(dim))
        expected = -(2 * np.outer(u, u) - np.eye(dim))
        assert np.allclose(dense, expected, atol=1e-12)
    with pytest.raises(ValueError):
        grover_ops(GroverSpec(1, ("0",), 0), "3.")


def test_diffuser_eigenvectors():
    n = 3
    circuit = grover_ops(GroverSpec(n, ("0" * n,), 1), "3.")
    uniform = ket("p" * n)
    assert np.allclose(run(circuit, uniform).amps, -uniform.amps, atol=1e-12)
    # anything orthogonal to the uniform state picks up +1
    amps = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    amps -= amps.mean()  # remove the uniform component
    amps /= np.linalg.norm(amps)
    ortho = StateVector(n, amps)
    assert np.allclose(run(circuit, ortho).amps, ortho.amps, atol=1e-12)


def test_run_empty_circuit_is_identity():
    state = random_state(3)
    out = run(Circuit(3, ()), state)
    assert np.allclose(out.amps, state.amps, atol=0)


def test_build_structure_mcz():
    spec = GroverSpec(3, ("001",), 2)
    circuit = build_grover_circuit(spec)
    assert circuit.n_qubits == 3
    # prologue H layer, then per iteration: 2 X-flips + MCZ + 2 X-flips + diffuser(13 ops for n=3)
    assert len(circuit) == 3 + 2 * (2 + 1 + 2 + 13)
    labels = grover_step_labels(spec)
    assert len(labels) == len(circuit)
    assert labels[0] == "1.1"
    assert "k1 2.2[001]" in labels
    assert "k2 3.3" in labels


def test_build_structure_ancilla():
    spec = GroverSpec(2, ("01",), 1, OracleStyle.MCX_ANCILLA)
    circuit = build_grover_circuit(spec)
    assert circuit.n_qubits == 3
    assert circuit.ops[0] == Gate("X", 2)
    assert circuit.ops[1:4] == (Gate("H", 0), Gate("H", 1), Gate("H", 2))
    assert len(circuit) == 16


def test_build_k0_is_preparation_only():
    spec = GroverSpec(4, ("0110",), 0)
    circuit = build_grover_circuit(spec)
    assert len(circuit) == 4
    final = run(circuit)
    assert np.allclose(final.amps, np.full(16, 0.25), atol=1e-12)


def test_run_initial_width_mismatch():
    circuit = grover_ops(GroverSpec(3, ("000",), 1), "3.")
    with pytest.raises(ValueError):
        run(circuit, ket("00"))


def test_run_matches_dense_unitary():
    for _ in range(20):
        n = int(RNG.integers(2, 5))
        circuit = random_circuit(n, int(RNG.integers(1, 25)))
        u = dense_unitary(circuit)
        s = random_state(n)
        assert np.allclose(run(circuit, s).amps, u @ s.amps, atol=1e-10)
        # unitarity
        assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-10)


def test_dense_unitary_width_bound():
    big = Circuit(11, (Gate("H", 0),))
    with pytest.raises(ValueError):
        dense_unitary(big)


def test_grover_iteration_composes():
    spec = GroverSpec(3, ("101",), 2)
    block = grover_ops(spec)
    stepwise = run(block, run(block, run(build_grover_circuit(replace(spec, iterations=0)))))
    direct = run(build_grover_circuit(spec))
    assert np.allclose(stepwise.amps, direct.amps, atol=1e-12)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3, unique=True),
            st.integers(0, 3),
            st.sampled_from(OracleStyle),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_single_builder_views_agree(case):
    n, indices, k, style = case
    marked = tuple(format(i, f"0{n}b") for i in indices)
    spec = GroverSpec(n, marked, k, style)
    prep = build_grover_circuit(GroverSpec(n, marked, 0, style)).ops
    block = grover_ops(spec).ops
    assert build_grover_circuit(spec).ops == prep + block * k
    oracle = grover_ops(spec, "2.").ops
    # the diffuser depends on neither the marked strings nor the style
    assert block == oracle + grover_ops(GroverSpec(n, ("0" * n,), 1), "3.").ops
    labels = grover_step_labels(spec)
    assert len(labels) == len(prep) + k * len(block)
    for i, label in enumerate(labels[len(prep):]):
        assert label.startswith(f"k{1 + i // len(block)} ")


def test_op_to_text_forms():
    assert op_to_text(Gate("H", 3)) == "H 3"
    assert op_to_text(Gate("X", 4, (0, 2))) == "MCX c=0,2 t=4"
    assert op_to_text(Gate("Z", 0, (1,))) == "MCZ c=1 t=0"


def test_text_round_trip_grover():
    spec = GroverSpec(2, ("01",), 1, OracleStyle.MCX_ANCILLA)
    circuit = build_grover_circuit(spec)
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


def test_text_idle_qubit_survives_round_trip():
    circuit = Circuit(4, (Gate("H", 0),))
    again = circuit_from_text(circuit_to_text(circuit))
    assert again.n_qubits == 4


def test_text_width_inferred_without_header():
    circuit = circuit_from_text("H 0\nMCX c=0,1 t=2\n")
    assert circuit.n_qubits == 3
    assert circuit.ops[1] == Gate("X", 2, (0, 1))


def test_text_comments_and_blank_lines():
    text = "# a comment\n\nH 0  # trailing note\n"
    circuit = circuit_from_text(text)
    assert circuit.ops == (Gate("H", 0),)


def test_text_parse_errors_name_the_line():
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("MCX t=2\n")
    with pytest.raises(ValueError, match="line 2"):
        circuit_from_text("H 0\nQ 1\n")
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("H x\n")
    with pytest.raises(ValueError, match="line 3"):
        circuit_from_text("H 0\nX 1\nMCZ c= t=0\n")
    with pytest.raises(ValueError, match="line 1: MCX needs at least one control"):
        circuit_from_text("MCX c= t=1\n")
    with pytest.raises(ValueError, match="line 1"):
        circuit_from_text("MCZ c=0,0 t=1\n")
    with pytest.raises(ValueError):
        circuit_from_text("")


def test_text_parse_shares_equal_ops():
    # Equal ops parse to one shared Gate, so each op of a long file holds a pointer, not a
    # Gate: ~40 B of tracemalloc peak per op here, the text's StringIO copy included, where
    # a Gate per op took ~147 B.
    text = "# qubits: 2\n" + "H 0\nX 1\nMCZ c=0 t=1\n" * 5_000
    tracemalloc.start()
    try:
        parsed = circuit_from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.ops[:3] == (Gate("H", 0), Gate("X", 1), Gate("Z", 1, (0,)))
    assert len(parsed) == 15_000 and len({id(op) for op in parsed.ops}) == 3
    assert peak / len(parsed) < 64


@st.composite
def circuits(draw, max_qubits=6, max_ops=15):
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    n_ops = draw(st.integers(min_value=0, max_value=max_ops))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(
                Gate(draw(st.sampled_from("HXZ")), draw(st.integers(0, n - 1)))
            )
        else:
            order = draw(st.permutations(range(n)))
            n_controls = draw(st.integers(1, n - 1))
            ops.append(
                Gate(
                    draw(st.sampled_from("XZ")),
                    order[n_controls],
                    tuple(order[:n_controls]),
                )
            )
    return Circuit(n, tuple(ops))


@given(circuits())
@settings(max_examples=200, deadline=None)
def test_text_round_trip_property(circuit):
    assert circuit_from_text(circuit_to_text(circuit)) == circuit


@given(circuits(max_qubits=5, max_ops=25), st.data())
@settings(max_examples=200, deadline=None)
def test_run_in_slices_matches_one_run(circuit, data):
    seed = data.draw(st.integers(0, 2**32))
    initial = random_state(circuit.n_qubits, np.random.default_rng(seed))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(circuit)), max_size=6)))
    steps = run_steps(circuit, cuts, initial)
    state = initial
    for i, (first, last) in enumerate(zip([0, *cuts], [*cuts, len(circuit)])):
        state = run(Circuit(circuit.n_qubits, circuit.ops[first:last]), state)
        # each slice's result is a valid normalized state
        assert np.isclose(np.linalg.norm(state.amps), 1.0, atol=1e-9)
        if i < len(cuts):  # and the stepper's state at each cut is the same, bit for bit
            assert np.array_equal(next(steps).amps, state.amps)
    assert next(steps, None) is None
    assert np.array_equal(state.amps, run(circuit, initial).amps)


def test_run_and_steps_hold_no_writable_array():
    """A result of `run`, and each step while it is held, reaches no writable array, its
    buffer included; a step's buffer becomes writable again only for the next step."""
    def arrays(state):
        a = state.amps
        while a is not None:
            yield a
            a = a.base

    circuit = build_grover_circuit(GroverSpec(3, ("101",), 1))
    for state in (run(circuit), run(circuit, ket("0p1")), run(Circuit(3, ()))):
        assert not any(a.flags.writeable for a in arrays(state))
    for state in run_steps(circuit, range(len(circuit) + 1)):
        assert not any(a.flags.writeable for a in arrays(state))


@pytest.mark.parametrize("style", list(OracleStyle))
@pytest.mark.parametrize(
    "marked", [("11",), ("00", "01", "10"), ("011", "110"), ("0000", "0101", "1111")]
)
@pytest.mark.parametrize("k", range(4))
def test_trace_steps_counts_label_runs(style, marked, k):
    spec = GroverSpec(len(marked[0]), marked, k, style)
    assert _trace_steps(spec) == len(list(itertools.groupby(grover_step_labels(spec))))


@given(circuits())
@settings(max_examples=100, deadline=None)
def test_run_default_start_is_zero_state(circuit):
    assert np.array_equal(run(circuit).amps, run(circuit, ket("0" * circuit.n_qubits)).amps)


def test_run_default_start_holds_one_state():
    circuit = Circuit(16, ())
    state_bytes = 8 << 16  # 2^16 float64 amplitudes
    tracemalloc.start()
    try:
        final = run(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert final.amps[0] == 1.0
    assert final.amps.dtype == np.float64
    assert peak < 1.5 * state_bytes
