"""End-to-end acceptance checks. Each test prints one [PASS]/[FAIL] line.

Expected values here are either exact fractions, rounded table entries, or
states rebuilt with plain dense numpy matrices independent of the package's
gate kernels.
"""

import math
import time

import numpy as np

from conftest import grover_ops
from grover_kit.circuit import (
    Circuit,
    Gate,
    build_grover_circuit,
    dense_unitary,
    grover_step_labels,
    run,
)
from grover_kit.geometry import iteration_report, plane_angle, plane_decompose, strip_ancilla
from grover_kit.sampling import binomial_interval, measure_all
from grover_kit.spec import (
    GroverSpec,
    OracleStyle,
    grover_angles,
    optimal_iterations,
    predicted_success,
)
from grover_kit.statevector import StateVector, equal_up_to_global_phase


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def final_data_state(n, marked, k, style):
    spec = GroverSpec(n, marked, k, style)
    final = run(build_grover_circuit(spec))
    if style is OracleStyle.MCX_ANCILLA:
        return strip_ancilla(final)
    return final


def test_criterion_01_canonical_five_qubit_run():
    exact = 529 / 2048
    t0 = time.perf_counter()
    data = final_data_state(5, ("10100",), 1, OracleStyle.MCX_ANCILLA)
    p = data.probability("10100")
    elapsed = time.perf_counter() - t0
    formula = predicted_success(5, 1, 1)
    p_direct = final_data_state(5, ("10100",), 1, OracleStyle.MCZ_DIRECT).probability("10100")
    ok = (
        abs(p - exact) < 1e-12
        and abs(p - formula) < 1e-12
        and abs(p_direct - exact) < 1e-12
        and elapsed < 0.1
    )
    report(1, ok, f"n=5 k=1 p=529/2048 (p={p:.12f}, {elapsed * 1000:.1f} ms)")


def test_criterion_02_sweep_table():
    t0 = time.perf_counter()
    rows = iteration_report(GroverSpec(5, ("10100",), 0), 5)
    elapsed = time.perf_counter() - t0
    p_col = [round(r.p_marked_sim, 3) for r in rows]
    e_col = [round(r.p_each_unmarked, 3) for r in rows]
    ok = (
        p_col == [0.031, 0.258, 0.602, 0.897, 0.999, 0.860]
        and e_col == [0.031, 0.024, 0.013, 0.003, 0.000, 0.005]
        and elapsed < 1.0
    )
    report(2, ok, f"n=5 k=0..5 sweep columns ({elapsed * 1000:.1f} ms)")


def _expected_trace_states():
    """The ten grouped-step states of the 3-wire k=1 run, built from
    dense kron matrices with no help from the package's kernels."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def on(f0, f1, f2):
        return np.kron(np.kron(f0, f1), f2)

    mcx = np.eye(8, dtype=complex)
    mcx[[6, 7]] = mcx[[7, 6]]  # swap |110> and |111>
    mcz = np.diag([1, 1, 1, 1, 1, 1, -1, -1]).astype(complex)  # flips |11x>
    groups = [
        on(eye, eye, x),
        on(h, h, h),
        on(x, eye, eye),
        mcx,
        on(x, eye, eye),
        on(h, h, eye),
        on(x, x, eye),
        mcz,
        on(x, x, eye),
        on(h, h, eye),
    ]
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    states = []
    for g in groups:
        psi = g @ psi
        states.append(psi.copy())
    return states


def test_criterion_03_three_wire_trace():
    spec = GroverSpec(2, ("01",), 1, OracleStyle.MCX_ANCILLA)
    circuit = build_grover_circuit(spec)
    labels = grover_step_labels(spec)
    final = run(circuit)
    p01 = strip_ancilla(final).probability("01")

    group_ends = []
    for i, label in enumerate(labels):
        if i + 1 == len(labels) or labels[i + 1] != label:
            group_ends.append(i)
    # the state at each group end, from running the groups as consecutive slices
    group_states, state = [], None
    for first, end in zip([0] + [e + 1 for e in group_ends], group_ends):
        state = run(Circuit(3, circuit.ops[first:end + 1]), state)
        group_states.append(state)
    expected = _expected_trace_states()
    ok = len(group_ends) == 10 and abs(p01 - 1.0) < 1e-12
    if ok:
        for got, want in zip(group_states, expected):
            if not equal_up_to_global_phase(got, StateVector(3, want), tol=1e-10):
                ok = False
                break
        # the final traced state is exactly -|01> x (|0>-|1>)/sqrt(2)
        last = np.zeros(8, dtype=complex)
        last[2], last[3] = -1 / math.sqrt(2), 1 / math.sqrt(2)
        ok = ok and np.allclose(expected[-1], last, atol=1e-12)
    report(3, ok, f"10-step trace vs dense reconstruction, p(01)={p01:.12f}")


def test_criterion_04_three_qubit_probabilities():
    p1 = final_data_state(3, ("001",), 1, OracleStyle.MCX_ANCILLA).probability("001")
    p2 = final_data_state(3, ("001",), 2, OracleStyle.MCX_ANCILLA).probability("001")
    ok = abs(p1 - 25 / 32) < 1e-12 and abs(p2 - 121 / 128) < 1e-12
    report(4, ok, f"n=3 k=1 p=25/32, k=2 p=121/128 (not 97%): p1={p1:.6f} p2={p2:.6f}")


def test_criterion_05_oracle_style_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        count = int(rng.integers(1, 1 << n))
        chosen = rng.choice(1 << n, size=count, replace=False)
        marked = tuple(format(int(i), f"0{n}b") for i in chosen)
        k = int(rng.integers(0, 6))
        direct = final_data_state(n, marked, k, OracleStyle.MCZ_DIRECT)
        ancilla = final_data_state(n, marked, k, OracleStyle.MCX_ANCILLA)
        if not equal_up_to_global_phase(direct, ancilla, tol=1e-10):
            ok = False
            break
        ip = abs(np.vdot(direct.amps, ancilla.amps))
        worst = max(worst, abs(1.0 - ip))
    report(5, ok, f"200 random specs, both styles (worst overlap defect {worst:.2e})")


def test_criterion_06_diffuser_identity():
    worst = 0.0
    for n in range(2, 9):
        dense = dense_unitary(grover_ops(GroverSpec(n, ("0" * n,), 1), "3."))
        dim = 1 << n
        u = np.full(dim, 1 / math.sqrt(dim))
        expected = -(2 * np.outer(u, u) - np.eye(dim))
        worst = max(worst, float(np.max(np.abs(dense - expected))))
    ok = worst < 1e-12
    report(6, ok, f"dense diffuser = -(2|p><p| - Id) for n=2..8 (max err {worst:.2e})")


def test_criterion_07_plane_invariance_and_angle():
    rng = np.random.default_rng(777)
    worst_residual = 0.0
    worst_angle_gap = 0.0
    ok = True
    for n in range(2, 9):
        for m in (1, 2, 4):
            if m >= (1 << n):
                continue
            chosen = rng.choice(1 << n, size=m, replace=False)
            marked = tuple(format(int(i), f"0{n}b") for i in chosen)
            theta = grover_angles(n, m).theta_sin
            state = run(build_grover_circuit(GroverSpec(n, marked, 0)))
            block = grover_ops(GroverSpec(n, marked, 1))
            previous = plane_angle(plane_decompose(state, marked))
            for _ in range(20):
                state = run(block, initial=state)
                coords = plane_decompose(state, marked)
                worst_residual = max(worst_residual, coords.residual_norm)
                current = plane_angle(coords)
                delta = (current - previous) % math.pi
                gap = abs(delta - (2 * theta) % math.pi)
                gap = min(gap, math.pi - gap)
                worst_angle_gap = max(worst_angle_gap, gap)
                previous = current
    ok = worst_residual < 1e-10 and worst_angle_gap < 1e-10
    report(
        7,
        ok,
        f"n<=8 m in (1,2,4) k<=20: residual<={worst_residual:.2e}, "
        f"angle defect<={worst_angle_gap:.2e}",
    )


def test_criterion_08_optimal_iterations():
    k5 = optimal_iterations(5, 1)
    k2 = optimal_iterations(2, 1)
    k3 = optimal_iterations(3, 1)
    p5 = predicted_success(5, 1, k5)
    p2 = predicted_success(2, 1, k2)
    p3 = predicted_success(3, 1, k3)
    ok = (
        k5 == 4
        and p5 >= 0.999
        and k2 == 1
        and p2 == 1.0
        and k3 == 2
        and abs(p3 - 121 / 128) < 1e-12
    )
    report(8, ok, f"k*: (5,1)->{k5} p={p5:.6f}; (2,1)->{k2} p={p2}; (3,1)->{k3} p={p3:.6f}")


def test_criterion_09_sampling_intervals():
    seed = 7
    state1 = run(build_grover_circuit(GroverSpec(5, ("10100",), 1)))
    c1 = measure_all(state1, 1024, seed).counts.get("10100", 0)
    state2 = run(build_grover_circuit(GroverSpec(5, ("10100",), 2)))
    c2 = measure_all(state2, 1024, seed).counts.get("10100", 0)
    big = measure_all(state1, 10**6, seed).counts.get("10100", 0)
    lo, hi = binomial_interval(529 / 2048, 10**6, 3.0)
    ok = 222 <= c1 <= 307 and 569 <= c2 <= 663 and lo <= big <= hi
    report(
        9,
        ok,
        f"1024 shots: k=1 count={c1} in [222,307], k=2 count={c2} in [569,663]; "
        f"1e6 shots: {big} in [{lo},{hi}]",
    )


def test_criterion_10_randomized_property_suite():
    rng = np.random.default_rng(101010)

    def rand_state(n):
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        return StateVector(n, v)

    def random_circuit(n, n_ops):
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

    cases = 0
    ok = True
    # 400 involution cases: H and X applied twice are the identity
    for _ in range(400):
        n = int(rng.integers(1, 7))
        s = rand_state(n)
        t = int(rng.integers(0, n))
        gate = "H" if rng.integers(0, 2) == 0 else "X"
        twice = run(Circuit(n, (Gate(gate, t),) * 2), s)
        if not np.allclose(twice.amps, s.amps, atol=1e-12):
            ok = False
        cases += 1
    # 300 norm preservation cases over random circuits
    for _ in range(300):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(n, int(rng.integers(1, 41)))
        out = run(circuit, rand_state(n))
        if abs(np.linalg.norm(out.amps) - 1.0) > 1e-9:
            ok = False
        cases += 1
    # 300 agreement cases between run() and the dense matrix
    for _ in range(300):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(n, int(rng.integers(1, 21)))
        u = dense_unitary(circuit)
        s = rand_state(n)
        if not np.allclose(run(circuit, s).amps, u @ s.amps, atol=1e-10):
            ok = False
        cases += 1
    ok = ok and cases == 1000
    report(10, ok, f"{cases} randomized involution/norm/dense-agreement cases")
