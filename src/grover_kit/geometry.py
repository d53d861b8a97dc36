"""Two-dimensional plane analysis of Grover iteration.

Every state reachable from the uniform superposition by oracle and diffuser
stays inside the plane spanned by |beta> (uniform over marked strings) and
|alpha> (uniform over unmarked strings). This module decomposes simulated
states into that plane, from two sums (over the m marked amplitudes and over
all N) and with no basis vector built, computes the rotation angles, predicts
success probabilities in closed form, and builds per-iteration sweep reports
that put simulation and formula side by side.

Closed form: with theta_sin = arcsin(sqrt(m/2^n)), the probability of
landing in the marked set after k iterations is sin^2((2k+1)*theta_sin).
The complementary convention theta_cos = arccos(sqrt(m/2^n)) is carried
alongside because sweep tables are often written in terms of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from grover_kit.circuit import GroverSpec, OracleStyle, grover_data_state
from grover_kit.statevector import SpecError, StateVector, bitstring_to_index, check_iterations

ANCILLA_FACTOR_TOL = 1e-9
MAX_REPORT_ITERATIONS = 64


class AncillaFactorizationError(RuntimeError):
    """The ancilla did not factor out as (|0>-|1>)/sqrt(2).

    Raised by strip_ancilla; reaching it indicates a compiler or simulator
    bug, not bad user input, hence a RuntimeError.
    """


@dataclass(frozen=True)
class GroverAngles:
    """Both angle conventions for an (n, m) search instance.

    theta_sin satisfies sin(theta_sin) = sqrt(m/2^n); theta_cos is the
    complement with cos(theta_cos) = sqrt(m/2^n). They sum to pi/2.
    """

    theta_sin: float
    theta_cos: float
    m: int
    n: int


@dataclass(frozen=True)
class PlaneCoords:
    """Components of a state in the orthonormal marked/unmarked plane basis."""

    a_marked: complex
    a_unmarked: complex
    residual_norm: float


@dataclass(frozen=True)
class IterationRow:
    """One sweep row: simulated and closed-form values after k iterations."""

    k: int
    angle: float
    p_marked_sim: float
    p_marked_formula: float
    p_each_unmarked: float


def grover_angles(n_qubits: int, m: int) -> GroverAngles:
    """Rotation angles for m marked strings out of 2^n_qubits."""
    if not 1 <= m < (1 << n_qubits):
        raise SpecError("m", f"marked count must be in 1..2^{n_qubits} - 1, got {m}")
    ratio = math.sqrt(m / (1 << n_qubits))
    return GroverAngles(
        theta_sin=math.asin(ratio), theta_cos=math.acos(ratio), m=m, n=n_qubits
    )


def predicted_success(n_qubits: int, m: int, iterations: int) -> float:
    """Closed-form probability of the marked set after `iterations` steps (0..MAX_ITERATIONS)."""
    check_iterations(iterations)
    theta = grover_angles(n_qubits, m).theta_sin
    return math.sin((2 * iterations + 1) * theta) ** 2


def p_each_unmarked(n_qubits: int, m: int, iterations: int) -> float:
    """Closed-form probability of each individual unmarked string."""
    return (1.0 - predicted_success(n_qubits, m, iterations)) / ((1 << n_qubits) - m)


def optimal_iterations(n_qubits: int, m: int) -> int:
    """Iteration count maximizing predicted_success.

    Evaluates round(pi/(4*theta) - 1/2) and both neighbors rather than
    trusting the rounding alone, which misses by one for very small n.
    Smallest k wins ties.
    """
    theta = grover_angles(n_qubits, m).theta_sin
    center = round(math.pi / (4.0 * theta) - 0.5)
    candidates = sorted({max(0, center - 1), max(0, center), max(0, center + 1)})
    return max(candidates, key=lambda k: (predicted_success(n_qubits, m, k), -k))


def _marked_indices(n_qubits: int, marked: Sequence[str]) -> list[int]:
    """Amplitude indices of `marked`, which GroverSpec checks."""
    return [bitstring_to_index(b) for b in GroverSpec(n_qubits, tuple(marked), 0).marked]


def marked_plane_basis(n_qubits: int, marked: Sequence[str]) -> tuple[StateVector, StateVector]:
    """Orthonormal pair (|beta>, |alpha>): uniform over marked / unmarked."""
    indices = _marked_indices(n_qubits, marked)
    dim = 1 << n_qubits
    beta = np.zeros(dim, dtype=np.complex128)
    beta[indices] = 1.0 / math.sqrt(len(indices))
    alpha = np.full(dim, 1.0 / math.sqrt(dim - len(indices)), dtype=np.complex128)
    alpha[indices] = 0.0
    return (
        StateVector(n_qubits, beta, copy=False),
        StateVector(n_qubits, alpha, copy=False),
    )


def _plane_sums(state: StateVector, marked: Sequence[str]) -> tuple[list[int], complex, complex]:
    """Marked indices, the sum s_m of the marked amplitudes and the sum S of all N."""
    indices = _marked_indices(state.n_qubits, marked)
    return indices, complex(state.amps[indices].sum()), complex(state.amps.sum())


def plane_decompose(state: StateVector, marked: Sequence[str]) -> PlaneCoords:
    """Project a data-qubit state onto the marked/unmarked plane.

    For ancilla-style circuits run strip_ancilla first; this operates on
    data qubits only. Needs no basis vectors: with s_m the sum over the m
    marked amplitudes and S the sum over all N, a_marked = s_m/sqrt(m) and
    a_unmarked = (S - s_m)/sqrt(N - m). The residual is one more pass.
    """
    indices, s_m, total = _plane_sums(state, marked)
    root_m, root_u = math.sqrt(len(indices)), math.sqrt(len(state.amps) - len(indices))
    a_marked = s_m / root_m
    a_unmarked = (total - s_m) / root_u
    remainder = state.amps - a_unmarked / root_u
    remainder[indices] = state.amps[indices] - a_marked / root_m
    return PlaneCoords(
        a_marked=a_marked,
        a_unmarked=a_unmarked,
        residual_norm=float(np.linalg.norm(remainder)),
    )


def plane_angle(coords: PlaneCoords) -> float:
    """Ray angle of the plane component, measured from the unmarked axis.

    Global phase (sign included) is quotiented out, so the result lives in
    [0, pi). Each Grover iteration advances it by exactly 2*theta_sin
    modulo pi.
    """
    a_m, a_u = coords.a_marked, coords.a_unmarked
    anchor = a_u if abs(a_u) >= abs(a_m) else a_m
    if abs(anchor) == 0.0:
        return 0.0
    phase = anchor / abs(anchor)
    r_m = (a_m / phase).real
    r_u = (a_u / phase).real
    return math.atan2(r_m, r_u) % math.pi


def oblique_coords(state: StateVector, marked: Sequence[str]) -> tuple[complex, complex]:
    """Coefficients (c_p, c_r) with state = c_p*|uniform> + c_r*|beta>.

    The pair is not orthogonal; (c_p, c_r) solve its 2x2 Gram system, which
    gives the projection onto the plane for any state, in the plane or not.
    From the sums of plane_decompose: c_p = (S - s_m)*sqrt(N)/(N - m) and
    c_r = s_m/sqrt(m) - (S - s_m)*sqrt(m)/(N - m). No basis vector is built.
    """
    indices, s_m, total = _plane_sums(state, marked)
    dim, m = 1 << state.n_qubits, len(indices)
    c_p = (total - s_m) * math.sqrt(dim) / (dim - m)
    c_r = s_m / math.sqrt(m) - (total - s_m) * math.sqrt(m) / (dim - m)
    return c_p, c_r


def strip_ancilla(state: StateVector) -> StateVector:
    """Remove a trailing ancilla that sits in (|0>-|1>)/sqrt(2).

    The ancilla is the highest-index qubit, i.e. the least significant bit
    of the amplitude index. Verifies the factorization before discarding:
    odd-index amplitudes must be the negatives of the even-index ones.
    """
    if state.n_qubits < 2:
        raise ValueError("nothing to strip: state has a single qubit")
    even = state.amps[0::2]
    odd = state.amps[1::2]
    defect = float(np.linalg.norm(odd + even))
    if defect > ANCILLA_FACTOR_TOL:
        raise AncillaFactorizationError(
            f"ancilla does not factor as (|0>-|1>)/sqrt(2): defect norm {defect:.3e}"
        )
    data = even * math.sqrt(2.0)
    return StateVector(state.n_qubits - 1, data, copy=False)


def data_state(state: StateVector, spec: GroverSpec) -> StateVector:
    """The data register of a final state: the ancilla stripped for ``mcx_ancilla`` specs."""
    if spec.style is OracleStyle.MCX_ANCILLA:
        return strip_ancilla(state)
    return state


def iteration_report(spec: GroverSpec, k_max: int) -> list[IterationRow]:
    """Rows k = 0..k_max with simulated and closed-form marked probability.

    Simulated values come from the fused executor `grover_data_state`, not
    from the gate circuit: the uniform data register for k=0, then one
    fused iteration per further row, stepped from the previous row's state.
    Both oracle styles give the same data register, so the style does not
    change a row. The gate path stays the reference the tests compare with.
    """
    if not 0 <= k_max <= MAX_REPORT_ITERATIONS:
        raise SpecError("k_max", f"k_max must be in 0..{MAX_REPORT_ITERATIONS}, got {k_max}")
    step = replace(spec, iterations=min(k_max, 1))  # SpecError("n_qubits") when n=1, k_max >= 1
    angles = grover_angles(spec.n_qubits, spec.n_marked)
    state = grover_data_state(replace(spec, iterations=0))
    rows: list[IterationRow] = []
    for k in range(k_max + 1):
        if k > 0:
            state = grover_data_state(step, initial=state)
        p_sim = sum(state.probability(bits) for bits in spec.marked)
        rows.append(
            IterationRow(
                k=k,
                angle=(2 * k + 1) * angles.theta_sin,
                p_marked_sim=float(p_sim),
                p_marked_formula=predicted_success(spec.n_qubits, spec.n_marked, k),
                p_each_unmarked=p_each_unmarked(spec.n_qubits, spec.n_marked, k),
            )
        )
    return rows
