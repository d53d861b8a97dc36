"""Two-dimensional plane analysis of Grover iteration.

Every state reachable from the uniform superposition by oracle and diffuser
stays inside the plane spanned by |beta> (uniform over marked strings) and
|alpha> (uniform over unmarked strings). This module decomposes simulated
states into that plane, from two sums (over the m marked amplitudes and over
all N) and with no basis vector built. `grover_summary` gives the same
summary of a Grover state from its two amplitudes alone, and
`iteration_report` builds per-iteration sweep reports that put simulation
and the closed form of `grover_kit.spec` side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from grover_kit.circuit import check_pair, grover_pair, grover_recurrence
from grover_kit.spec import GroverSpec, OracleStyle, check_k_max, grover_angles, p_each_unmarked
from grover_kit.statevector import StateVector, bitstring_to_index

ANCILLA_FACTOR_TOL = 1e-9
# plane_decompose takes its residual over blocks of this many amplitudes (128 KiB).
RESIDUAL_BLOCK = 1 << 13


class AncillaFactorizationError(RuntimeError):
    """The ancilla did not factor out as (|0>-|1>)/sqrt(2).

    Raised by strip_ancilla; reaching it indicates a compiler or simulator
    bug, not bad user input, hence a RuntimeError.
    """


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


class PlaneSums(NamedTuple):
    """Marked indices, the sum s_m of the marked amplitudes and the sum S of all N: floats
    for a float64 state, complex numbers for a complex128 one."""

    indices: list[int]
    s_m: complex
    total: complex


def plane_sums(state: StateVector, marked: Sequence[str]) -> PlaneSums:
    """The sums that plane_decompose and oblique_coords take; checks `marked`."""
    indices = _marked_indices(state.n_qubits, marked)
    return PlaneSums(indices, state.amps[indices].sum().item(), state.amps.sum().item())


def plane_decompose(
    state: StateVector, marked: Sequence[str], *, sums: PlaneSums | None = None
) -> PlaneCoords:
    """Project a data-qubit state onto the marked/unmarked plane.

    For ancilla-style circuits run strip_ancilla first; this operates on
    data qubits only. Needs no basis vectors: with s_m the sum over the m
    marked amplitudes and S the sum over all N, a_marked = s_m/sqrt(m) and
    a_unmarked = (S - s_m)/sqrt(N - m). The residual is one more pass.
    `sums`, when given, are the `plane_sums(state, marked)` a caller already took.
    """
    indices, s_m, total = plane_sums(state, marked) if sums is None else sums
    root_m, root_u = math.sqrt(len(indices)), math.sqrt(len(state.amps) - len(indices))
    a_marked = s_m / root_m
    a_unmarked = (total - s_m) / root_u
    return PlaneCoords(
        a_marked=a_marked,
        a_unmarked=a_unmarked,
        residual_norm=_residual(state.amps, indices, a_marked / root_m, a_unmarked / root_u),
    )


def _residual(
    amps: np.ndarray, indices: list[int], on_marked: complex, on_unmarked: complex
) -> float:
    """The norm of `amps` minus its plane projection, which is `on_marked` at `indices` and
    `on_unmarked` elsewhere. The differences are taken one block of RESIDUAL_BLOCK amplitudes
    at a time in one buffer, so no state-sized temporary is built. Each block's squares are
    summed as np.linalg.norm sums them, so a state of one block gets the same float, and the
    block sums are added exactly (math.fsum): a running float sum of them gained rounding with
    each block, up to 1.5e-15 relative at 256 one-amplitude blocks. The buffer takes the
    differences' dtype: float64 for a real state and projection."""
    marked = np.sort(np.asarray(indices))
    dtype = np.result_type(amps, on_marked, on_unmarked)
    buf = np.empty(min(len(amps), RESIDUAL_BLOCK), dtype=dtype)
    sqnorms = []
    for start in range(0, len(amps), len(buf)):
        diff = np.subtract(amps[start:start + len(buf)], on_unmarked, out=buf)
        lo, hi = np.searchsorted(marked, (start, start + len(buf)))
        diff[marked[lo:hi] - start] = amps[marked[lo:hi]] - on_marked
        if dtype.kind == "c":
            sqnorms.append(diff.real.dot(diff.real) + diff.imag.dot(diff.imag))
        else:
            sqnorms.append(diff.dot(diff))
    return math.sqrt(math.fsum(sqnorms))


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


def oblique_coords(
    state: StateVector, marked: Sequence[str], *, sums: PlaneSums | None = None
) -> tuple[complex, complex]:
    """Coefficients (c_p, c_r) with state = c_p*|uniform> + c_r*|beta>.

    The pair is not orthogonal; (c_p, c_r) solve its 2x2 Gram system, which
    gives the projection onto the plane for any state, in the plane or not.
    From the sums of plane_decompose: c_p = (S - s_m)*sqrt(N)/(N - m) and
    c_r = s_m/sqrt(m) - (S - s_m)*sqrt(m)/(N - m). No basis vector is built.
    `sums` is as for plane_decompose.
    """
    indices, s_m, total = plane_sums(state, marked) if sums is None else sums
    dim, m = 1 << state.n_qubits, len(indices)
    c_p = (total - s_m) * math.sqrt(dim) / (dim - m)
    c_r = s_m / math.sqrt(m) - (total - s_m) * math.sqrt(m) / (dim - m)
    return c_p, c_r


class PlaneSummary(NamedTuple):
    """What `run` reports of a data register: each marked string's probability, in the
    order of `marked`, the plane coordinates and the oblique pair (c_p, c_r)."""

    p_marked: list[float]
    coords: PlaneCoords
    oblique: tuple[complex, complex]


def state_summary(state: StateVector, marked: Sequence[str]) -> PlaneSummary:
    """The summary measured on `state`: one `plane_sums` for both coordinate pairs, and the
    residual as `plane_decompose` takes it."""
    sums = plane_sums(state, marked)
    return PlaneSummary(
        [state.probability(bits) for bits in marked],
        plane_decompose(state, marked, sums=sums),
        oblique_coords(state, marked, sums=sums),
    )


def grover_summary(spec: GroverSpec) -> PlaneSummary:
    """The summary of `grover_data_state(spec)` in O(m), from its (v, u) alone.

    With s = sqrt(N), the marked amplitude is v/s and every other one u/s, so
    a_marked = sqrt(m)*v/s, a_unmarked = sqrt(N - m)*u/s, c_p = u and
    c_r = sqrt(m)*(v - u)/s. The state lies in the plane by construction, so
    the residual is 0; `state_summary` measures it. `grover_pair` checks the
    pair's norm, so drift raises as validating the state would.
    """
    v, u = grover_pair(spec)
    dim, m = 1 << spec.n_qubits, spec.n_marked
    root = math.sqrt(dim)
    coords = PlaneCoords(math.sqrt(m) * v / root, math.sqrt(dim - m) * u / root, 0.0)
    return PlaneSummary([abs(v / root) ** 2] * m, coords, (u, math.sqrt(m) * (v - u) / root))


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

    Simulated values come from the two-value executor's `grover_recurrence`,
    not from the gate circuit: row k reads its (v, u) and writes no state.
    `check_pair` checks each row's norm, so drift still raises. Both oracle
    styles give the same data register, so the style does not change a row.
    The gate path stays the reference the tests compare with.
    """
    check_k_max(spec, k_max)
    angles = grover_angles(spec.n_qubits, spec.n_marked)
    dim, m = 1 << spec.n_qubits, spec.n_marked
    root = math.sqrt(dim)
    rows: list[IterationRow] = []
    for k, (v, u) in zip(range(k_max + 1), grover_recurrence(spec)):
        check_pair(spec, k, v, u)
        angle = (2 * k + 1) * angles.theta_sin
        p = math.sin(angle) ** 2  # predicted_success and p_each_unmarked, from one angle
        rows.append(
            IterationRow(
                k=k,
                angle=angle,
                p_marked_sim=sum([abs(v / root) ** 2] * m),  # as the state's entries sum
                p_marked_formula=p,
                p_each_unmarked=(1.0 - p) / (dim - m),
            )
        )
    return rows
