"""Dense statevector with exact gate application.

Qubit order convention: qubit 0 is the leftmost character of a ket string
and the most significant bit of the amplitude index. ``|10100>`` therefore
lives at index ``0b10100 = 20``. This is the reverse of Qiskit's ordering;
translate qubit indices (q -> n-1-q) when comparing against it.

Amplitudes are float64 or complex128. H, X, Z and their controlled forms are
real gates, so `circuit.run` keeps a state it starts from |0...0> as float64,
half the bytes of complex128; any other input is stored as complex128. No
operation renormalizes: the norm is checked on construction and a violation
raises rather than being silently corrected.

All gates run through one kernel, `_apply_gate_inplace`. On the ``(2,)*n``
reshape of the amplitudes, the subspace where every control is 1 is a
strided view, so no index arrays are built. Z negates half of that subspace
in place; H and X copy half of it, and numpy adds one half-sized temporary.
"""

from __future__ import annotations

import numpy as np

from grover_kit.spec import MAX_QUBITS, check_n_qubits

NORM_TOL = 1e-9

_SQRT2_INV = 1.0 / np.sqrt(2.0)


def bitstring_to_index(bits: str) -> int:
    """Map an msb-first bitstring to its amplitude index."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2)


def bitstrings(indices: np.ndarray, n_qubits: int, bit_order: str = "msb") -> np.ndarray:
    """The bitstrings of amplitude `indices` as an S<n_qubits> array: msb-first (qubit 0
    leftmost), or reversed for ``bit_order="lsb"``. Unpacks the big-endian bytes of each
    index, so it holds about 50 bytes per index and builds no Python string."""
    bits = np.unpackbits(indices.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    bits = bits[:, 32 - n_qubits:][:, :: 1 if bit_order == "msb" else -1]
    digits = np.add(bits, ord("0"), dtype=np.uint8, order="C")
    return digits.view(f"S{n_qubits}").ravel()


class StateVector:
    """Immutable n-qubit state: 2**n_qubits amplitudes, unit norm. A float64 array is kept
    as float64; anything else is stored as complex128."""

    __slots__ = ("n_qubits", "_amps")

    def __init__(self, n_qubits: int, amps: np.ndarray, *, copy: bool = True):
        check_n_qubits(n_qubits)
        real = isinstance(amps, np.ndarray) and amps.dtype == np.float64
        arr = np.asarray(amps, dtype=np.float64 if real else np.complex128)
        if arr.shape != (1 << n_qubits,):
            raise ValueError(
                f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, got shape {arr.shape}"
            )
        if copy and arr is amps:
            arr = arr.copy()
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN or infinite amplitude
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        arr.flags.writeable = False
        self.n_qubits = n_qubits
        self._amps = arr

    @property
    def amps(self) -> np.ndarray:
        """Read-only amplitude array, index msb-first."""
        return self._amps

    def probabilities(self) -> np.ndarray:
        return np.abs(self._amps) ** 2

    def probability(self, bits: str) -> float:
        """Probability of measuring the given msb-first bitstring."""
        return abs(self.amplitude(bits)) ** 2

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.n_qubits:
            raise ValueError(f"bitstring {bits!r} has length {len(bits)}, expected {self.n_qubits}")
        return complex(self._amps[bitstring_to_index(bits)])

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


_KET_FACTORS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "p": np.array([_SQRT2_INV, _SQRT2_INV], dtype=np.complex128),
    "m": np.array([_SQRT2_INV, -_SQRT2_INV], dtype=np.complex128),
}


def ket(pattern: str) -> StateVector:
    """Product state from a character pattern, leftmost char = qubit 0.

    '0' and '1' are computational basis states, 'p' is (|0>+|1>)/sqrt(2),
    'm' is (|0>-|1>)/sqrt(2). ket("ppp") is the uniform 3-qubit state.
    """
    if not 1 <= len(pattern) <= MAX_QUBITS:
        raise ValueError(f"pattern length must be in 1..{MAX_QUBITS}, got {len(pattern)}")
    for ch in pattern:
        if ch not in _KET_FACTORS:
            raise ValueError(f"bad ket character {ch!r} in {pattern!r}, expected one of 01pm")
    amps = np.array([1.0], dtype=np.complex128)
    for ch in pattern:
        amps = np.kron(amps, _KET_FACTORS[ch])
    return StateVector(len(pattern), amps, copy=False)


def _apply_gate_inplace(
    amps: np.ndarray, n_qubits: int, kind: str, controls: tuple[int, ...], target: int
) -> None:
    """Apply H, X or Z to `target` where every control qubit is 1, in place.

    Axis 0 of `amps` is the amplitude index; trailing axes are a batch.
    `amps` must be C-contiguous so that its ``(2,)*n_qubits`` reshape is a
    view; `run_steps` and `dense_unitary` both pass such arrays.
    """
    view = amps.reshape((2,) * n_qubits + amps.shape[1:])
    index = [1 if q in controls else slice(None) for q in range(n_qubits)]
    index[target] = 0
    lo = view[(*index, Ellipsis)]
    index[target] = 1
    hi = view[(*index, Ellipsis)]
    if kind == "X":
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    elif kind == "Z":
        hi *= -1.0
    elif kind == "H":
        a = lo.copy()
        lo[...] = (a + hi) * _SQRT2_INV
        hi[...] = (a - hi) * _SQRT2_INV
    else:
        raise ValueError(f"unknown gate {kind!r}")


def _apply_single_inplace(amps: np.ndarray, n_qubits: int, kind: str, target: int) -> None:
    """Apply H, X or Z to `target`; see `_apply_gate_inplace`."""
    _apply_gate_inplace(amps, n_qubits, kind, (), target)


def _apply_multicontrolled_inplace(
    amps: np.ndarray, n_qubits: int, base: str, controls: tuple[int, ...], target: int
) -> None:
    """Apply X or Z to `target` where every control is 1; see `_apply_gate_inplace`."""
    _apply_gate_inplace(amps, n_qubits, base, controls, target)


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """True when a == c*b for some unit scalar c, within tol in 2-norm."""
    if a.n_qubits != b.n_qubits:
        return False
    ip = np.vdot(b.amps, a.amps)
    mag = abs(ip)
    phase = ip / mag if mag > 0.0 else 1.0
    return bool(np.linalg.norm(a.amps - phase * b.amps) <= tol)
