"""Statevector simulation and analysis of Grover amplitude amplification.

Each public name is imported from its module on first use (PEP 562), so
``import grover_kit`` alone, and the closed form of `grover_kit.spec`,
do not load numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "circuit": (
        "Circuit", "Gate", "build_grover_circuit", "circuit_from_text", "circuit_to_text",
        "dense_unitary", "grover_data_state", "grover_step_labels", "run",
    ),
    "geometry": (
        "AncillaFactorizationError", "IterationRow", "PlaneCoords", "iteration_report",
        "marked_plane_basis", "oblique_coords", "plane_angle", "plane_decompose", "strip_ancilla",
    ),
    "sampling": ("Histogram", "binomial_interval", "measure_all"),
    "spec": (
        "GroverAngles", "GroverSpec", "OracleStyle", "grover_angles", "optimal_iterations",
        "p_each_unmarked", "predicted_success",
    ),
    "statevector": ("StateVector", "bitstring_to_index", "equal_up_to_global_phase", "ket"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
