"""Spans around the package's entry points, recorded from outside the package.

``Tracer.installed()`` replaces each wrapped function, in every
``grover_kit`` module that holds it, by a wrapper that records a span
(name, start, end, parent span, job id, state width) and restores the
originals on exit. Spans live in flat arrays in memory and are written once,
by ``Tracer.save``, when the run ends. An entry point the package no longer
has is skipped, so a path that bypasses it reads 0 calls.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

import numpy as np

# Span name -> (module, attribute) of the wrapped callables.
ENTRY_POINTS = {
    "circuit.build": [
        ("grover_kit.circuit", "build_grover_circuit"),
        ("grover_kit.circuit", "grover_step_labels"),
        ("grover_kit.circuit", "grover_iteration"),
        ("grover_kit.circuit", "circuit_from_text"),
    ],
    "circuit.run": [("grover_kit.circuit", "run")],
    "geometry.strip_ancilla": [("grover_kit.geometry", "strip_ancilla")],
    "geometry.plane_decompose": [("grover_kit.geometry", "plane_decompose")],
    "geometry.oblique_coords": [("grover_kit.geometry", "oblique_coords")],
    "geometry.iteration_report": [("grover_kit.geometry", "iteration_report")],
    "sampling.measure_all": [("grover_kit.sampling", "measure_all")],
    "cli.main": [("grover_kit.cli", "main")],
}
# The gate kernels as circuit.run resolves them; the span name follows the gate.
SINGLE_KERNEL = ("grover_kit.circuit", "_apply_single_inplace")
CONTROLLED_KERNEL = ("grover_kit.circuit", "_apply_multicontrolled_inplace")


def _state_width(args, kwargs) -> int:
    """Qubit count of the state passed first, as every analysis entry point takes it."""
    state = args[0] if args else kwargs.get("state")
    return getattr(state, "n_qubits", 0)


class Tracer:
    """In-memory span store plus the counters read from return values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.width = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.ops = 0
        self.shots = 0
        self.snapshots = 0
        self.snapshot_bytes_max = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, width: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.width.append(width)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, width_of=None, after=None):
        def wrapper(*args, **kwargs):
            idx = self._open(nid, width_of(args, kwargs) if width_of else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_kernel(self, fn, gate_of):
        ids = {}

        def wrapper(amps, n_qubits, gate, *rest):
            nid = ids.get(gate)
            if nid is None:
                nid = ids[gate] = self.name_id(gate_of(gate))
            idx = self._open(nid, n_qubits)
            try:
                return fn(amps, n_qubits, gate, *rest)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_run(self, args, kwargs, result) -> None:
        circuit = args[0] if args else kwargs["circuit"]
        self.ops += len(circuit.ops)
        if isinstance(result, tuple):
            snapshots = result[1]
            self.snapshots += len(snapshots)
            nbytes = sum(s.amps.nbytes for s in snapshots)
            self.snapshot_bytes_max = max(self.snapshot_bytes_max, nbytes)

    def _after_measure(self, args, kwargs, result) -> None:
        self.shots += result.shots

    def _wrappers(self) -> dict:
        """(module, attribute) -> wrapper for every entry point that exists."""
        out = {}
        extra = {
            "circuit.run": (None, self._after_run),
            "sampling.measure_all": (_state_width, self._after_measure),
            "geometry.strip_ancilla": (_state_width, None),
            "geometry.plane_decompose": (_state_width, None),
            "geometry.oblique_coords": (_state_width, None),
        }
        for name, targets in ENTRY_POINTS.items():
            width_of, after = extra.get(name, (None, None))
            for key in targets:
                fn = getattr(sys.modules.get(key[0]), key[1], None)
                if fn is not None:
                    out[key] = (fn, self._wrap(fn, self.name_id(name), width_of, after))
        for key, gate_of in (
            (SINGLE_KERNEL, lambda kind: f"statevector.{kind}"),
            (CONTROLLED_KERNEL, lambda base: f"statevector.MC{base}"),
        ):
            fn = getattr(sys.modules.get(key[0]), key[1], None)
            if fn is not None:
                out[key] = (fn, self._wrap_kernel(fn, gate_of))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in every grover_kit module that binds it."""
        from grover_kit.statevector import StateVector

        patched = []
        for original, wrapper in self._wrappers().values():
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "grover_kit":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        init = StateVector.__init__
        StateVector.__init__ = self._wrap(
            init, self.name_id("statevector.validate"), lambda a, kw: a[1] if len(a) > 1 else kw["n_qubits"]
        )
        try:
            yield self
        finally:
            StateVector.__init__ = init
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with the self time of each span."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "job": np.array(self.job, dtype=np.int64),
            "width": np.array(self.width, dtype=np.int64),
            "start": start,
            "end": end,
            "self": duration - child_time,
        }

    def save(self, path: str, meta: dict) -> None:
        """Write every span and the run's metadata to one .npz file."""
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **cols)
