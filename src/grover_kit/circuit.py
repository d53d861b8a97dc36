"""Gate circuits for Grover search: compilation, execution, serialization.

A circuit is a fixed qubit count plus an ordered tuple of `Gate` ops. A
`Gate` is H, X or Z on a target qubit; X and Z may also carry control
qubits, which makes them MCX and MCZ. `build_grover_circuit` compiles a
`GroverSpec` into one gate sequence: a preparation, then one
oracle-plus-diffuser block per iteration, each op labelled by its step
(`grover_step_labels`). The phase oracle for the marked bitstrings comes in
two interchangeable styles:

* ``mcz``: width n, the oracle is an X-sandwich around a multi-controlled Z
  acting on the data qubits themselves.
* ``mcx_ancilla``: width n+1, one extra qubit (always the highest index) is
  prepared in (|0>-|1>)/sqrt(2) and a multi-controlled X targets it, so the
  phase appears on the data register by kickback.

The diffuser on n qubits (H layer, X layer, MCZ, X layer, H layer)
realizes exactly -(2|u><u| - Id) where u is the uniform superposition; the
leading minus sign is a global phase per iteration and is kept, not hidden.

Two executors compute Grover states. `run_steps` applies the compiled
gates one by one to one buffer and yields the state after each step; it is
the reference, behind ``run --trace`` and ``load``, and `run` is it with
one step. `grover_data_state` computes the data register with no gates:
the state keeps one value on the marked strings and one on the rest, so
each iteration is a few scalar operations of `grover_recurrence`. The
commands write no state from it: untraced ``run`` and ``sample`` read
`grover_pair`, and ``sweep`` reads the recurrence row by row.
`dense_unitary` applies the gates to the identity matrix. The tests in
tests/test_differential.py hold the two paths, the dense matrices, the
closed form and exact rationals together within tolerances that grow with k.

Text format (one op per line, ``#`` starts a comment)::

    # qubits: 3
    H 0
    X 2
    MCX c=0,1 t=2
    MCZ c=0 t=1

``H 0`` parses to ``Gate("H", 0)`` and ``MCX c=0,1 t=2`` to
``Gate("X", 2, (0, 1))``. The ``# qubits: N`` header records the width so
that trailing idle qubits survive a round trip; without it the width is
inferred as max index + 1.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from grover_kit.spec import GroverSpec, OracleStyle, check_n_qubits
from grover_kit.statevector import (
    NORM_TOL,
    StateVector,
    _apply_multicontrolled_inplace,
    _apply_single_inplace,
)

MAX_DENSE_QUBITS = 10
# Running a circuit costs about one pass over 2^wires amplitudes per op, plus a fixed cost per
# op, so ops x (2^wires + LOAD_OP_WORK) bounds its work in amplitude updates. H at n=20 takes
# 8.3 ms, 7.9 ns per amplitude, so this limit is about 34 s.
MAX_LOAD_WORK = 1 << 32
# Parsing, running and reporting an `H 0` op at 2 wires took 11-13 us, 1,200-1,600 updates'
# worth, on a 2-vCPU machine. This bounds a file at 2 wires to 2,093,063 ops.
LOAD_OP_WORK = 1 << 11


def _check_index(q) -> None:
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 0:
        raise IndexError(f"qubit index must be a non-negative integer, got {q!r}")


@dataclass(frozen=True)
class Gate:
    """H, X or Z on `target`, applied only where every control qubit is 1.

    X and Z may carry controls (MCX, MCZ); H may not.
    """

    kind: str
    target: int
    controls: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        kinds = ("X", "Z") if self.controls else ("H", "X", "Z")
        if self.kind not in kinds:
            raise ValueError(f"{self.kind!r} with {len(self.controls)} controls is not in {kinds}")
        for q in (*self.controls, self.target):
            _check_index(q)
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate control qubits in {self.controls}")
        if self.target in self.controls:
            raise ValueError(f"target {self.target} also listed as a control")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate ops on a fixed number of qubits."""

    n_qubits: int
    ops: tuple[Gate, ...]

    def __post_init__(self):
        check_n_qubits(self.n_qubits)
        object.__setattr__(self, "ops", tuple(self.ops))
        for i, op in enumerate(self.ops):
            for q in op.qubits:
                if q >= self.n_qubits:
                    raise IndexError(
                        f"op {i} ({op!r}) touches qubit {q} but the circuit has {self.n_qubits} qubits"
                    )

    def __len__(self) -> int:
        return len(self.ops)


Labelled = tuple[tuple[str, Gate], ...]
# `_grover_blocks(spec)`. Each function below that takes `blocks` reads the pair its caller
# built already, so that one command builds it once.
Blocks = tuple[Labelled, Labelled]


def _grover_blocks(spec: GroverSpec) -> Blocks:
    """The Grover gate sequence as (preparation, one oracle-plus-diffuser block).

    This is the only place that constructs Grover ops; `build_grover_circuit`,
    `grover_step_labels`, `_trace_steps` and `_grover_ops` are its only readers. The
    full circuit is the preparation followed by ``spec.iterations`` copies of
    the block; the ops are frozen, so every copy shares the same op objects.
    The oracle alone is the ops labelled "k1 2.", the diffuser alone those
    labelled "k1 3.", of the circuit of one iteration.

    Label scheme (toolkit step numbering): step 1 is register preparation
    ("1.0" the ancilla bit flip when present, "1.1" the H layer over every
    wire), step 2 the oracle, step 3 the diffuser. Within step 2 the
    per-marked-string sandwich is "2.1[bits]" (X flips), "2.2[bits]"
    (controlled gate), "2.3[bits]" (X flips undone). Step 3 is "3.1" H
    layer, "3.2" X layer, "3.3" MCZ, "3.4" X layer, "3.5" H layer. In the
    full circuit the block labels carry the 1-based iteration as a prefix,
    e.g. "k2 3.4". Runs of ops sharing a label are the steps of a trace.

    One data qubit leaves no room for a controlled gate, so the block is
    empty then; GroverSpec already refuses iterations >= 1 for it.
    """
    n = spec.n_qubits
    ancilla = spec.style is OracleStyle.MCX_ANCILLA
    prep = (("1.0", Gate("X", n)),) if ancilla else ()
    prep += tuple(("1.1", Gate("H", q)) for q in range(spec.circuit_qubits))
    if n < 2:
        return prep, ()
    reflect = Gate("Z", n - 1, tuple(range(n - 1)))
    phase = Gate("X", n, tuple(range(n))) if ancilla else reflect
    block: list[tuple[str, Gate]] = []
    for bits in spec.marked:
        flips = [Gate("X", q) for q, ch in enumerate(bits) if ch == "0"]
        block += [(f"2.1[{bits}]", op) for op in flips]
        block.append((f"2.2[{bits}]", phase))
        block += [(f"2.3[{bits}]", op) for op in flips]
    h_layer = [Gate("H", q) for q in range(n)]
    x_layer = [Gate("X", q) for q in range(n)]
    for label, layer in (
        ("3.1", h_layer), ("3.2", x_layer), ("3.3", [reflect]), ("3.4", x_layer), ("3.5", h_layer)
    ):
        block += [(label, op) for op in layer]
    return prep, tuple(block)


def build_grover_circuit(spec: GroverSpec, blocks: Blocks | None = None) -> Circuit:
    """Preparation, then `spec.iterations` oracle-plus-diffuser blocks."""
    prep, block = _grover_blocks(spec) if blocks is None else blocks
    ops = tuple(op for _, op in prep) + tuple(op for _, op in block) * spec.iterations
    return Circuit(spec.circuit_qubits, ops)


def grover_step_labels(spec: GroverSpec, blocks: Blocks | None = None) -> tuple[str, ...]:
    """Step label for each op of build_grover_circuit(spec), same order."""
    prep, block = _grover_blocks(spec) if blocks is None else blocks
    labels = tuple(label for label, _ in prep)
    return labels + tuple(
        f"k{it} {label}" for it in range(1, spec.iterations + 1) for label, _ in block
    )


def _trace_steps(spec: GroverSpec, blocks: Blocks | None = None) -> int:
    """The runs of equal `grover_step_labels(spec)`, counted in O(m*n) without building the
    circuit: the "k<i>" prefix keeps the runs of adjacent blocks apart."""
    prep, block = (len(list(itertools.groupby(label for label, _ in part)))
                   for part in (_grover_blocks(spec) if blocks is None else blocks))
    return prep + spec.iterations * block


def _grover_ops(spec: GroverSpec, blocks: Blocks) -> int:
    """The ops of build_grover_circuit(spec), counted in O(m*n) without building it."""
    prep, block = blocks
    return len(prep) + spec.iterations * len(block)


def _apply(amps: np.ndarray, n_qubits: int, op: Gate) -> None:
    """Apply one op in place; `amps` may carry trailing batch axes.

    Uncontrolled and controlled ops go through their own kernel entry points.
    These are looked up as module globals on every call, so a wrapper
    installed on them from outside sees every op and can tell X from MCX.
    """
    if op.controls:
        _apply_multicontrolled_inplace(amps, n_qubits, op.kind, op.controls, op.target)
    else:
        _apply_single_inplace(amps, n_qubits, op.kind, op.target)


def run_steps(
    circuit: Circuit, ends: Iterable[int], initial: StateVector | None = None
) -> Iterator[StateVector]:
    """The state after the first `end` ops for each of the ascending `ends`, the ops applied
    in order to one buffer: a copy of `initial`, or |0...0> in float64. Each state is a
    read-only view of the buffer, which the next step overwrites, validated on construction:
    a norm drift raises at its step, and nothing is renormalized."""
    n = circuit.n_qubits
    if initial is None:  # real: every gate is real, so the state stays real
        amps = np.zeros(1 << n)
        amps[0] = 1.0
    elif initial.n_qubits != n:
        raise ValueError(f"initial state has {initial.n_qubits} qubits, circuit has {n}")
    else:
        amps = initial.amps.copy()
    done = 0
    for end in ends:
        for op in circuit.ops[done:end]:
            _apply(amps, n, op)
        done = end
        amps.flags.writeable = False  # writable again only once the caller asks for more
        yield StateVector(n, amps.view(), copy=False)
        amps.flags.writeable = True


def run(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """The state after every op, from `initial` in its dtype: `run_steps` with one step."""
    return next(run_steps(circuit, (len(circuit),), initial))


def grover_recurrence(spec: GroverSpec) -> Iterator[tuple[float, float]]:
    """(v, u) after k = 0, 1, 2, ... Grover iterations, without end.

    From the uniform start every Grover state has one amplitude on the m
    marked entries and one on the other N - m (Boyer, Brassard, Hoyer and
    Tapp, quant-ph/9605034). `v` and `u` are those two times sqrt(N), both 1
    at first. The oracle negates v; the gate diffuser -(2|s><s| - Id),
    global minus sign included, subtracts d = 2*(m*v + (N - m)*u)/N from
    both. N is a power of two, so v and u stay exact dyadic rationals while
    they fit in 53 bits.
    """
    dim, m = 1 << spec.n_qubits, spec.n_marked
    v = u = 1.0
    while True:
        yield v, u
        v = -v
        d = 2.0 * (m * v + (dim - m) * u) / dim
        v, u = v - d, u - d


def check_pair(spec: GroverSpec, k: int, v: float, u: float) -> None:
    """Raise ValueError unless the recurrence's (v, u) after k iterations describe a unit
    state: sqrt((m*v^2 + (N - m)*u^2)/N) must be 1 within NORM_TOL, as a validated state's
    norm must. So a drifting recurrence raises wherever the pair is read, never renormalized."""
    dim, m = 1 << spec.n_qubits, spec.n_marked
    norm = math.sqrt((m * v * v + (dim - m) * u * u) / dim)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"row {k}: state norm {norm} deviates from 1 by more than {NORM_TOL}")


def grover_pair(spec: GroverSpec) -> tuple[float, float]:
    """(v, u) of `grover_recurrence` after ``spec.iterations`` iterations, checked by
    `check_pair`. The data register is u/sqrt(N) with v/sqrt(N) on the marked entries."""
    v, u = next(itertools.islice(grover_recurrence(spec), spec.iterations, None))
    check_pair(spec, spec.iterations, v, u)
    return v, u


def grover_data_state(spec: GroverSpec) -> StateVector:
    """The data register after ``spec.iterations`` Grover iterations, without gates.

    The state is written once from `grover_pair`, u/sqrt(N) with v/sqrt(N)
    on the marked entries, and validated, never renormalized. Both styles
    give this data register: the ``mcx_ancilla`` gate state is it times
    (|0>-|1>)/sqrt(2).
    """
    dim = 1 << spec.n_qubits
    v, u = grover_pair(spec)
    root = math.sqrt(dim)
    amps = np.full(dim, u / root, dtype=np.complex128)
    amps[[int(bits, 2) for bits in spec.marked]] = v / root
    return StateVector(spec.n_qubits, amps, copy=False)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit, columns = images of basis states."""
    if circuit.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense matrix limited to {MAX_DENSE_QUBITS} qubits, circuit has {circuit.n_qubits}"
        )
    out = np.eye(1 << circuit.n_qubits, dtype=np.complex128)
    for op in circuit.ops:
        _apply(out, circuit.n_qubits, op)
    return out


def op_to_text(op: Gate) -> str:
    """One-line text form of a single op, as used by the circuit format."""
    if not op.controls:
        return f"{op.kind} {op.target}"
    ctrl = ",".join(str(c) for c in op.controls)
    return f"MC{op.kind} c={ctrl} t={op.target}"


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize to the line format described in the module docstring."""
    lines = [
        f"# qubits: {circuit.n_qubits}",
        "# qubit 0 is the leftmost bitstring character (most significant index bit)",
    ]
    lines.extend(op_to_text(op) for op in circuit.ops)
    return "\n".join(lines) + "\n"


def _check_load_work(ops: int, width: int) -> None:
    """Raise ValueError when running `ops` ops at `width` wires passes MAX_LOAD_WORK, as
    `circuit_from_text` refuses such a file; a width out of range is the fault to name."""
    # Past 32 wires one op is over the bound; testing that first keeps 1 << width small.
    if width > 32 or ops * ((1 << max(width, 0)) + LOAD_OP_WORK) > MAX_LOAD_WORK:
        check_n_qubits(width)
        raise ValueError(
            f"{ops} ops x (2^{width} + {LOAD_OP_WORK}) amplitude updates exceed {MAX_LOAD_WORK}"
        )


def _parse_qubit(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected a qubit index, got {token!r}") from None


def circuit_from_text(text: str) -> Circuit:
    """Parse the line format back into a Circuit.

    Errors name the line number and the offending token. Width comes from a
    ``# qubits: N`` comment when present, otherwise max index + 1. Parsing
    stops as soon as ops x (2^width + LOAD_OP_WORK), width being the declared
    one or max index + 1 so far, exceeds MAX_LOAD_WORK.
    """
    ops: list[Gate] = []
    distinct: dict[Gate, Gate] = {}  # equal ops share one object, so a held op costs a pointer
    declared_width: int | None = None
    max_index = -1
    # The lines of text.splitlines(), without holding them all: \n ends each StringIO line.
    lines = (part for line in io.StringIO(text) for part in line.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        comment = raw.split("#", 1)[1].strip() if "#" in raw else ""
        if comment.startswith("qubits:"):
            try:
                declared_width = int(comment.removeprefix("qubits:").strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad qubit count in {comment!r}") from None
        if not line:
            continue
        mnemonic, *args = line.split()
        try:
            if mnemonic in ("H", "X", "Z"):
                if len(args) != 1:
                    raise ValueError(f"{mnemonic} takes exactly one qubit index")
                op = Gate(mnemonic, _parse_qubit(args[0]))
            elif mnemonic in ("MCX", "MCZ"):
                if len(args) != 2 or not args[0].startswith("c=") or not args[1].startswith("t="):
                    raise ValueError(f"expected '{mnemonic} c=<q,q,...> t=<q>', got {line!r}")
                controls = tuple(_parse_qubit(q) for q in args[0][2:].split(",") if q)
                if not controls:
                    raise ValueError(f"{mnemonic} needs at least one control")
                op = Gate(mnemonic[2:], _parse_qubit(args[1][2:]), controls)
            else:
                raise ValueError(f"unknown gate {mnemonic!r}, expected H, X, Z, MCX or MCZ")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        max_index = max(max_index, *op.qubits)
        ops.append(distinct.setdefault(op, op))
        _check_load_work(len(ops), max_index + 1 if declared_width is None else declared_width)
    if declared_width is None:
        if max_index < 0:
            raise ValueError("no ops and no '# qubits: N' header, width unknown")
        width = max_index + 1
    else:
        width = declared_width
    return Circuit(width, tuple(ops))
