"""The one test helper shared by several files: a labelled slice of one Grover iteration."""

from dataclasses import replace

from grover_kit.circuit import Circuit, build_grover_circuit, grover_step_labels


def grover_ops(spec, step=""):
    """The ops of build_grover_circuit(spec at one iteration) whose step label starts with
    "k1 " + `step`, as a circuit: the oracle-plus-diffuser block, its oracle ("2.") or its
    diffuser ("3."). Slicing by label also checks the labels that --trace groups by."""
    one = replace(spec, iterations=1)
    pairs = zip(grover_step_labels(one), build_grover_circuit(one).ops)
    ops = tuple(op for label, op in pairs if label.startswith(f"k1 {step}"))
    return Circuit(one.circuit_qubits, ops)
