"""Seeded random circuits for the tests, the scripts and the benchmark."""

from __future__ import annotations

from random import Random
from typing import List

from .circuits import Circuit, Gate, GateKind

CLIFFORD_1Q = [GateKind.H, GateKind.S, GateKind.SDG, GateKind.Z, GateKind.X, GateKind.RZ_CLIFFORD]
CLIFFORD_2Q = [GateKind.CZ, GateKind.CX]


def random_circuit(rng: Random, n_qubits: int, n_gates: int, n_params: int) -> Circuit:
    """A random Clifford circuit with exactly ``n_params`` symbolic phase gates."""
    if n_params > n_gates:
        raise ValueError("more parameters than gates")
    gates: List[Gate] = []
    for _ in range(n_gates - n_params):
        if n_qubits >= 2 and rng.random() < 0.4:
            kind = rng.choice(CLIFFORD_2Q)
            q1, q2 = rng.sample(range(n_qubits), 2)
            gates.append(Gate(kind, (q1, q2)))
        else:
            kind = rng.choice(CLIFFORD_1Q)
            q = rng.randrange(n_qubits)
            if kind is GateKind.RZ_CLIFFORD:
                gates.append(Gate(kind, (q,), k=rng.randrange(4)))
            else:
                gates.append(Gate(kind, (q,)))
    positions = sorted(rng.sample(range(n_gates), n_params)) if n_params else []
    for i, pos in enumerate(positions):
        gates.insert(pos, Gate(GateKind.RZ_PARAM, (rng.randrange(n_qubits),), param=f"t{i}"))
    c = Circuit(n_qubits, gates)
    c.validate()
    return c
