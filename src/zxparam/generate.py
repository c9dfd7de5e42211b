"""Seeded random circuits, diagrams and rule instances for tests and scripts."""

from __future__ import annotations

import itertools
from random import Random
from typing import List, Tuple

from .circuits import Circuit, Gate, GateKind
from .diagram import Diagram, EdgeKind, VKind, validate
from .params import Phase

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


def random_graph_like_state(rng: Random, n_outputs: int, n_internal: int,
                            n_params: int, edge_p: float = 0.5) -> Diagram:
    """A random graph-like state: boundary spiders on every output wire plus
    internal spiders, random Hadamard edges, Clifford phases and parameters
    sprinkled on internal spiders."""
    d = Diagram()
    boundary_spiders = []
    internal = []
    for q in range(n_outputs):
        out = d.add_boundary(VKind.OUTPUT, q)
        s = d.add_spider(Phase(rng.randrange(4)))
        d.add_edge(s, out, EdgeKind.PLAIN)
        boundary_spiders.append(s)
    for _ in range(n_internal):
        internal.append(d.add_spider(Phase(rng.randrange(4))))
    spiders = boundary_spiders + internal
    for a, b in itertools.combinations(spiders, 2):
        if rng.random() < edge_p:
            d.add_edge(a, b, EdgeKind.HADAMARD)
    # keep internal spiders connected so scalar components are rare
    for v in internal:
        if d.degree(v) == 0 and spiders != [v]:
            other = rng.choice([s for s in spiders if s != v])
            d.add_edge(v, other, EdgeKind.HADAMARD)
    targets = rng.sample(internal, min(n_params, len(internal))) if internal else []
    for i, v in enumerate(targets):
        d.set_phase(v, Phase(rng.randrange(4), ((f"t{i}", 1),)))
    report = validate(d)
    assert report.ok, report.violations
    return d


def attach_gadget(rng: Random, d: Diagram, neighbourhood: List[int], parity: int,
                  phase: Phase) -> Tuple[int, int]:
    """Attach a phase gadget with the given axis parity over ``neighbourhood``
    and ``phase`` on its leaf."""
    axis = d.add_spider(Phase(2 * parity))
    leaf = d.add_spider(phase)
    d.add_edge(axis, leaf, EdgeKind.HADAMARD)
    for w in neighbourhood:
        d.add_edge(axis, w, EdgeKind.HADAMARD)
    return axis, leaf
