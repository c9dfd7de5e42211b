"""The circuit network of Z spiders against the per-gate reference network."""

from random import Random

import pytest

from helpers import circuit_state_diagram
from reference_network import reference_network
from zxparam.circuits import Circuit, Gate, GateKind, circuit_to_diagram, circuit_to_network, parse_circuit
from zxparam.diagram import Diagram, EdgeKind, NKind, SpiderNetwork, VKind, to_graph_like, validate
from zxparam.generate import random_circuit
from zxparam.params import Phase


def phase_polynomial_circuit(rng: Random, n: int, n_gates: int, n_params: int) -> Circuit:
    """CX, X and rz gates between two layers of H on random qubits."""
    gates = [Gate(GateKind.H, (q,)) for q in range(n) if rng.random() < 0.5]
    params = 0
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.4 and n > 1:
            gates.append(Gate(GateKind.CX, tuple(rng.sample(range(n), 2))))
        elif r < 0.55:
            gates.append(Gate(GateKind.X, (rng.randrange(n),)))
        elif params < n_params:
            gates.append(Gate(GateKind.RZ_PARAM, (rng.randrange(n),), param=f"t{params}"))
            params += 1
        else:
            gates.append(Gate(GateKind.RZ_CLIFFORD, (rng.randrange(n),), k=rng.randrange(4)))
    gates += [Gate(GateKind.H, (q,)) for q in range(n) if rng.random() < 0.5]
    return Circuit(n, gates)


def seeded_circuits():
    for seed in range(400):
        rng = Random(seed)
        n, g = rng.randint(1, 8), rng.randint(0, 60)
        yield f"random {seed}", random_circuit(rng, n, g, rng.randint(0, min(g, 8)))
    for seed in range(200):
        rng = Random(10_000 + seed)
        yield f"phase polynomial {seed}", phase_polynomial_circuit(
            rng, rng.randint(1, 7), rng.randint(0, 50), rng.randint(0, 8))


# runs that resume after two or more Hadamards, X after Hadamards, and
# Hadamards between the input and the first spider
EDGE_CASES = [
    "qreg 1\nh 0\nh 0\n",
    "qreg 1\ns 0\nh 0\nh 0\ns 0\n",
    "qreg 1\nrz(t0) 0\nh 0\nh 0\nh 0\nx 0\nrz(t1) 0\n",
    "qreg 1\nx 0\nx 0\n",
    "qreg 1\nh 0\nx 0\n",
    "qreg 1\nh 0\ns 0\n",
    "qreg 1\nh 0\nh 0\ns 0\nh 0\n",
    "qreg 2\nh 1\ncx 0 1\nh 1\nh 1\ncx 0 1\n",
    "qreg 2\ncz 0 1\ncz 0 1\nh 0\nh 0\nh 0\nh 0\nz 0\n",
]


def reference_state_network(c: Circuit) -> SpiderNetwork:
    """``circuit_state_diagram``'s input replacement on the reference network."""
    net = reference_network(c)
    for v, kind in list(net.kinds.items()):
        if kind is NKind.INPUT:
            net.kinds[v] = NKind.X
            net.positions.pop(v, None)
    return net


def description(d: Diagram):
    """Everything of a diagram but the order of non-boundary neighbours."""
    vertices = [(v, d.vertex(v).kind, d.phase(v), d.vertex(v).position,
                 d.boundary_wires(v) if d.vertex(v).kind is VKind.SPIDER else None) for v in d.vertices()]
    edges = sorted((a, b, kind.value) for a, b, kind in d.edges())
    return vertices, edges, sorted(d.param_registry.items())


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_equal_the_per_gate_reference(source):
    c = parse_circuit(source)
    assert description(circuit_to_diagram(c)) == description(to_graph_like(reference_network(c)))
    assert description(circuit_state_diagram(c)) == description(to_graph_like(reference_state_network(c)))


def test_diagrams_equal_the_per_gate_reference():
    # ids, phases, edge kinds, parameter registry and the order of each
    # spider's boundary wires, which decides the ids of boundary pivots
    for name, c in seeded_circuits():
        assert description(circuit_to_diagram(c)) == description(to_graph_like(reference_network(c))), name
        assert (description(circuit_state_diagram(c))
                == description(to_graph_like(reference_state_network(c)))), name


def test_circuit_network_has_only_z_spiders_and_boundaries():
    for name, c in seeded_circuits():
        kinds = set(circuit_to_network(c).kinds.values())
        assert kinds <= {NKind.Z, NKind.INPUT, NKind.OUTPUT}, name


def two_spiders(n_wires: int) -> SpiderNetwork:
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    a, b = net.node(NKind.Z, Phase(1)), net.node(NKind.Z, Phase.of("t0"))
    net.wire(i, a)
    for _ in range(n_wires):
        net.wire(a, b, True)
    net.wire(b, o)
    return net


@pytest.mark.parametrize("n_wires, edges", [(1, 3), (2, 2), (3, 3), (4, 2)])
def test_parallel_flagged_wires_cancel_in_pairs(n_wires, edges):
    d = to_graph_like(two_spiders(n_wires))
    assert validate(d) == []
    assert len(d.spiders()) == 2 and sum(1 for _ in d.edges()) == edges


def test_flagged_wire_into_an_x_node_is_a_plain_merge():
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    z, x = net.node(NKind.Z, Phase.of("t0")), net.node(NKind.X)
    net.wire(i, z)
    net.wire(z, x, True)  # Z -H- X is Z - Z after colour change
    net.wire(x, o, True)  # X -H- output is a plain boundary wire
    d = to_graph_like(net)
    (v,) = d.spiders()
    assert d.phase(v) == Phase.of("t0")
    assert sorted(kind.value for _, _, kind in d.edges()) == ["plain", "plain"]
    assert d.edge_kind(v, d.outputs()[0]) is EdgeKind.PLAIN
