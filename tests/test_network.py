"""The circuit network of Z spiders against the per-gate reference network,
and the rules by which ``to_graph_like`` resolves wires."""

from random import Random

import pytest

from helpers import circuit_state_diagram
from reference_network import reference_network
from zxparam.circuits import Circuit, Gate, GateKind, circuit_to_diagram, circuit_to_network, parse_circuit
from zxparam.diagram import Diagram, EdgeKind, NKind, SpiderNetwork, VKind, to_graph_like, validate
from zxparam.errors import ConversionError
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


# -- the wire-resolution rules of to_graph_like -------------------------------


def layout(d: Diagram):
    """Every vertex with its kind, phase, position and neighbours in order."""
    return [(v, d.vertex(v).kind.value, d.phase(v), d.vertex(v).position,
             [(n, d.edge_kind(v, n).value) for n in d.neighbors(v)]) for v in d.vertices()]


def boundary_pair():
    net = SpiderNetwork()
    return net, net.node(NKind.INPUT, position=0), net.node(NKind.OUTPUT, position=0)


def test_three_hadamard_wires_leave_one_edge_at_the_last():
    net, i, o = boundary_pair()
    a, b, c = net.node(NKind.Z, Phase.of("t0")), net.node(NKind.Z, Phase(1)), net.node(NKind.Z, Phase(2))
    net.wire(i, a)
    net.wire(a, b, True)
    net.wire(a, c, True)
    net.wire(b, a, True)
    net.wire(a, b, True)
    net.wire(b, o)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "plain")]),
        (1, "output", Phase(), 0, [(3, "plain")]),
        (2, "spider", Phase.of("t0"), None, [(0, "plain"), (4, "hadamard"), (3, "hadamard")]),
        (3, "spider", Phase(1), None, [(2, "hadamard"), (1, "plain")]),
        (4, "spider", Phase(2), None, [(2, "hadamard")]),
    ]


@pytest.mark.parametrize("wires, neighbours", [
    # the plain wire is kept, where it was added; the Hadamard wires cancel
    ([("z", "o", False), ("z", "o", True), ("o", "z", True), ("i", "z", False)], [1, 0]),
    ([("z", "o", True), ("i", "z", False), ("z", "o", False), ("z", "o", True)], [0, 1]),
    ([("z", "o", False), ("i", "z", False), ("z", "o", False)], [1, 0]),
])
def test_a_plain_wire_to_a_boundary_survives_an_even_number_of_hadamard_wires(wires, neighbours):
    net, i, o = boundary_pair()
    nodes = {"i": i, "o": o, "z": net.node(NKind.Z, Phase.of("t0"))}
    for a, b, hadamard in wires:
        net.wire(nodes[a], nodes[b], hadamard)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "plain")]),
        (1, "output", Phase(), 0, [(2, "plain")]),
        (2, "spider", Phase.of("t0"), None, [(n, "plain") for n in neighbours]),
    ]


@pytest.mark.parametrize("hadamard_first", [True, False])
def test_a_plain_and_a_hadamard_wire_to_one_boundary_raise(hadamard_first):
    net, i, o = boundary_pair()
    z = net.node(NKind.Z)
    net.wire(i, z)
    net.wire(z, o, hadamard_first)
    net.wire(z, o, not hadamard_first)
    with pytest.raises(ConversionError, match="unresolved parallel edge"):
        to_graph_like(net)


def test_a_hadamard_self_loop_adds_pi_and_a_plain_one_vanishes():
    net, i, o = boundary_pair()
    a, b = net.node(NKind.Z, Phase(1)), net.node(NKind.Z, Phase.of("t0"))
    net.wire(i, a)
    net.wire(a, a, True)
    net.wire(a, b, True)
    net.wire(b, b)
    net.wire(b, o)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "plain")]),
        (1, "output", Phase(), 0, [(3, "plain")]),
        (2, "spider", Phase(3), None, [(0, "plain"), (3, "hadamard")]),
        (3, "spider", Phase.of("t0"), None, [(2, "hadamard"), (1, "plain")]),
    ]


def test_an_x_node_keeps_its_self_loops_through_the_colour_change():
    net, i, o = boundary_pair()
    x, z = net.node(NKind.X, Phase(1)), net.node(NKind.Z, Phase.of("t0"))
    net.wire(i, x)
    net.wire(x, x)
    net.wire(x, x, True)
    net.wire(x, z)
    net.wire(z, o)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "hadamard")]),
        (1, "output", Phase(), 0, [(3, "plain")]),
        (2, "spider", Phase(3), None, [(0, "hadamard"), (3, "hadamard")]),
        (3, "spider", Phase.of("t0"), None, [(2, "hadamard"), (1, "plain")]),
    ]


def test_an_x_node_behind_an_h_box_fuses_with_its_z_neighbours():
    net, i, o = boundary_pair()
    z, h = net.node(NKind.Z, Phase.of("t0")), net.node(NKind.HBOX)
    x, z2 = net.node(NKind.X, Phase(2)), net.node(NKind.Z, Phase.of("t1"))
    net.wire(i, z)
    net.wire(z, h)
    net.wire(h, x)
    net.wire(x, z2, True)
    net.wire(x, o)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "plain")]),
        (1, "output", Phase(), 0, [(2, "hadamard")]),
        (2, "spider", Phase(2, (("t0", 1), ("t1", 1))), None, [(0, "plain"), (1, "hadamard")]),
    ]


def test_two_h_boxes_in_series_leave_their_wires_parity():
    net, i, o = boundary_pair()
    a, h1 = net.node(NKind.Z, Phase.of("t0")), net.node(NKind.HBOX)
    h2, b = net.node(NKind.HBOX), net.node(NKind.Z, Phase(1))
    net.wire(i, a)
    net.wire(a, h1)
    net.wire(h1, h2, True)
    net.wire(h2, b)
    net.wire(b, o)
    assert layout(to_graph_like(net)) == [
        (0, "input", Phase(), 0, [(2, "plain")]),
        (1, "output", Phase(), 0, [(3, "plain")]),
        (2, "spider", Phase.of("t0"), None, [(0, "plain"), (3, "hadamard")]),
        (3, "spider", Phase(1), None, [(1, "plain"), (2, "hadamard")]),
    ]


@pytest.mark.parametrize("wires, message", [
    ([("i", "o", False), ("i", "o", False)], "unresolved parallel edge 0-1"),
    ([("i", "o", True), ("o", "i", True)], "unresolved parallel edge 1-0"),
    ([("i", "o", False), ("i", "i", True)], "unresolved self-loop 0-0"),
])
def test_a_repeated_boundary_wire_raises(wires, message):
    net, i, o = boundary_pair()
    nodes = {"i": i, "o": o}
    for a, b, hadamard in wires:
        net.wire(nodes[a], nodes[b], hadamard)
    with pytest.raises(ConversionError, match=message):
        to_graph_like(net)


@pytest.mark.parametrize("wires, message", [
    ([("h", "h"), ("h", "z")], "Hadamard box 3 has a self-loop"),
    ([("z", "h"), ("h", "h")], "Hadamard box 3 has a self-loop"),
    ([("h", "h"), ("h", "h")], "Hadamard box 3 has a self-loop"),
    ([("h", "h")], "Hadamard box 3 must have exactly 2 wires, has 1"),
])
def test_an_h_box_with_a_self_loop_raises(wires, message):
    net, i, o = boundary_pair()
    nodes = {"z": net.node(NKind.Z), "h": net.node(NKind.HBOX)}
    net.wire(i, nodes["z"])
    net.wire(nodes["z"], o)
    for a, b in wires:
        net.wire(nodes[a], nodes[b])
    with pytest.raises(ConversionError, match=message):
        to_graph_like(net)
