from random import Random

import pytest

from helpers import attach_gadget, flatten_unitary, random_graph_like_state
from zxparam.circuits import circuit_to_diagram, circuit_unitary, parse_circuit
from zxparam.diagram import (Diagram, EdgeKind, NKind, SpiderNetwork, VKind,
                             find_gadgets, to_graph_like, validate)
from zxparam.errors import RepeatedParameter
from zxparam.params import Phase
from zxparam.tensor import proportionality_ratio, tensor_eval


def bare_wire_network():
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    net.wire(i, o)
    return net


def test_bare_wire_converts_to_boundary_pair():
    d = to_graph_like(bare_wire_network())
    assert len(d.spiders()) == 0
    (a, b, kind), = list(d.edges())
    assert kind is EdgeKind.PLAIN
    assert validate(d) == []


def test_serial_spiders_fuse_and_add_phases():
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    s1 = net.node(NKind.Z, Phase(1))
    s2 = net.node(NKind.Z, Phase(1))
    o = net.node(NKind.OUTPUT, position=0)
    net.wire(i, s1); net.wire(s1, s2); net.wire(s2, o)
    d = to_graph_like(net)
    (v,) = d.spiders()
    assert d.phase(v).clifford == 2  # pi/2 + pi/2 = pi
    assert validate(d) == []


def test_cz_network_matches_tensor_oracle():
    c = parse_circuit("qreg 2\ncz 0 1")
    d = circuit_to_diagram(c)
    assert validate(d) == []
    spiders = d.spiders()
    assert len(spiders) == 2
    assert d.edge_kind(*spiders) is EdgeKind.HADAMARD
    ok, _, _ = proportionality_ratio(
        tensor_eval(d).amplitudes, flatten_unitary(circuit_unitary(c), 2), 1e-9)
    assert ok


def test_to_graph_like_idempotent_on_circuits():
    rng = Random(3)
    from zxparam.generate import random_circuit
    for i in range(10):
        c = random_circuit(Random(i), rng.randint(1, 4), rng.randint(2, 12), rng.randint(0, 3))
        d = circuit_to_diagram(c)
        # rebuild a raw network from the graph-like diagram and convert again
        net = SpiderNetwork()
        ids = {}
        for v in d.vertices():
            data = d.vertex(v)
            if data.kind is VKind.SPIDER:
                ids[v] = net.node(NKind.Z, data.phase)
            else:
                ids[v] = net.node(NKind.INPUT if data.kind is VKind.INPUT else NKind.OUTPUT,
                                  position=data.position)
        for a, b, kind in d.edges():
            if kind is EdgeKind.PLAIN:
                net.wire(ids[a], ids[b])
            else:
                h = net.node(NKind.HBOX)
                net.wire(ids[a], h); net.wire(h, ids[b])
        d2 = to_graph_like(net)
        assert len(d2.spiders()) == len(d.spiders())
        assert sorted(k.value for _, _, k in d2.edges()) == sorted(k.value for _, _, k in d.edges())


def test_repeated_parameter_rejected():
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    s1 = net.node(NKind.Z, Phase(0, (("t0", 1),)))
    s2 = net.node(NKind.Z, Phase(0, (("t0", 1),)))
    o = net.node(NKind.OUTPUT, position=0)
    net.wire(i, s1); net.wire(s1, s2); net.wire(s2, o)
    with pytest.raises(RepeatedParameter):
        to_graph_like(net)


def test_hopf_cancellation_of_parallel_hadamard_edges():
    # two X-Z pairs: CX followed by CX is identity; the parallel edges cancel
    c = parse_circuit("qreg 2\ncx 0 1\ncx 0 1")
    d = circuit_to_diagram(c)
    ok, _, _ = proportionality_ratio(
        tensor_eval(d).amplitudes, flatten_unitary(circuit_unitary(c), 2), 1e-9)
    assert ok


def test_hadamard_box_chain_cancels():
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    h1 = net.node(NKind.HBOX); h2 = net.node(NKind.HBOX)
    net.wire(i, h1); net.wire(h1, h2); net.wire(h2, o)
    d = to_graph_like(net)
    assert len(d.spiders()) == 0
    import numpy as np
    t = tensor_eval(d).amplitudes
    assert np.allclose(t / np.max(np.abs(t)), [1, 0, 0, 1])


def test_plain_plus_hadamard_parallel_pair_resolves_to_pi():
    # the fusion collapses the plain edge; the leftover Hadamard self-loop
    # becomes a pi phase on the fused spider
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    a = net.node(NKind.Z); b = net.node(NKind.Z)
    h = net.node(NKind.HBOX)
    net.wire(i, a); net.wire(a, b); net.wire(a, h); net.wire(h, b); net.wire(b, o)
    d = to_graph_like(net)
    assert validate(d) == []
    (v,) = d.spiders()
    assert d.phase(v).clifford == 2
    import numpy as np
    ok, _, _ = proportionality_ratio(tensor_eval(d).amplitudes, np.array([1, 0, 0, -1]), 1e-9)
    assert ok


def test_x_spider_with_self_loop():
    import numpy as np
    net = SpiderNetwork()
    i = net.node(NKind.INPUT, position=0)
    o = net.node(NKind.OUTPUT, position=0)
    x = net.node(NKind.X, Phase(2))
    net.wire(i, x); net.wire(x, o); net.wire(x, x)
    d = to_graph_like(net)
    ok, _, _ = proportionality_ratio(tensor_eval(d).amplitudes, np.array([0, 1, 1, 0]), 1e-9)
    assert ok


def test_validate_reports_constructed_violations():
    d = circuit_to_diagram(parse_circuit("qreg 2\ncz 0 1"))
    assert validate(d) == []
    a, b = d.spiders()
    # plain spider-spider edge
    bad = d.copy()
    bad.remove_edge(a, b)
    bad.add_edge(a, b, EdgeKind.PLAIN)
    violations = validate(bad)
    assert any("plain spider-spider" in v for v in violations)
    # self-loop
    bad = d.copy()
    bad._adj[a][a] = EdgeKind.HADAMARD
    violations = validate(bad)
    assert any("self-loop" in v and str(a) in v for v in violations)
    # stale boundary-neighbour count
    bad = d.copy()
    bad._boundary_count[a] += 1
    violations = validate(bad)
    assert any("boundary neighbours" in v and str(a) in v for v in violations)
    # one parameter on two spiders: the phases are the only record of its owner
    bad = d.copy()
    bad.set_phase(a, Phase(0, (("t9", 1),)))
    bad.set_phase(b, Phase(1, (("t9", -1),)))
    violations = validate(bad)
    assert f"parameter 't9' on spiders {a} and {b}" in violations


def test_find_gadgets_empty_without_internal_spiders():
    d = circuit_to_diagram(parse_circuit("qreg 2\ncz 0 1"))
    assert find_gadgets(d) == []


def test_find_gadgets_hand_built():
    d = Diagram()
    outs = [d.add_boundary(VKind.OUTPUT, q) for q in range(2)]
    v1 = d.add_spider(Phase(0)); v2 = d.add_spider(Phase(0))
    d.add_edge(v1, outs[0], EdgeKind.PLAIN); d.add_edge(v2, outs[1], EdgeKind.PLAIN)
    axis, leaf = attach_gadget(Random(0), d, [v1, v2], 0, Phase.of("a"))
    (g,) = find_gadgets(d)
    assert g.axis_spider == axis and g.phase_spider == leaf
    assert g.neighbourhood == frozenset({v1, v2})


def test_find_gadgets_matches_independent_scan():
    from zxparam.circuits import circuit_to_diagram
    from zxparam.generate import random_circuit
    from zxparam.rewrite import simplify
    rng = Random(11)
    for i in range(10):
        c = random_circuit(Random(100 + i), 6, rng.randint(8, 24), rng.randint(1, 5))
        term, _ = simplify(circuit_to_diagram(c))
        expected = []
        for v in sorted(term.spiders()):
            ph = term.phase(v)
            if not (ph.is_clifford() and ph.clifford in (0, 2)) or not term.is_internal(v):
                continue
            legs = [n for n in term.neighbors(v)
                    if term.degree(n) == 1 and term.vertex(n).kind is VKind.SPIDER]
            if len(legs) == 1:
                expected.append((v, legs[0]))
        got = [(g.axis_spider, g.phase_spider) for g in find_gadgets(term)]
        assert got == expected


def toggle_one_by_one(d, a, others):
    """Reference for Diagram.complement: one edge update at a time."""
    for b in others:
        if d.has_edge(a, b):
            d.remove_edge(a, b)
        else:
            d.add_edge(a, b, EdgeKind.HADAMARD)


@pytest.mark.parametrize("seed", range(20))
def test_complement_equals_pairwise_toggles(seed):
    rng = Random(seed)
    d = random_graph_like_state(Random(f"complement/{seed}"), rng.randint(1, 4), rng.randint(2, 14),
                                rng.randint(0, 3), edge_p=rng.uniform(0.1, 0.8))
    reference = d.copy()
    for _ in range(4):
        a = rng.choice(d.spiders())
        others = rng.sample([v for v in d.spiders() if v != a], rng.randint(0, len(d.spiders()) - 1))
        d.complement(a, others)
        toggle_one_by_one(reference, a, others)
        assert set(d.edges()) == set(reference.edges())
        # same insertion order too: buffering and extraction read adjacency in order
        assert {v: list(n.items()) for v, n in d._adj.items()} == \
            {v: list(n.items()) for v, n in reference._adj.items()}
        assert d._boundary_count == reference._boundary_count
        assert validate(d) == [] and validate(reference) == []
