"""The stabiliser checks against their direct definitions: ``_gf2_rref``
against enumeration of the solution set, and the ZZ pairs read off gadget
groups against the pairwise comparison of parameter legs."""

import itertools
from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

import zxparam.verify as verify
from zxparam.diagram import Diagram, EdgeKind, VKind
from zxparam.errors import NotTerminalForm, ZeroState
from zxparam.generate import attach_gadget
from zxparam.params import Phase
from zxparam.verify import optimality_certificate, zz_certificate


def solutions(n, rows, rhs):
    """Every x in GF(2)^n (as a bitmask) with row . x = b for each row."""
    return {x for x in range(2 ** n)
            if all(bin(row & x).count("1") % 2 == b % 2 for row, b in zip(rows, rhs))}


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=9))
    rows = draw(st.lists(st.integers(min_value=0, max_value=2 ** n - 1), min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=m, max_size=m))
    return n, rows, rhs


@given(systems())
def test_gf2_rref_is_reduced_and_keeps_the_solution_set(system):
    n, rows, rhs = system
    expected = solutions(n, rows, rhs)
    if not expected:
        with pytest.raises(ZeroState):
            verify._gf2_rref(rows, rhs)
        return
    reduced = verify._gf2_rref(rows, rhs)
    pivots = [row & -row for row, _ in reduced]
    assert all(row for row, _ in reduced)
    assert pivots == sorted(set(pivots))
    for pivot, (row, _) in zip(pivots, reduced):
        assert [other & pivot for other, _ in reduced].count(pivot) == 1, (pivot, row)
    assert solutions(n, [r for r, _ in reduced], [b for _, b in reduced]) == expected


def test_gf2_rref_raises_on_an_inconsistent_system():
    with pytest.raises(ZeroState):
        verify._gf2_rref([0b011, 0b110, 0b101], [1, 1, 1])
    assert verify._gf2_rref([0b011, 0b110, 0b101], [1, 1, 0]) == [(0b101, 0), (0b110, 1)]


# -- ZZ pairs --------------------------------------------------------------------

def reference_pairs(d, gadgets):
    """The pairwise definition: each parametrised spider is a leg, decorated
    H at its gadget's axis if it is a gadget's phase spider and I at itself
    otherwise, and every two legs are compared through the graph
    neighbourhoods (spiders other than phase spiders) of their vertices."""
    axis_of = {g.phase_spider: g.axis_spider for g in gadgets}
    legs = [(v, axis_of.get(v, v), "H" if v in axis_of else "I")
            for v in sorted(d.spiders()) if not d.phase(v).is_clifford()]

    def graph_nbhd(v):
        return frozenset(n for n in d.neighbors(v) if n not in axis_of and d.vertex(n).kind is VKind.SPIDER)

    found = []
    for (s_a, v_a, deco_a), (s_b, v_b, deco_b) in itertools.combinations(legs, 2):
        adjacent = d.has_edge(v_a, v_b)
        if {deco_a, deco_b} == {"I", "H"}:
            h, other = (v_a, v_b) if deco_a == "H" else (v_b, v_a)
            if adjacent and graph_nbhd(h) == {other}:
                found.append(((s_a, s_b), "i"))
        elif deco_a == deco_b == "H":
            if not adjacent and graph_nbhd(v_a) == graph_nbhd(v_b):
                found.append(((s_a, s_b), "ii"))
    return found


def reference_certificate(d):
    gadgets = verify._parametrised_gadgets(d)
    verify._require_shape(d, gadgets)
    failures = verify._gadget_failures(gadgets)
    # a pair of legs gets a (c) entry only when (a) or (b) does not already
    # name its defect: a gadget with fewer than two neighbours, or two
    # gadgets with one neighbourhood
    hood = {g.phase_spider: g.neighbourhood for g in gadgets}
    for pair, condition in reference_pairs(d, gadgets):
        gadget_legs = [v for v in pair if v in hood]
        if any(len(hood[v]) < 2 for v in gadget_legs):
            continue
        if len(gadget_legs) == 2 and hood[pair[0]] == hood[pair[1]]:
            continue
        failures.append(f"(c) legs {pair} admit a ZZ stabiliser, condition ({condition})")
    legs = [v for v in d.spiders() if not d.phase(v).is_clifford()]
    failures += [f"(d) parametrised spider {v} is isolated" for v in legs if d.degree(v) == 0]
    return {"passed": not failures, "failures": failures, "n_parameters": len(legs), "n_gadgets": len(gadgets)}


def random_plugged_gslc(rng):
    """A graph state on boundary spiders and internal parametrised spiders,
    with parametrised gadgets attached.  Gadgets often repeat an earlier
    neighbourhood or touch a single spider, and now and then two axes are
    joined or a parametrised spider is left isolated."""
    d = Diagram()
    graph = []
    for q in range(rng.randint(1, 4)):
        out = d.add_boundary(VKind.OUTPUT, q)
        s = d.add_spider(Phase.of(f"b{q}") if rng.random() < 0.4 else Phase(rng.randrange(4)))
        d.add_edge(s, out, EdgeKind.PLAIN)
        graph.append(s)
    for i in range(rng.randint(0, 2)):
        graph.append(d.add_spider(Phase.of(f"i{i}")))
    for a, b in itertools.combinations(graph, 2):
        if rng.random() < 0.3:
            d.add_edge(a, b)
    hoods, axes = [], []
    for i in range(rng.randint(1, 6)):
        r = rng.random()
        if hoods and r < 0.35:
            hood = rng.choice(hoods)
        elif r < 0.6:
            hood = [rng.choice(graph)]
        else:
            hood = rng.sample(graph, rng.randint(0, len(graph)))
        hoods.append(hood)
        axes.append(attach_gadget(rng, d, hood, rng.randrange(2), Phase.of(f"g{i}"))[0])
    if len(axes) > 1 and rng.random() < 0.15:
        d.add_edge(*rng.sample(axes, 2))
    if rng.random() < 0.1:
        d.add_spider(Phase.of("z"))
    return d


def test_zz_pairs_equal_the_pairwise_definition():
    seen = Counter()
    for i in range(1500):
        d = random_plugged_gslc(Random(i))
        try:
            expected = reference_certificate(d)
        except NotTerminalForm:
            seen["shape"] += 1
            with pytest.raises(NotTerminalForm):
                zz_certificate(d)
            with pytest.raises(NotTerminalForm):
                optimality_certificate(d)
            continue
        pairs = zz_certificate(d)
        assert pairs == reference_pairs(d, verify._parametrised_gadgets(d)), i
        assert optimality_certificate(d).to_dict() == expected, i
        seen.update(condition for _, condition in pairs)
        seen["several pairs"] += len(pairs) > 1
        seen["passed"] += expected["passed"]
    # the generator reaches every branch often
    assert min(seen[k] for k in ("shape", "i", "ii", "several pairs", "passed")) >= 50, seen
