import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rule_sound
from test_diagram import toggle_one_by_one
from test_golden import phase_poly_circuit
from zxparam.circuits import circuit_state_diagram, circuit_to_diagram, parse_circuit
from zxparam.diagram import Diagram, EdgeKind, VKind, find_gadgets, validate
from zxparam.errors import NotApplicable
from zxparam.generate import attach_gadget, random_circuit, random_graph_like_state
from zxparam.params import Phase
from zxparam.rewrite import (AP_FORM_STAGES, CLASS_HADAMARD_WIRED, CLASS_LOCAL_COMP, CLASS_PAULI,
                             SIG_DEGREE_ONE, SIG_PARAM, SIG_WIRED, SIMPLIFY_STAGES, Rewriter, Rule,
                             _complement_out, _pivot_core, boundary_pivot, gadget_fusion,
                             gadget_id_fuse, gadget_pivot, local_complement_simp, pivot_simp,
                             remove_scalar_spiders, simplify)
from zxparam.verify import structured_samples, terminal_violations


def state_with(phases, edges, n_out=0):
    """Small hand-built graph-like state; returns (diagram, spider ids)."""
    d = Diagram()
    spiders = [d.add_spider(p) for p in phases]
    for q in range(n_out):
        out = d.add_boundary(VKind.OUTPUT, q)
        d.add_edge(spiders[q], out, EdgeKind.PLAIN)
    for a, b in edges:
        d.add_edge(spiders[a], spiders[b], EdgeKind.HADAMARD)
    return d, spiders


def test_local_comp_creates_edge_between_neighbours():
    d, s = state_with([Phase(0), Phase(0), Phase(1)], [(0, 2), (1, 2)], n_out=2)
    ev = assert_rule_sound(d, lambda dd: local_complement_simp(dd, s[2]))
    assert ev.rule is Rule.LOCAL_COMP
    local_complement_simp(d, s[2])
    assert d.has_edge(s[0], s[1])
    assert d.phase(s[0]).clifford == 3  # gained -pi/2
    assert d.phase(s[1]).clifford == 3


def test_local_comp_isolated_scalar():
    d, s = state_with([Phase(0), Phase(1)], [], n_out=1)
    local_complement_simp(d, s[1])
    assert s[1] not in list(d.vertices())


def test_local_comp_not_applicable():
    d, s = state_with([Phase(1)], [], n_out=1)  # boundary spider
    with pytest.raises(NotApplicable):
        local_complement_simp(d, s[0])
    d2, s2 = state_with([Phase(0), Phase(2)], [(0, 1)], n_out=1)
    with pytest.raises(NotApplicable):
        local_complement_simp(d2, s2[1])  # pi, not +-pi/2


def test_pivot_pair_with_disjoint_neighbourhoods():
    # u pi, v 0; exclusive neighbourhoods {a}, {b}
    d, s = state_with([Phase(0), Phase(0), Phase(2), Phase(0)], [(0, 2), (2, 3), (3, 1)], n_out=2)
    ev = assert_rule_sound(d, lambda dd: pivot_simp(dd, s[2], s[3]))
    assert ev.rule is Rule.PIVOT
    pivot_simp(d, s[2], s[3])
    assert d.has_edge(s[0], s[1])
    assert d.phase(s[0]).clifford == 0  # gains phase of v = 0
    assert d.phase(s[1]).clifford == 2  # gains phase of u = pi


def test_pivot_pair_alone_leaves_scalar():
    d, s = state_with([Phase(0), Phase(0), Phase(0)], [(1, 2)], n_out=1)
    pivot_simp(d, s[1], s[2])
    assert len(d.spiders()) == 1


def test_pivot_not_applicable_on_parametrised():
    d, s = state_with([Phase(0), Phase(0, (("a", 1),)), Phase(0)], [(1, 2)], n_out=1)
    with pytest.raises(NotApplicable):
        pivot_simp(d, s[1], s[2])


def test_gadget_pivot_produces_gadget_over_old_neighbourhood():
    # u 0-phase internal adjacent to param w (degree 2) and to a, b
    d, s = state_with([Phase(0), Phase(0), Phase(3, (("a", 1),)), Phase(0)],
                      [(3, 0), (3, 1), (3, 2), (2, 0)], n_out=2)
    ev = assert_rule_sound(d, lambda dd: gadget_pivot(dd, s[3], s[2]))
    gadget_pivot(d, s[3], s[2])
    (g,) = find_gadgets(d)
    assert d.phase(g.axis_spider).clifford == 0
    assert d.phase(g.phase_spider).term_map == {"a": 1}


def test_gadget_pivot_pi_axis_keeps_parameter_sign():
    d, s = state_with([Phase(0), Phase(0), Phase(0, (("a", 1),)), Phase(2)],
                      [(3, 0), (3, 1), (3, 2), (2, 1)], n_out=2)
    ev = assert_rule_sound(d, lambda dd: gadget_pivot(dd, s[3], s[2]))
    assert ev.dropped is None
    gadget_pivot(d, s[3], s[2])
    (g,) = find_gadgets(d)
    assert d.phase(g.axis_spider).clifford == 2  # axis keeps the pi
    assert d.phase(g.phase_spider).term_map == {"a": 1}


def test_gadget_pivot_refuses_existing_gadget():
    d, s = state_with([Phase(0)], [], n_out=1)
    axis, leaf = attach_gadget(Random(0), d, [s[0]], 0, Phase.of("a"))
    with pytest.raises(NotApplicable):
        gadget_pivot(d, axis, leaf)


def test_boundary_pivot_clifford_neighbour_cleans_up():
    # u 0-phase internal adjacent only to boundary spider b (Clifford phase):
    # after the pivot and follow-up removals no introduced spider survives
    d, s = state_with([Phase(1), Phase(0)], [(0, 1)], n_out=1)
    assert_rule_sound(d, lambda dd: boundary_pivot(dd, s[1], s[0]))
    term, events = simplify(d)
    assert not terminal_violations(term)
    assert all(not term.is_internal(v) for v in term.spiders())


def test_boundary_pivot_parametrised_boundary_creates_gadget():
    # u pi-phase internal adjacent to parametrised boundary spider a and
    # Clifford boundary spider c: the pivot must not remove a's phase gadget
    d, s = state_with([Phase(0, (("a", 1),)), Phase(1), Phase(2)],
                      [(2, 0), (2, 1)], n_out=2)
    ev = assert_rule_sound(d, lambda dd: boundary_pivot(dd, s[2], s[0]))
    boundary_pivot(d, s[2], s[0])
    gadgets = [g for g in find_gadgets(d) if not d.phase(g.phase_spider).is_clifford()]
    assert len(gadgets) == 1
    assert d.phase(gadgets[0].phase_spider).term_map == {"a": 1}


def test_gadget_fusion_sums_expressions():
    d, s = state_with([Phase(0), Phase(0)], [], n_out=2)
    attach_gadget(Random(0), d, s, 0, Phase.of("a"))
    attach_gadget(Random(0), d, s, 0, Phase.of("b"))
    g1, g2 = find_gadgets(d)
    ev = assert_rule_sound(d, lambda dd: gadget_fusion(dd, g1, g2))
    gadget_fusion(d, g1, g2)
    (g,) = find_gadgets(d)
    assert d.phase(g.phase_spider).term_map == {"a": 1, "b": 1}
    assert ev.param_merge is not None and ev.param_merge.absorbed == (("b", 1),)


def test_gadget_fusion_mixed_parity_flips_sign_and_reports_drop():
    d, s = state_with([Phase(0), Phase(0)], [], n_out=2)
    attach_gadget(Random(0), d, s, 0, Phase.of("a"))
    attach_gadget(Random(0), d, s, 1, Phase.of("b"))
    g1, g2 = find_gadgets(d)
    ev = assert_rule_sound(d, lambda dd: gadget_fusion(dd, g1, g2))
    gadget_fusion(d, g1, g2)
    (g,) = find_gadgets(d)
    assert d.phase(g.phase_spider).term_map == {"a": 1, "b": -1}
    assert ev.dropped is not None and ev.dropped.term_map == {"b": 1}


def test_gadget_fusion_cancellation_demotes_to_clifford():
    # parameter uniqueness forbids +a/-a pairs, so the constructible
    # cancellation is Clifford: constants pi/2 and -pi/2 fuse to 0 and the
    # leftover Clifford gadget is eaten by the Clifford rules
    d, s = state_with([Phase(0), Phase(0)], [], n_out=2)
    attach_gadget(Random(0), d, s, 0, Phase(1))
    attach_gadget(Random(0), d, s, 0, Phase(3))
    g1, g2 = find_gadgets(d)
    gadget_fusion(d, g1, g2)
    (g,) = find_gadgets(d)
    assert d.phase(g.phase_spider).is_clifford()
    assert d.phase(g.phase_spider).clifford == 0
    term, _ = simplify(d)
    assert not terminal_violations(term)
    assert all(not term.is_internal(v) for v in term.spiders())


def test_gadget_fusion_requires_equal_neighbourhoods():
    d, s = state_with([Phase(0), Phase(0)], [], n_out=2)
    attach_gadget(Random(0), d, [s[0]], 0, Phase.of("a"))
    attach_gadget(Random(0), d, [s[1]], 0, Phase.of("b"))
    g1, g2 = find_gadgets(d)
    with pytest.raises(NotApplicable):
        gadget_fusion(d, g1, g2)


def test_gadget_id_fuse_adds_phase_to_neighbour():
    d, s = state_with([Phase(0, (("b", 1),))], [], n_out=1)
    attach_gadget(Random(0), d, s, 0, Phase.of("a", 1, 2))
    (g,) = find_gadgets(d)
    ev = assert_rule_sound(d, lambda dd: gadget_id_fuse(dd, g))
    gadget_id_fuse(d, g)
    ph = d.phase(s[0])
    assert ph.term_map == {"a": 1, "b": 1}
    assert ph.clifford == 2
    assert d.param_registry["a"] == s[0]


def test_gadget_id_fuse_pi_axis_negates():
    d, s = state_with([Phase(0)], [], n_out=1)
    attach_gadget(Random(0), d, s, 1, Phase.of("a"))
    (g,) = find_gadgets(d)
    ev = assert_rule_sound(d, lambda dd: gadget_id_fuse(dd, g))
    gadget_id_fuse(d, g)
    assert d.phase(s[0]).term_map == {"a": -1}
    assert ev.dropped is not None


def test_gadget_id_fuse_clifford_pi_constant():
    d, s = state_with([Phase(0)], [], n_out=1)
    attach_gadget(Random(0), d, s, 0, Phase(2))
    (g,) = find_gadgets(d)
    gadget_id_fuse(d, g)
    assert d.phase(s[0]).clifford == 2


def test_boundary_cleanup_restores_gslc_decorations():
    from zxparam.rewrite import _boundary_cleanup, _needs_boundary_cleanup
    d = Diagram()
    o1 = d.add_boundary(VKind.OUTPUT, 0)
    o2 = d.add_boundary(VKind.OUTPUT, 1)
    b = d.add_spider(Phase(1))
    w = d.add_spider(Phase(2))
    d.add_edge(b, o1, EdgeKind.HADAMARD)
    d.add_edge(w, o2, EdgeKind.PLAIN)
    d.add_edge(b, w, EdgeKind.HADAMARD)
    assert _needs_boundary_cleanup(d, b)
    assert_rule_sound(d.copy(), lambda dd: _boundary_cleanup(dd, b))
    term, _ = simplify(d)
    assert not terminal_violations(term)


def test_boundary_cleanup_double_sided_wire():
    from zxparam.rewrite import _boundary_cleanup
    d = Diagram()
    i1 = d.add_boundary(VKind.INPUT, 0)
    o1 = d.add_boundary(VKind.OUTPUT, 0)
    b = d.add_spider(Phase(3))
    d.add_edge(b, i1, EdgeKind.HADAMARD)
    d.add_edge(b, o1, EdgeKind.PLAIN)
    assert_rule_sound(d.copy(), lambda dd: _boundary_cleanup(dd, b))
    term, _ = simplify(d)
    assert not terminal_violations(term)


def test_remove_scalar_spiders():
    d, s = state_with([Phase(0)], [], n_out=1)
    iso = d.add_spider(Phase(0))
    attach_gadget(Random(0), d, [], 0, Phase.of("z"))
    events = remove_scalar_spiders(d)
    assert len(events) == 2
    assert set(itertools.chain.from_iterable(e.eliminated for e in events)) == {"z"}
    assert remove_scalar_spiders(d) == []


@pytest.mark.parametrize("seed", range(12))
def test_rule_soundness_random_instances(seed):
    """One applicable instance of each pivot-family rule on random diagrams."""
    rng = Random(seed)
    found = 0
    for trial in range(200):
        d = random_graph_like_state(Random(1000 * seed + trial), rng.randint(1, 4),
                                    rng.randint(2, 5), rng.randint(0, 3))
        lc = [v for v in sorted(d.spiders())
              if d.is_internal(v) and d.phase(v).is_clifford() and d.phase(v).clifford in (1, 3)]
        if lc:
            assert_rule_sound(d, lambda dd: local_complement_simp(dd, lc[0]))
            found += 1
            break
    assert found


def test_simplify_clifford_circuit_has_no_internal_spiders():
    rng = Random(9)
    for i in range(10):
        c = random_circuit(Random(i), rng.randint(1, 5), rng.randint(2, 16), 0)
        term, _ = simplify(circuit_to_diagram(c))
        assert not terminal_violations(term)
        assert all(not term.is_internal(v) for v in term.spiders())


def test_simplify_fusion_example_single_parametrised_spider():
    c = parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0")
    term, _ = simplify(circuit_to_diagram(c))
    exprs = list(term.param_exprs().values())
    assert len(exprs) == 1
    assert exprs[0].term_map == {"t0": 1, "t1": 1}


def test_simplify_terminal_conditions_on_random_circuits():
    rng = Random(21)
    for i in range(30):
        c = random_circuit(Random(i + 3000), rng.randint(1, 6), rng.randint(3, 24), rng.randint(0, 5))
        term, events = simplify(circuit_to_diagram(c))
        assert not terminal_violations(term), terminal_violations(term)
        assert validate(term).ok
        # no two gadget axes adjacent
        axes = [g.axis_spider for g in find_gadgets(term)]
        for a, b in itertools.combinations(axes, 2):
            assert not term.has_edge(a, b)
        # parameters unique with coefficients +-1
        seen = set()
        for expr in term.param_exprs().values():
            for name, coeff in expr.terms:
                assert coeff in (-1, 1)
                assert name not in seen
                seen.add(name)


def test_simplify_is_idempotent():
    rng = Random(31)
    for i in range(8):
        c = random_circuit(Random(i + 4000), rng.randint(1, 5), rng.randint(3, 18), rng.randint(0, 4))
        term, _ = simplify(circuit_to_diagram(c))
        again, events = simplify(term)
        assert events == []
        assert len(again.spiders()) == len(term.spiders())


def test_simplify_sound_on_arbitrary_graph_like_states():
    """Full-run soundness beyond circuit inputs: tensor(input) must stay
    proportional to tensor(terminal) times the recorded dropped phases, with
    one constant across samples when no parameter was eliminated."""
    import numpy as np
    from zxparam.tensor import tensor_eval, proportionality_ratio

    rng = Random(271)
    checked = 0
    trial = 0
    while checked < 25 and trial < 200:
        trial += 1
        d = random_graph_like_state(Random(600_000 + trial), rng.randint(1, 5),
                                    rng.randint(1, 5), rng.randint(0, 3),
                                    edge_p=rng.uniform(0.2, 0.8))
        term, events = simplify(d)
        assert not terminal_violations(term)
        if any(ev.eliminated for ev in events):
            continue  # eliminated scalars make the ratio a general function
        params = sorted(d.param_registry)
        pairs = []
        for sample in structured_samples(params, n_random=2, seed=7):
            drop = 1.0 + 0j
            for ev in events:
                if ev.dropped is not None:
                    drop *= np.exp(1j * ev.dropped.angle(sample))
            pairs.append((tensor_eval(d, sample).amplitudes,
                          tensor_eval(term, sample).amplitudes * drop))
        if max(np.max(np.abs(tb)) for tb, _ in pairs) < 1e-12:
            continue  # the input denotes the zero map
        scale = max(max(np.max(np.abs(a)), np.max(np.abs(b))) for a, b in pairs)
        ratios = []
        for tb, ta in pairs:
            nb, na = np.max(np.abs(tb)), np.max(np.abs(ta))
            if nb < 1e-9 * scale and na < 1e-9 * scale:
                continue
            ok, lam, dev = proportionality_ratio(tb, ta, 1e-9)
            assert ok, dev
            ratios.append(lam)
        assert ratios
        assert max(abs(r - ratios[0]) for r in ratios) <= 1e-8 * max(abs(ratios[0]), 1)
        checked += 1
    assert checked == 25


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_simplify_seeds_agree_on_parameter_count(seed):
    rng = Random(seed)
    c = random_circuit(rng, rng.randint(1, 5), rng.randint(4, 18), rng.randint(0, 4))
    d = circuit_to_diagram(c)
    t1, _ = simplify(d, seed=1)
    t2, _ = simplify(d, seed=2)
    assert len(t1.param_exprs()) == len(t2.param_exprs())


def rescan(d: Diagram) -> dict:
    """Every candidate index of the driver, recomputed from scratch."""
    def spider(v):
        return d.vertex(v).kind is VKind.SPIDER

    def wires(v):
        return [n for n in d.neighbors(v) if not spider(n)]

    def internal(v):
        return spider(v) and not wires(v)

    def internal_pauli(v):
        return internal(v) and d.phase(v).is_pauli()

    def clean_axis(u):
        return internal_pauli(u) and len([n for n in d.neighbors(u)
                                          if d.degree(n) == 1 and spider(n)]) == 1

    spiders = d.spiders()
    gadgets = {g.axis_spider: g for g in find_gadgets(d)}
    by_neighbourhood = {}
    for g in gadgets.values():
        by_neighbourhood.setdefault(g.neighbourhood, set()).add(g.axis_spider)
    local_comp = {v for v in spiders if internal(v) and d.phase(v).is_clifford()
                  and d.phase(v).clifford in (1, 3)}
    pauli = {v for v in spiders if internal_pauli(v)}
    hadamard_wired = {b for b in spiders if any(d.edge_kind(b, o) is EdgeKind.HADAMARD for o in wires(b))}
    return {
        "local_comp": local_comp,
        "pauli": pauli,
        "pivot": {(min(a, b), max(a, b)) for a, b, _ in d.edges()
                  if internal_pauli(a) and internal_pauli(b)},
        "gadget_pivot": {(u, w) for u in spiders if internal_pauli(u) and not clean_axis(u)
                         for w in d.neighbors(u)
                         if internal(w) and not d.phase(w).is_clifford()
                         and d.degree(w) > 1},
        "boundary_pivot": {(u, b) for u in spiders if internal_pauli(u) and not clean_axis(u)
                           for b in d.neighbors(u) if spider(b) and wires(b)},
        "gadgets": gadgets,
        "by_neighbourhood": by_neighbourhood,
        "unary": {a for a, g in gadgets.items() if len(g.neighbourhood) == 1},
        "shared": {n for n, axes in by_neighbourhood.items() if len(axes) > 1},
        "hadamard_wired": hadamard_wired,
        # per spider: its signature, then its class
        "codes": {v: (SIG_DEGREE_ONE if d.degree(v) == 1 else 0) | (SIG_WIRED if wires(v) else 0)
                  | (0 if d.phase(v).is_clifford() else SIG_PARAM)
                  | (CLASS_LOCAL_COMP if v in local_comp else 0) | (CLASS_PAULI if v in pauli else 0)
                  | (CLASS_HADAMARD_WIRED if v in hadamard_wired else 0)
                  for v in spiders},
    }


def assert_driver_matches_rescan(rw: Rewriter) -> int:
    steps = 0
    while True:
        expected = rescan(rw.d)
        assert {name: getattr(rw, name) for name in expected} == expected
        assert validate(rw.d).ok, validate(rw.d).violations
        if rw.step() is None:
            return steps
        steps += 1


@pytest.mark.parametrize("seed", range(8))
def test_driver_indexes_equal_full_rescan(seed):
    rng = Random(seed)
    diagrams = [random_graph_like_state(Random(f"{seed}/{trial}"), rng.randint(1, 5), rng.randint(2, 12),
                                        rng.randint(0, 5), edge_p=rng.uniform(0.15, 0.7))
                for trial in range(6)]
    diagrams.append(circuit_to_diagram(random_circuit(Random(seed), 4, 40, 8)))
    # CNOT + rz circuits: repeated parities make gadgets fuse
    lines = ["qreg 4"]
    for i in range(30):
        a, b = rng.sample(range(4), 2)
        lines += [f"cx {a} {b}", f"rz(t{i}) {b}"] if i % 2 else [f"cx {a} {b}"]
    diagrams.append(circuit_to_diagram(parse_circuit("\n".join(lines))))
    # a Clifford-wrapped phase polynomial at a benchmark rung: 6 qubits, 80 gates, 16 params
    diagrams.append(circuit_to_diagram(phase_poly_circuit(Random(f"rescan/{seed}"), 6, 80, 16, 12)))
    steps = 0
    for d in diagrams:
        for pick_seed in (seed, None):  # seeded picks, then the ``min`` picks
            steps += assert_driver_matches_rescan(Rewriter(d.copy(), SIMPLIFY_STAGES, seed=pick_seed))
    state = circuit_state_diagram(random_circuit(Random(seed), 4, 30, 0))
    steps += assert_driver_matches_rescan(Rewriter(state, AP_FORM_STAGES))
    assert steps > 40


def remove_one_by_one(d, v):
    for n in d.neighbors(v):
        d.remove_edge(v, n)
    d.remove_vertex(v)


def shift_phase(d, v, k):
    d.set_phase(v, d.phase(v).add_clifford(k))


def pivot_core_one_by_one(d, u, v):
    """Reference for rewrite._pivot_core: the same classes, iterated in the
    same order, with edge-by-edge updates."""
    pu, pv = d.phase(u).clifford, d.phase(v).clifford
    nu = set(d.neighbors(u)) - {v}
    nv = set(d.neighbors(v)) - {u}
    common = nu & nv
    only_u = nu - common
    only_v = nv - common
    remove_one_by_one(d, u)
    remove_one_by_one(d, v)
    for a in only_u:
        toggle_one_by_one(d, a, only_v)
        toggle_one_by_one(d, a, common)
    for a in only_v:
        toggle_one_by_one(d, a, common)
    for group, k in ((only_u, pv), (only_v, pu), (common, 2 + pu + pv)):
        for w in group:
            shift_phase(d, w, k)
    return tuple(sorted(only_u | only_v | common))


def complement_out_one_by_one(d, v):
    """Reference for rewrite._complement_out."""
    k = d.phase(v).clifford
    nbrs = sorted(d.neighbors(v))
    remove_one_by_one(d, v)
    for i, a in enumerate(nbrs):
        shift_phase(d, a, -k)
        toggle_one_by_one(d, a, nbrs[i + 1:])
    return tuple(nbrs)


def same_diagram(d, reference):
    # insertion order too: buffering and extraction read adjacency in order
    assert {v: list(n.items()) for v, n in d._adj.items()} == \
        {v: list(n.items()) for v, n in reference._adj.items()}
    assert {v: (x.kind, x.phase, x.position) for v, x in d._vertices.items()} == \
        {v: (x.kind, x.phase, x.position) for v, x in reference._vertices.items()}
    assert d._boundary_count == reference._boundary_count
    assert d.param_registry == reference.param_registry
    assert validate(d).ok, validate(d).violations


@pytest.mark.parametrize("seed", range(20))
def test_in_place_kernels_equal_pairwise_toggles(seed):
    rng = Random(seed)
    d = random_graph_like_state(Random(f"kernels/{seed}"), rng.randint(1, 4), rng.randint(4, 16),
                                rng.randint(0, 4), edge_p=rng.uniform(0.2, 0.8))
    reference = d.copy()
    applied = 0
    for _ in range(6):
        internal = [v for v in d.spiders() if d.is_internal(v)]
        pairs = [(u, v) for u in internal for v in d.neighbors(u) if u < v and d.is_internal(v)]
        if pairs and rng.random() < 0.6:
            u, v = rng.choice(pairs)
            assert _pivot_core(d, u, v) == pivot_core_one_by_one(reference, u, v)
        elif internal:
            v = rng.choice(internal)
            assert _complement_out(d, v) == complement_out_one_by_one(reference, v)
        else:
            break
        applied += 1
        same_diagram(d, reference)
    assert applied
