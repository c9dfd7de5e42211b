"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Criteria:
  1. per-rule tensor soundness on 100 random applicable instances per rule
  2. end-to-end reduction on 200 random circuits
  3. the two-phase fusion example optimises 2 -> 1 with row "u0 = t0 + t1"
  4. optimality certificate passes on every terminal diagram of the corpus
  5. brute-force oracle agrees with the optimiser on 50 circuits
  6. parameter count is independent of the rule-scheduling seed
  7. re-optimising an optimised circuit never reduces the count
  8. AP-form round trip on 50 Clifford state diagrams
  9. parser round trip on 100 circuits plus the documented parse errors
"""

import time
from random import Random

import pytest

from conftest import ZeroInstance, assert_rule_sound
from helpers import ap_state, attach_gadget, circuit_state_diagram, random_graph_like_state, structured_samples
from zxparam.circuits import circuit_to_diagram, emit_circuit, parse_circuit
from zxparam.diagram import Diagram, EdgeKind, VKind, find_gadgets
from zxparam.errors import CircuitSyntaxError, NonCliffordConstant, RepeatedParameter
from zxparam.generate import random_circuit
from zxparam.params import Phase
from zxparam.reduction import phase_teleport
from zxparam.rewrite import (boundary_pivot, gadget_fusion, gadget_id_fuse, gadget_pivot,
                             local_complement_simp, pivot_simp, remove_scalar_spiders, simplify)
from zxparam.tensor import proportionality_ratio, tensor_eval
from zxparam.verify import ap_form, brute_force_min, check_reduction, optimality_certificate

TOL = 1e-9
N_RULE_INSTANCES = 100


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = Random(20240)
    circuits = []
    for i in range(200):
        n_qubits = rng.randint(2, 8)
        n_gates = rng.randint(6, 30)
        n_params = rng.randint(0, min(6, n_gates))
        circuits.append(random_circuit(Random(i), n_qubits, n_gates, n_params))
    return circuits


# -- criterion 1: per-rule soundness ------------------------------------------


def _base_state(rng):
    return random_graph_like_state(rng, rng.randint(1, 5), rng.randint(2, 6),
                                   rng.randint(0, 4), edge_p=rng.uniform(0.3, 0.7))


def _internal_nonparam(d, rng):
    options = [v for v in sorted(d.spiders()) if d.is_internal(v) and d.phase(v).is_clifford()]
    return rng.choice(options) if options else None


def gen_local_comp(rng):
    d = _base_state(rng)
    v = _internal_nonparam(d, rng)
    if v is None:
        return None
    d.set_phase(v, Phase(rng.choice([1, 3])))
    return d, (lambda dd, v=v: local_complement_simp(dd, v))


def gen_pivot(rng):
    d = _base_state(rng)
    pairs = [(a, b) for a, b, _ in d.edges()
             if d.is_internal(a) and d.is_internal(b)
             and d.phase(a).is_clifford() and d.phase(b).is_clifford()]
    if not pairs:
        return None
    u, v = rng.choice(sorted(pairs))
    d.set_phase(u, Phase(rng.choice([0, 2])))
    d.set_phase(v, Phase(rng.choice([0, 2])))
    return d, (lambda dd, u=u, v=v: pivot_simp(dd, u, v))


def gen_gadget_pivot(rng):
    d = _base_state(rng)
    for u in sorted(d.spiders(), key=lambda _: rng.random()):
        if not d.is_internal(u) or not d.phase(u).is_clifford():
            continue
        if any(d.degree(n) == 1 and d.vertex(n).kind is VKind.SPIDER for n in d.neighbors(u)):
            continue
        ws = [w for w in d.neighbors(u)
              if d.is_internal(w) and not d.phase(w).is_clifford() and d.degree(w) > 1]
        if not ws:
            continue
        d.set_phase(u, Phase(rng.choice([0, 2])))
        w = rng.choice(sorted(ws))
        return d, (lambda dd, u=u, w=w: gadget_pivot(dd, u, w))
    return None


def gen_boundary_pivot(rng):
    d = _base_state(rng)
    for u in sorted(d.spiders(), key=lambda _: rng.random()):
        if not d.is_internal(u) or not d.phase(u).is_clifford():
            continue
        if any(d.degree(n) == 1 and d.vertex(n).kind is VKind.SPIDER for n in d.neighbors(u)):
            continue
        bs = [b for b in d.neighbors(u) if d.is_boundary_spider(b)]
        if not bs:
            continue
        d.set_phase(u, Phase(rng.choice([0, 2])))
        b = rng.choice(sorted(bs))
        return d, (lambda dd, u=u, b=b: boundary_pivot(dd, u, b))
    return None


def gen_gadget_fusion(rng):
    d = Diagram()
    targets = []
    for q in range(rng.randint(2, 4)):
        out = d.add_boundary(VKind.OUTPUT, q)
        s = d.add_spider(Phase(rng.randrange(4)))
        d.add_edge(s, out, EdgeKind.PLAIN)
        targets.append(s)
    nbhd = sorted(rng.sample(targets, rng.randint(1, len(targets))))
    a1, _ = attach_gadget(rng, d, nbhd, rng.randint(0, 1), Phase.of("ga", 1, rng.randrange(4)))
    a2, _ = attach_gadget(rng, d, nbhd, rng.randint(0, 1), Phase.of("gb", 1, rng.randrange(4)))
    gadgets = {g.axis_spider: g for g in find_gadgets(d)}
    g1, g2 = gadgets[a1], gadgets[a2]
    return d, (lambda dd, g1=g1, g2=g2: gadget_fusion(dd, g1, g2))


def gen_gadget_id_fuse(rng):
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    w = d.add_spider(Phase(rng.randrange(4), (("w", 1),) if rng.random() < 0.5 else ()))
    d.add_edge(w, out, EdgeKind.PLAIN)
    if rng.random() < 0.5:
        out2 = d.add_boundary(VKind.OUTPUT, 1)
        s2 = d.add_spider(Phase(rng.randrange(4)))
        d.add_edge(s2, out2, EdgeKind.PLAIN)
        d.add_edge(w, s2, EdgeKind.HADAMARD)
    axis, _ = attach_gadget(rng, d, [w], rng.randint(0, 1), Phase.of("ga", 1, rng.randrange(4)))
    g = {g.axis_spider: g for g in find_gadgets(d)}[axis]
    return d, (lambda dd, g=g: gadget_id_fuse(dd, g))


def gen_scalar_removal(rng):
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    s = d.add_spider(Phase(rng.randrange(4)))
    d.add_edge(s, out, EdgeKind.PLAIN)
    kind = rng.randrange(3)
    if kind == 0:
        d.add_spider(Phase(rng.choice([0, 1, 3])))  # isolated Clifford spider
    elif kind == 1:
        attach_gadget(rng, d, [], rng.randint(0, 1), Phase.of("z", 1, rng.randrange(4)))
    else:
        a = d.add_spider(Phase(rng.choice([0, 1, 3])))
        b = d.add_spider(Phase(rng.choice([0, 1, 3])))
        d.add_edge(a, b, EdgeKind.HADAMARD)
    return d


def _scalar_removal_sound(d):
    """tensor(before) must factor exactly into the removed components times
    tensor(after), with a constant ratio across parameter samples."""
    before = d.copy()
    after = d.copy()
    events = remove_scalar_spiders(after)
    assert events
    components = []
    for ev in events:
        comp = before.copy()
        for v in list(comp.vertices()):
            if v not in ev.removed:
                comp.remove_vertex(v)
        components.append(comp)
    params = sorted(before.param_registry)
    ratios = []
    for sample in structured_samples(params, n_random=2, seed=7):
        tb = tensor_eval(before, sample).amplitudes
        ta = tensor_eval(after, sample).amplitudes
        for comp in components:
            ta = ta * tensor_eval(comp, sample).amplitudes[0]
        ok, lam, dev = proportionality_ratio(tb, ta, TOL)
        assert ok, f"scalar removal unsound, deviation {dev:.3e}"
        ratios.append(lam)
    spread = max(abs(r - ratios[0]) for r in ratios)
    assert spread <= 1e-8 * max(abs(ratios[0]), 1.0)


def test_criterion_1_per_rule_soundness():
    start = time.time()
    generators = {
        "local_complement_simp": gen_local_comp,
        "pivot_simp": gen_pivot,
        "gadget_pivot": gen_gadget_pivot,
        "boundary_pivot": gen_boundary_pivot,
        "gadget_fusion": gen_gadget_fusion,
        "gadget_id_fuse": gen_gadget_id_fuse,
    }
    totals = {}
    for name, gen in generators.items():
        rng = Random(hash(name) % (2 ** 32))
        done = 0
        attempts = 0
        while done < N_RULE_INSTANCES:
            attempts += 1
            assert attempts < 50 * N_RULE_INSTANCES, f"cannot generate instances for {name}"
            made = gen(rng)
            if made is None:
                continue
            d, apply_rule = made
            try:
                assert_rule_sound(d, apply_rule, tol=TOL)
            except ZeroInstance:
                continue
            done += 1
        totals[name] = done
    rng = Random(99)
    for _ in range(N_RULE_INSTANCES):
        _scalar_removal_sound(gen_scalar_removal(rng))
    totals["remove_scalar_spiders"] = N_RULE_INSTANCES
    elapsed = time.time() - start
    report(1, elapsed < 60, f"per-rule soundness {totals}, constant ratio at tol {TOL}, "
                            f"{elapsed:.1f}s (< 60s)")


# -- criterion 2: end-to-end reduction ----------------------------------------


def test_criterion_2_end_to_end_reduction(corpus):
    start = time.time()
    for i, c in enumerate(corpus):
        result = phase_teleport(c)
        rep = check_reduction(c, result.circuit, result.reduction, n_samples=5, tol=TOL)
        assert rep.holds, f"circuit {i}: reduction fails, max deviation {rep.max_deviation:.3e}"
    elapsed = time.time() - start
    report(2, elapsed < 180, f"200 random circuits optimise and pass check_reduction at tol {TOL}, "
                             f"{elapsed:.1f}s (< 180s)")


# -- criterion 3: the two-phase fusion example ---------------------------------


def test_criterion_3_fusion_example():
    c = parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0")
    result = phase_teleport(c)
    ok = (len(c.params), len(result.circuit.params)) == (2, 1) \
        and result.reduction.row_string(0) == "u0 = t0 + t1"
    report(3, ok, f"fusion example optimises 2 -> 1 with row "
                  f"{result.reduction.row_string(0)!r}")


# -- criterion 4: optimality certificate ---------------------------------------


def test_criterion_4_optimality_certificate(corpus):
    for i, c in enumerate(corpus):
        terminal, _ = simplify(circuit_to_diagram(c))
        cert = optimality_certificate(terminal)
        assert cert.passed, f"circuit {i}: {cert.failures}"
    report(4, True, "every terminal diagram of the corpus passes the optimality certificate "
                    "(gadget degree >= 2, distinct neighbourhoods, empty zz certificate)")


# -- criterion 5: oracle agreement ----------------------------------------------


def test_criterion_5_oracle_agreement():
    start = time.time()
    rng = Random(515)
    for i in range(50):
        n_gates = rng.randint(4, 22)
        c = random_circuit(Random(10_000 + i), rng.randint(2, 6), n_gates,
                           rng.randint(1, min(4, n_gates)))
        optimised = phase_teleport(c)
        oracle = brute_force_min(c)
        assert oracle.count == len(optimised.circuit.params), \
            f"circuit {i}: oracle {oracle.count} != optimiser {len(optimised.circuit.params)}"
    elapsed = time.time() - start
    report(5, elapsed < 300, f"brute force agrees with the optimiser on 50 circuits, "
                             f"{elapsed:.1f}s (< 300s)")


# -- criterion 6: order independence --------------------------------------------


def test_criterion_6_order_independence(corpus):
    for i, c in enumerate(corpus[:30]):
        counts = {len(phase_teleport(c, seed=s).circuit.params) for s in (11, 22)}
        assert len(counts) == 1, f"circuit {i}: counts differ across seeds: {counts}"
    report(6, True, "two rule-scheduling seeds give equal parameter counts on 30 circuits")


# -- criterion 7: idempotence ----------------------------------------------------


def test_criterion_7_idempotence(corpus):
    for i, c in enumerate(corpus[:40]):
        once = phase_teleport(c)
        twice = phase_teleport(once.circuit)
        assert len(twice.circuit.params) == len(once.circuit.params), f"circuit {i}"
    report(7, True, "re-optimising an optimised circuit never changes the parameter count")


# -- criterion 8: AP-form round trip ---------------------------------------------


def test_criterion_8_ap_form_round_trip():
    rng = Random(88)
    count = 0
    for i in range(50):
        c = random_circuit(Random(20_000 + i), rng.randint(1, 6), rng.randint(2, 20), 0)
        d = circuit_state_diagram(c)
        form = ap_form(d)
        ok, _, dev = proportionality_ratio(ap_state(form), tensor_eval(d).amplitudes, TOL)
        assert ok, f"state {i}: reconstruction deviates by {dev:.3e}"
        count += 1
    report(8, count == 50, f"{count} Clifford state diagrams reconstruct from AP form at tol {TOL}")


# -- criterion 9: parser round trip ----------------------------------------------


def test_criterion_9_parser_round_trip():
    rng = Random(99)
    for i in range(100):
        n_gates = rng.randint(0, 30)
        c = random_circuit(Random(30_000 + i), rng.randint(1, 8), n_gates,
                           rng.randint(0, min(6, n_gates)))
        assert parse_circuit(emit_circuit(c)) == c, f"round trip failed on circuit {i}"
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qreg 1\nfoo 0")
    with pytest.raises(NonCliffordConstant):
        parse_circuit("qreg 1\nrz(0.25pi) 0")
    with pytest.raises(RepeatedParameter):
        parse_circuit("qreg 2\nrz(t0) 0\nrz(t0) 1")
    report(9, True, "parse(emit) is the identity on 100 circuits; the three documented "
                    "parse errors trigger")
