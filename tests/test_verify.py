import itertools
import math
import re
from collections import Counter
from random import Random

import numpy as np
import pytest

import zxparam.verify
from helpers import (ap_state, apply_reduction, attach_gadget, circuit_state_diagram, p_matrix,
                     structured_samples)
from zxparam.circuits import MAX_PROBE_QUBITS, Circuit, GateKind, circuit_to_diagram, circuit_unitary, parse_circuit
from zxparam.diagram import Diagram, EdgeKind, VKind
from zxparam.errors import (DimensionMismatch, NotClifford, NotTerminalForm, TooLarge, TooManyParams,
                            ZeroState)
from zxparam.generate import random_circuit
from zxparam.params import Phase
from zxparam.reduction import ReductionMap, phase_teleport
from zxparam.rewrite import simplify
from zxparam.tensor import proportionality_ratio, tensor_eval
from zxparam.verify import (BLOCK_BYTES, BruteForceResult, ap_form, brute_force_min, check_reduction,
                            optimality_certificate, probe_state, sample_array, terminal_violations)

FUSION = "qreg 1\nrz(t0) 0\nrz(t1) 0"


def test_check_reduction_fusion_map_holds():
    c = parse_circuit(FUSION)
    out = parse_circuit("qreg 1\nrz(u0) 0")
    m = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,))
    report = check_reduction(c, out, m)
    assert report.holds
    # structured samples include two values per parameter
    assert len(report.ratios) == 1 + 2 + 5


def test_check_reduction_flipped_sign_fails():
    c = parse_circuit(FUSION)
    out = parse_circuit("qreg 1\nrz(u0) 0")
    m = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", -1)),), (0,))
    assert not check_reduction(c, out, m).holds


def test_check_reduction_identity_map():
    c = parse_circuit(FUSION)
    m = ReductionMap.identity(c.params)
    report = check_reduction(c, c, m)
    assert report.holds
    assert all(abs(r - 1.0) < 1e-12 for r in report.ratios)


def test_check_reduction_dimension_mismatch():
    c = parse_circuit(FUSION)
    out = parse_circuit("qreg 1\nrz(u0) 0")
    m = ReductionMap(("t0",), ("u0",), ((("t0", 1),),), (0,))
    with pytest.raises(DimensionMismatch):
        check_reduction(c, out, m)
    with pytest.raises(DimensionMismatch):
        check_reduction(c, parse_circuit("qreg 2\nrz(u0) 0"),
                        ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,)))


@pytest.mark.parametrize("n_qubits, per_block", [(14, 1), (12, 4)])
def test_check_reduction_blocks_keep_sample_order(n_qubits, per_block):
    # 14 qubits: one sample per block; 12 qubits: blocks of 4 with a partial last one
    assert BLOCK_BYTES // (16 * 2 ** n_qubits) == per_block
    c = random_circuit(Random(960 + n_qubits), n_qubits, 40, 6)
    res = phase_teleport(c)
    probe = probe_state(n_qubits)
    # a correct map, and one that shifts every parameter onto its neighbour's value
    shifted = ReductionMap(tuple(c.params), tuple(c.params),
                           tuple(((c.params[(i + 1) % 6], 1),) for i in range(6)), (0,) * 6)
    for out, reduction in ((res.circuit, res.reduction), (c, shifted)):
        report = check_reduction(c, out, reduction, n_samples=6)
        samples = structured_samples(c.params, 6)
        assert len(report.ratios) == len(report.deviations) == len(samples) == 13
        for sample, lam, dev in zip(samples, report.ratios, report.deviations):
            _, lam_ref, dev_ref = proportionality_ratio(
                circuit_unitary(c, sample, states=probe).reshape(-1),
                circuit_unitary(out, apply_reduction(reduction, sample), states=probe).reshape(-1), 1e-9)
            assert abs(lam - lam_ref) <= 1e-12 and abs(dev - dev_ref) <= 1e-12
    assert not report.holds and report.deviations[0] == 0.0


def wrong_maps(c, res):
    """Maps for ``c`` that are wrong in general, each with its output
    circuit: a sign flip, a term moved to another row, parameters shifted."""
    rows = [list(terms) for terms in res.reduction.rows]
    names, consts = res.reduction.new_param_names, res.reduction.constants

    def variant(kind, new_rows):
        return kind, res.circuit, ReductionMap(tuple(c.params), names, tuple(map(tuple, new_rows)), consts)

    maps = []
    wide = [i for i, terms in enumerate(rows) if len(terms) > 1]
    if wide:
        i = wide[0]
        flipped = [list(terms) for terms in rows]
        p, sign = flipped[i][-1]
        flipped[i][-1] = (p, -sign)
        maps.append(variant("flipped", flipped))
        if len(rows) > 1:
            moved = [list(terms) for terms in rows]
            moved[(i + 1) % len(rows)].append(moved[i].pop())
            maps.append(variant("misfused", moved))
    k = len(c.params)
    if k > 1:
        maps.append(("shifted", c, ReductionMap(tuple(c.params), tuple(c.params),
                                                tuple(((c.params[(i + 1) % k], 1),) for i in range(k)),
                                                (0,) * k)))
    return maps


def test_probe_verdicts_match_dense_oracle():
    kinds, verdicts = Counter(), Counter()
    for i in range(40):
        n = 2 + i % 5
        c = random_circuit(Random(1300 + i), n, 24, 6)
        res = phase_teleport(c)
        for kind, out, reduction in [("correct", res.circuit, res.reduction)] + wrong_maps(c, res):
            kinds[kind] += 1
            report = check_reduction(c, out, reduction, n_samples=3, seed=i)
            samples = structured_samples(c.params, 3, i)
            oks = []
            for sample, lam, dev in zip(samples, report.ratios, report.deviations):
                ok, lam_dense, _ = proportionality_ratio(
                    circuit_unitary(c, sample).reshape(-1),
                    circuit_unitary(out, apply_reduction(reduction, sample)).reshape(-1), 1e-9)
                assert (dev <= 1e-9) == ok, (i, kind)
                if ok:
                    assert abs(lam - lam_dense) <= 1e-12, (i, kind)
                oks.append(ok)
            assert report.holds == all(oks), (i, kind)
            verdicts[kind, report.holds] += 1
    assert kinds["flipped"] >= 10 and kinds["misfused"] >= 5 and kinds["shifted"] >= 10
    assert verdicts["correct", True] == 40
    assert all(verdicts[kind, False] >= 5 for kind in ("flipped", "misfused", "shifted"))


ORACLE_INSTANCES = [FUSION, "qreg 1\nrz(t0) 0\nh 0\nrz(t1) 0", "qreg 1\nrz(t0) 0\nx 0\nrz(t1) 0\nx 0",
                    "qreg 2\nh 0\ncx 0 1"]


def reference_brute_force(c, tol=1e-9):
    """``brute_force_min`` by simulation, one candidate and one sample at a
    time: every grouping with every sign pattern, each candidate as a
    circuit without the gates of its non-representatives."""
    params = c.params
    if not params:
        return BruteForceResult(0, ReductionMap((), (), (), ()))
    samples = structured_samples(params, 5)
    probe = probe_state(c.n_qubits)
    image = lambda circuit, sample: circuit_unitary(circuit, sample, states=probe).reshape(-1)
    originals = [image(c, sample) for sample in samples]
    # a parameter alone at pi changes the image: every rz rotates about a non-identity Pauli
    assert not any(proportionality_ratio(originals[1 + j], originals[0], tol)[0] for j in range(len(params)))
    for l in range(1, len(params) + 1):
        for blocks in zxparam.verify._partitions_into(params, l):
            blocks = sorted(blocks, key=lambda b: params.index(b[0]))
            for reps in itertools.product(*[range(len(b)) for b in blocks]):
                names = [b[r] for b, r in zip(blocks, reps)]
                others = [p for b, r in zip(blocks, reps) for i, p in enumerate(b) if i != r]
                for bits in itertools.product((1, -1), repeat=len(others)):
                    signs = dict(zip(others, bits))
                    rows = tuple(tuple([(rep, 1)] + [(p, signs[p]) for p in b if p != rep])
                                 for b, rep in zip(blocks, names))
                    reduction = ReductionMap(tuple(params), tuple(names), rows, (0,) * l)
                    zeroed = Circuit(c.n_qubits, [g for g in c.gates
                                                  if g.kind is not GateKind.RZ_PARAM or g.param in names])
                    if all(proportionality_ratio(original, image(zeroed, apply_reduction(reduction, sample)), tol)[0]
                           for original, sample in zip(originals, samples)):
                        return BruteForceResult(l, reduction)
    raise AssertionError("the identity map always passes")


def test_partitions_come_in_restricted_growth_order():
    # six items, one more than the oracle takes: each partition into l blocks
    # comes once, its blocks in order of their first item, and the labels
    # (item i in block labels[i]) rise in lexicographic order
    items = ["e", "a", "d", "b", "f", "c"]
    stirling = {0: 0, 1: 1, 2: 31, 3: 90, 4: 65, 5: 15, 6: 1, 7: 0}  # partitions of 6 items into l blocks
    for l, count in stirling.items():
        labels = []
        for blocks in zxparam.verify._partitions_into(items, l):
            label = tuple(next(j for j, b in enumerate(blocks) if item in b) for item in items)
            assert blocks == [[item for item, j in zip(items, label) if j == b] for b in range(l)]
            assert [items.index(b[0]) for b in blocks] == sorted(items.index(b[0]) for b in blocks)
            labels.append(label)
        assert len(labels) == count and labels == sorted(set(labels))


def agreement_circuits():
    """The circuits of test_brute_force_agrees_with_optimizer."""
    rng = Random(81)
    return [random_circuit(Random(i + 250), rng.randint(2, 5), rng.randint(4, 16), rng.randint(1, 4))
            for i in range(15)]


def test_brute_force_equals_per_candidate_reference():
    five = random_circuit(Random(4), 2, 12, 5)
    circuits = [parse_circuit(src) for src in ORACLE_INSTANCES] + agreement_circuits() + [five]
    rng = Random(17)
    for i in range(100):
        n_gates = rng.randint(4, 24)
        circuits.append(random_circuit(Random(5000 + i), rng.randint(1, 6), n_gates, rng.randint(1, min(5, n_gates))))
    results = [brute_force_min(c, max_params=5) for c in circuits]
    assert results == [reference_brute_force(c) for c in circuits]
    assert [r.count for r in results[:4]] == [1, 2, 1, 0] and results[19].count == 4


def test_probe_state_is_seeded_and_bounded():
    probe = probe_state(3, 5)
    assert probe.shape == (8, 1) and probe.dtype == complex
    assert np.array_equal(probe, probe_state(3, 5))
    assert not np.allclose(probe, probe_state(3, 6))
    assert not np.allclose(probe_state(4, 5)[:8], probe)
    # the sample points still come from default_rng(seed) alone
    assert structured_samples(["a"], 2, 5)[2]["a"] == np.random.default_rng(5).uniform(0, 2 * math.pi)
    assert probe_state(MAX_PROBE_QUBITS).shape == (2 ** MAX_PROBE_QUBITS, 1)
    for n in (MAX_PROBE_QUBITS + 1, 40):
        with pytest.raises(TooLarge):
            probe_state(n)


def test_ap_form_zero_ket():
    d = circuit_state_diagram(parse_circuit("qreg 1\nrz(0pi/2) 0"))
    ap = ap_form(d)
    assert ap.rows == ((0b1, 0),)
    assert ap.linear_phase == (0,)
    assert not ap.quadratic_pairs


def test_ap_form_parity_state():
    d = circuit_state_diagram(parse_circuit("qreg 2\nh 0\ncx 0 1"))
    ap = ap_form(d)
    assert ap.rows == ((0b11, 0),)
    ok, _, _ = proportionality_ratio(ap_state(ap), tensor_eval(d).amplitudes, 1e-9)
    assert ok


def test_ap_form_two_vertex_graph_state():
    d = circuit_state_diagram(parse_circuit("qreg 2\nh 0\nh 1\ncz 0 1"))
    ap = ap_form(d)
    assert ap.rows == ()
    assert ap.quadratic_pairs == frozenset({(0, 1)})
    ok, _, _ = proportionality_ratio(ap_state(ap), tensor_eval(d).amplitudes, 1e-9)
    assert ok


def test_ap_form_round_trip_random_states():
    rng = Random(51)
    for i in range(30):
        c = random_circuit(Random(i + 50), rng.randint(1, 6), rng.randint(2, 18), 0)
        d = circuit_state_diagram(c)
        ap = ap_form(d)
        ok, _, dev = proportionality_ratio(ap_state(ap), tensor_eval(d).amplitudes, 1e-9)
        assert ok, (i, dev)


def test_ap_form_rejects_parameters_and_inputs():
    with pytest.raises(NotClifford):
        ap_form(circuit_state_diagram(parse_circuit("qreg 1\nrz(t0) 0")))
    with pytest.raises(NotClifford):
        ap_form(circuit_to_diagram(parse_circuit("qreg 1\nh 0")))


def test_ap_form_zero_state():
    # <1|0> component: an isolated pi spider makes the diagram the zero map
    d = circuit_state_diagram(parse_circuit("qreg 1\nh 0"))
    v = d.add_spider(Phase(2))
    with pytest.raises(ZeroState):
        ap_form(d)


def test_ap_form_reads_bare_wires_and_a_doubly_wired_spider():
    d = Diagram()
    o = [d.add_boundary(VKind.OUTPUT, q) for q in range(6)]
    d.add_edge(o[0], o[1], EdgeKind.PLAIN)
    d.add_edge(o[2], o[3], EdgeKind.HADAMARD)
    s = d.add_spider(Phase(1))
    d.add_edge(s, o[4], EdgeKind.PLAIN)
    d.add_edge(s, o[5], EdgeKind.PLAIN)
    ap = ap_form(d)
    assert ap.rows == ((0b000011, 0), (0b110000, 0))
    assert ap.linear_phase == (0, 0, 0, 0, 1, 0)
    assert ap.quadratic_pairs == frozenset({(2, 3)})
    ok, _, dev = proportionality_ratio(ap_state(ap), tensor_eval(d).amplitudes, 1e-9)
    assert ok, dev


def test_terminal_violations_name_a_decorated_boundary_spider_and_a_lone_spider():
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    b = d.add_spider(Phase(1))
    d.add_edge(b, out, EdgeKind.HADAMARD)
    message = f"boundary spider {b} has decoration S^1H"
    assert terminal_violations(d) == [message]
    with pytest.raises(NotTerminalForm, match=f"^{re.escape(message)}$"):
        optimality_certificate(d)
    lone = d.add_spider(Phase(2))
    assert terminal_violations(d) == [message, f"scalar component [{lone}] remains"]


def test_optimality_certificate_passes_on_simplify_outputs():
    rng = Random(71)
    for i in range(15):
        c = random_circuit(Random(i + 150), rng.randint(2, 6), rng.randint(4, 22), rng.randint(0, 5))
        term, _ = simplify(circuit_to_diagram(c))
        report = optimality_certificate(term)
        assert report.passed, report.failures


def test_terminal_checks_find_gadgets_once(monkeypatch):
    # a terminal diagram of the 6-qubit benchmark rung, with gadgets
    c = random_circuit(Random("1/r6q60g/0"), 6, 60, 12)
    term, _ = simplify(circuit_to_diagram(c), seed=0)
    calls = []
    real = zxparam.verify.find_gadgets

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(zxparam.verify, "find_gadgets", counting)
    report = optimality_certificate(term)
    assert report.passed and report.n_gadgets > 0
    assert len(calls) == 1
    calls.clear()
    assert terminal_violations(term) == []
    assert len(calls) == 1


def test_optimality_certificate_flags_identical_neighbourhoods():
    d = Diagram()
    targets = []
    for q in range(2):
        out = d.add_boundary(VKind.OUTPUT, q)
        s = d.add_spider(Phase(0))
        d.add_edge(s, out, EdgeKind.PLAIN)
        targets.append(s)
    a1, _ = attach_gadget(Random(0), d, targets, 0, Phase.of("a"))
    a2, _ = attach_gadget(Random(0), d, targets, 0, Phase.of("b"))
    report = optimality_certificate(d)
    assert not report.passed
    # one failure per defect: the pair of legs that condition (c)(ii) finds
    # is the same defect, and has no entry of its own
    assert report.failures == [f"(b) gadgets at axes {a1} and {a2} share a neighbourhood"]


def test_optimality_certificate_flags_degree_one_gadget():
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    w = d.add_spider(Phase(0, (("a", 1),)))
    d.add_edge(w, out, EdgeKind.PLAIN)
    attach_gadget(Random(0), d, [w], 0, Phase.of("b"))
    report = optimality_certificate(d)
    assert not report.passed
    # condition (c)(i) finds the same gadget, and adds no entry
    assert len(report.failures) == 1 and report.failures[0].startswith("(a)")


def test_optimality_certificate_flags_isolated_parameter():
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    s = d.add_spider(Phase(0))
    d.add_edge(s, out, EdgeKind.PLAIN)
    d.add_spider(Phase(0, (("a", 1),)))
    report = optimality_certificate(d)
    assert not report.passed
    assert any(f.startswith("(d)") for f in report.failures)


def test_brute_force_fusion_example():
    c = parse_circuit(FUSION)
    result = brute_force_min(c)
    assert result.count == 1
    assert p_matrix(result.witness).tolist() == [[1, 1]]


def test_brute_force_hadamard_separated():
    c = parse_circuit("qreg 1\nrz(t0) 0\nh 0\nrz(t1) 0")
    assert brute_force_min(c).count == 2


def test_brute_force_zero_parameters():
    c = parse_circuit("qreg 2\nh 0\ncx 0 1")
    assert brute_force_min(c).count == 0


def test_brute_force_sign_flip_witness():
    c = parse_circuit("qreg 1\nrz(t0) 0\nx 0\nrz(t1) 0\nx 0")
    result = brute_force_min(c)
    assert result.count == 1
    assert sorted(x for row in p_matrix(result.witness).tolist() for x in row) == [-1, 1]


def test_brute_force_too_many_params():
    gates = "\n".join(f"rz(t{i}) 0" for i in range(6))
    c = parse_circuit(f"qreg 1\n{gates}")
    with pytest.raises(TooManyParams):
        brute_force_min(c)


def test_brute_force_agrees_with_optimizer():
    for c in agreement_circuits():
        res = phase_teleport(c)
        assert brute_force_min(c).count == len(res.circuit.params)


def test_single_parameter_diagram_decomposes_against_zero_pi_basis():
    # with a parameter occurring once, D[g] = a*D[0] + b*D[pi] with the basis
    # coefficients a = (e^{ig}+1)/2, b = (1-e^{ig})/2 and a + b = 1, exactly
    rng = Random(91)
    for i in range(8):
        c = random_circuit(Random(i + 450), rng.randint(1, 4), rng.randint(3, 12), 1)
        d = circuit_to_diagram(c)
        (p,) = c.params
        at = lambda g: tensor_eval(d, {p: g}).amplitudes
        gamma = rng.uniform(0, 2 * math.pi)
        a = (np.exp(1j * gamma) + 1) / 2
        b = (1 - np.exp(1j * gamma)) / 2
        assert abs(a + b - 1) < 1e-12
        assert np.allclose(at(gamma), a * at(0.0) + b * at(math.pi), atol=1e-10)


def test_structured_samples_cover_two_values_per_parameter():
    samples = structured_samples(["a", "b"], 5, 0)
    assert len(samples) == 1 + 2 + 5
    values_a = {round(s["a"], 6) for s in samples[:3]}
    assert {0.0, round(math.pi, 6)} <= values_a


def reference_structured_samples(params, n_random, seed=0):
    """The sample points built one dict and one draw at a time."""
    samples = [{p: 0.0 for p in params}]
    for p in params:
        s = {q: 0.0 for q in params}
        s[p] = math.pi
        samples.append(s)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        samples.append({p: float(rng.uniform(0, 2 * math.pi)) for p in params})
    return samples


def same_floats(a, b):
    """Equal bit for bit, the sign of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k, n_random, seed", [(0, 5, 0), (1, 2, 3), (3, 5, 0), (7, 200, 11)])
def test_sample_array_rows_are_the_structured_samples(k, n_random, seed):
    params = [f"t{j}" for j in range(k)]
    samples = sample_array(k, n_random, seed)
    assert samples.shape == (1 + k + n_random, k)
    reference = reference_structured_samples(params, n_random, seed)
    assert structured_samples(params, n_random, seed) == reference
    assert same_floats(samples, [[s[p] for p in params] for s in reference])


def random_map(rng, params, names):
    """A parsimonious map of ``params`` onto ``names`` with random groups,
    signs and constants."""
    shuffled = list(params)
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, len(params)), len(names) - 1))
    groups = [shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(params)])]
    rows = tuple(tuple((p, rng.choice((1, -1))) for p in group) for group in groups)
    return ReductionMap(tuple(params), tuple(names), rows, tuple(rng.randrange(4) for _ in names))


def test_apply_array_equals_apply_bit_for_bit():
    rng = Random(1101)
    for trial in range(40):
        k = rng.randint(1, 9)
        params = [f"t{j}" for j in range(k)]
        names = [f"u{j}" for j in range(rng.randint(1, k))]
        reduction = random_map(rng, params, names)
        order = list(names)
        rng.shuffle(order)  # columns in another order than the rows
        values = np.random.default_rng(trial).uniform(-7, 7, (12, k))
        values[0] = 0.0
        values[1] = -0.0
        values[2, 0] = -0.0
        values[3] = np.where(np.arange(k) % 2, math.pi, -math.pi)
        samples = [dict(zip(params, row)) for row in values.tolist()]
        expected = [[apply_reduction(reduction, s)[name] for name in order] for s in samples]
        assert same_floats(reduction.apply_array(values, order), expected)
        assert same_floats(reduction.apply_array(values, reduction.new_param_names),
                           [[apply_reduction(reduction, s)[name] for name in names] for s in samples])


def test_apply_array_keeps_a_negative_zero_term_as_apply_does():
    reduction = ReductionMap(("a", "b"), ("u", "v"), ((("a", -1),), (("b", 1),)), (0, 2))
    values = np.array([[0.0, -0.0], [-0.0, 0.0]])
    expected = [[apply_reduction(reduction, {"a": a, "b": b})[n] for n in ("u", "v")] for a, b in values.tolist()]
    mapped = reduction.apply_array(values, reduction.new_param_names)
    assert same_floats(mapped, expected)
    assert same_floats(mapped[:, 0], [0.0, 0.0])  # 0.0 + -0.0 is 0.0


def test_circuit_unitary_reads_angle_columns_bit_for_bit():
    for n in (1, 3, 5):
        c = random_circuit(Random(1110 + n), n, 30, 6)
        samples = sample_array(len(c.params), 4, n)
        probe = probe_state(n)
        dicts = [dict(zip(c.params, row)) for row in samples.tolist()]
        assert circuit_unitary(c, samples, states=probe).tobytes() == \
            circuit_unitary(c, dicts, states=probe).tobytes()
        assert circuit_unitary(c, samples[2:3]).tobytes() == circuit_unitary(c, dicts[2]).tobytes()
        with pytest.raises(ValueError):
            circuit_unitary(c, samples[:, 1:], states=probe)


def test_check_reduction_with_map_rows_out_of_circuit_order():
    # u1's gate comes first in the optimised circuit, but the map lists u0 first
    c = parse_circuit("qreg 2\nrz(t0) 1\nrz(t1) 0\ncx 0 1\nrz(t2) 0\nrz(t3) 1\n")
    out = parse_circuit("qreg 2\nrz(u1) 1\nrz(u0) 0\ncx 0 1\n")
    assert out.params == ["u1", "u0"]
    m = ReductionMap(tuple(c.params), ("u0", "u1"), ((("t1", 1), ("t2", 1)), (("t0", 1),)), (0, 0))
    assert same_floats(m.apply_array(sample_array(4, 2), out.params)[:, 0], sample_array(4, 2)[:, 0])
    report = check_reduction(c, out, m, n_samples=3)
    # t3 is dropped from the output: the map is wrong from the sample t3 = pi on
    assert report.deviations[:4] == [0.0] * 4 and report.deviations[4] > 1e-9
    fixed = parse_circuit("qreg 2\nrz(u1) 1\nrz(u0) 0\ncx 0 1\nrz(u2) 1\n")
    good = ReductionMap(tuple(c.params), ("u0", "u2", "u1"),
                        ((("t1", 1), ("t2", 1)), (("t3", 1),), (("t0", 1),)), (0, 0, 0))
    report = check_reduction(c, fixed, good, n_samples=3)
    probe = probe_state(2)
    assert report.holds
    for sample, lam in zip(structured_samples(c.params, 3), report.ratios):
        _, lam_ref, _ = proportionality_ratio(
            circuit_unitary(c, sample, states=probe).reshape(-1),
            circuit_unitary(fixed, apply_reduction(good, sample), states=probe).reshape(-1), 1e-9)
        assert lam == lam_ref


def test_zero_parameter_circuits():
    c = parse_circuit("qreg 2\nh 0\ncx 0 1\ns 1")
    empty = ReductionMap((), (), (), ())
    report = check_reduction(c, c, empty, n_samples=4)
    assert report.holds and len(report.ratios) == 5 and all(r == 1.0 for r in report.ratios)
    assert not check_reduction(c, parse_circuit("qreg 2\nh 0\ncx 0 1\nsdg 1"), empty).holds
    assert brute_force_min(c) == BruteForceResult(0, empty)
    assert sample_array(0, 4).shape == (5, 0)
