import json
import re
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from helpers import p_matrix
from test_golden import CASES, verify_circuits
from zxparam.circuits import Circuit, Gate, GateKind, circuit_to_diagram, emit_circuit, parse_circuit
from zxparam.errors import InconsistentProvenance, RepeatedParameter
from zxparam.generate import random_circuit
from zxparam.params import Phase
from zxparam.reduction import ReductionMap, extract_reduction, phase_teleport
from zxparam.rewrite import simplify
from zxparam.verify import check_reduction, optimality_certificate


def run_extraction(src):
    c = parse_circuit(src)
    terminal, events = simplify(circuit_to_diagram(c))
    return c, extract_reduction(events, c.params, terminal)


def test_extract_reduction_fusion_example():
    c, m = run_extraction("qreg 1\nrz(t0) 0\nrz(t1) 0")
    assert p_matrix(m).tolist() == [[1, 1]]
    assert m.constants == (0,)
    assert m.new_param_names == ("u0",)


def test_extract_reduction_single_parameter():
    c, m = run_extraction("qreg 2\nh 0\nrz(t0) 0\ncx 0 1")
    assert p_matrix(m).tolist() in ([[1]], [[-1]])
    assert len(m.rows) == 1


def test_extract_reduction_replays_against_terminal():
    rng = Random(17)
    for i in range(20):
        n_gates = rng.randint(6, 24)
        c = random_circuit(Random(i + 600), rng.randint(2, 6), n_gates, rng.randint(1, 6))
        terminal, events = simplify(circuit_to_diagram(c))
        m = extract_reduction(events, c.params, terminal)
        # rows reconstruct the surviving expressions exactly
        exprs = {frozenset(e.terms): e for e in terminal.param_exprs().values()}
        for terms, const in zip(m.rows, m.constants):
            expr = exprs[frozenset(terms)]
            assert expr.clifford == const
        # parsimonious columns: each original parameter at most once
        assert np.all(np.abs(p_matrix(m)).sum(axis=0) <= 1)


def test_extract_reduction_rejects_corrupted_events():
    c = parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0")
    terminal, events = simplify(circuit_to_diagram(c))
    with pytest.raises(InconsistentProvenance):
        extract_reduction(events, ["t0"], terminal)  # t1 unknown to the replay


def test_extract_reduction_rejects_a_vanished_parameter():
    c = parse_circuit("qreg 2\nrz(t0) 0\nrz(t1) 1")
    terminal, events = simplify(circuit_to_diagram(c))
    terminal.set_phase(terminal.param_registry["t1"], Phase(0))
    with pytest.raises(InconsistentProvenance, match="^parameter 't1' is on no terminal spider$"):
        extract_reduction(events, c.params, terminal)


def test_extract_reduction_rejects_a_parameter_on_two_spiders():
    c = parse_circuit("qreg 2\nrz(t0) 0\nrz(t1) 1")
    terminal, events = simplify(circuit_to_diagram(c))
    terminal.set_phase(terminal.param_registry["t1"], Phase.of("t0"))
    with pytest.raises(InconsistentProvenance, match="^parameter 't0' is on two terminal spiders$"):
        extract_reduction(events, c.params, terminal)


def test_extract_reduction_replay_names_each_corruption():
    c = random_circuit(Random(0), 4, 40, 8)
    terminal, events = simplify(circuit_to_diagram(c))
    extract_reduction(events, c.params, terminal)
    m = next(i for i, ev in enumerate(events) if ev.param_merge is not None)
    v = max(i for i, ev in enumerate(events) if ev.moved)  # no later event moves its parameters
    merge, moved = events[m].param_merge, events[v].moved
    (merged, sign), (name, owner) = merge.absorbed[0], moved[0]
    other = next(w for w in terminal.param_exprs() if w != owner)
    cases = [
        (m, {"param_merge": replace(merge, absorbed=((merged, -sign),) + merge.absorbed[1:])},
         f"replayed sign {-sign} for {merged!r} does not match terminal {sign}"),
        (v, {"moved": ((name, other),) + moved[1:]},
         f"replayed owner {other} for {name!r} does not match terminal {owner}"),
        (v, {"moved": (("x", owner),) + moved}, "event moves unknown parameter 'x'"),
        (m, {"param_merge": replace(merge, absorbed=(("x", 1),) + merge.absorbed)},
         "event merges unknown parameter 'x'"),
    ]
    for i, fields, message in cases:
        corrupted = events[:i] + [replace(events[i], **fields)] + events[i + 1:]
        with pytest.raises(InconsistentProvenance, match=f"^{re.escape(message)}$"):
            extract_reduction(corrupted, c.params, terminal)


def test_phase_teleport_fusion_example():
    c = parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0")
    res = phase_teleport(c)
    assert [g.param for g in res.circuit.gates] == ["u0"]
    assert res.reduction.row_string(0) == "u0 = t0 + t1"
    assert res.reduction.constants == (0,)
    assert check_reduction(c, res.circuit, res.reduction).holds


def test_phase_teleport_cx_commutation():
    c = parse_circuit("qreg 2\nrz(t0) 0\ncx 0 1\nrz(t1) 0\ncx 0 1")
    res = phase_teleport(c)
    assert len(res.circuit.params) == 1
    assert check_reduction(c, res.circuit, res.reduction).holds


def test_phase_teleport_hadamard_blocks_fusion():
    c = parse_circuit("qreg 1\nrz(t0) 0\nh 0\nrz(t1) 0")
    res = phase_teleport(c)
    assert len(res.circuit.params) == 2
    assert check_reduction(c, res.circuit, res.reduction).holds


def test_phase_teleport_sign_normalisation():
    # X conjugation flips t1; the representative keeps +1
    c = parse_circuit("qreg 1\nrz(t0) 0\nx 0\nrz(t1) 0\nx 0")
    res = phase_teleport(c)
    assert res.reduction.row_string(0) == "u0 = t0 - t1"
    assert check_reduction(c, res.circuit, res.reduction).holds
    # flipped representative order: representative sign still +1
    c = parse_circuit("qreg 1\nx 0\nrz(t0) 0\nx 0\nrz(t1) 0")
    res = phase_teleport(c)
    assert res.reduction.row_string(0) == "u0 = t0 - t1"
    assert check_reduction(c, res.circuit, res.reduction).holds


def test_phase_teleport_keeps_clifford_gates():
    rng = Random(23)
    for i in range(15):
        c = random_circuit(Random(i + 700), rng.randint(1, 6), rng.randint(3, 20), rng.randint(0, 5))
        res = phase_teleport(c)
        before = sorted((g.kind.value, g.qubits, g.k) for g in c.gates
                        if g.kind is not GateKind.RZ_PARAM)
        after = sorted((g.kind.value, g.qubits, g.k) for g in res.circuit.gates
                       if g.kind is not GateKind.RZ_PARAM)
        assert before == after


def test_phase_teleport_representative_is_earliest_gate():
    c = parse_circuit("qreg 2\nh 0\nrz(t0) 0\ncx 0 1\nrz(t1) 0\ncx 0 1")
    res = phase_teleport(c)
    assert len(res.circuit.params) == 1
    kept = [g for g in res.circuit.gates if g.kind is GateKind.RZ_PARAM]
    assert res.circuit.gates.index(kept[0]) == next(i for i, g in enumerate(c.gates) if g.param == "t0")


def test_phase_teleport_idempotent_count():
    rng = Random(33)
    for i in range(12):
        c = random_circuit(Random(i + 800), rng.randint(1, 6), rng.randint(5, 20), rng.randint(0, 5))
        once = phase_teleport(c)
        twice = phase_teleport(once.circuit)
        assert len(twice.circuit.params) == len(once.circuit.params)


@pytest.mark.parametrize("gates, error", [
    ([Gate(GateKind.RZ_PARAM, (0,), param="t0"), Gate(GateKind.RZ_PARAM, (1,), param="t0")],
     RepeatedParameter),
    ([Gate(GateKind.H, (0,)), Gate(GateKind.RZ_PARAM, (2,), param="t0")], ValueError),
    ([Gate(GateKind.CZ, (1, 1)), Gate(GateKind.RZ_PARAM, (0,), param="t0")], ValueError),
], ids=["repeated-parameter", "qubit-out-of-range", "same-qubit-cz"])
def test_phase_teleport_rejects_invalid_circuits(gates, error):
    # a hand-built circuit skips the parser's checks; phase_teleport must
    # still refuse it rather than optimise it
    with pytest.raises(error):
        phase_teleport(Circuit(2, gates))


def ladder_and_seeded_circuits():
    """The golden ladder, then 200 seeded random circuits of 1-8 qubits."""
    rng = Random(53)
    return [c for _, c in CASES] + [
        random_circuit(Random(i + 1000), rng.randint(1, 8), n_gates, rng.randint(0, min(8, n_gates)))
        for i, n_gates in enumerate(rng.randint(1, 40) for _ in range(200))]


def test_simplify_keeps_every_parameter():
    # each rz is used once, and A·rz(t+δ)·B ∝ A·rz(t)·B forces δ ∈ 2πℤ, so
    # no parameter of a circuit can end in a scalar component
    for c in ladder_and_seeded_circuits():
        terminal, _ = simplify(circuit_to_diagram(c))
        assert set(terminal.param_registry) == set(c.params)


def test_phase_teleport_output_is_a_valid_circuit():
    # phase_teleport does not re-validate its output: it keeps the validated
    # input's gates and gives each representative a distinct name
    for c in ladder_and_seeded_circuits():
        res = phase_teleport(c)
        res.circuit.validate()
        assert res.circuit.params == [f"u{i}" for i in range(len(res.reduction.rows))]


def test_phase_teleport_count_matches_terminal_diagram():
    rng = Random(43)
    for i in range(12):
        c = random_circuit(Random(i + 900), rng.randint(1, 6), rng.randint(3, 20), rng.randint(1, 5))
        res = phase_teleport(c)
        terminal, _ = simplify(circuit_to_diagram(c))
        assert len(res.circuit.params) == len(terminal.param_exprs())


# every golden-ladder circuit, then every original of the verify digests
ORDER_CASES = CASES + verify_circuits()


@pytest.mark.parametrize("name,circuit", ORDER_CASES, ids=[name for name, _ in ORDER_CASES])
def test_phase_teleport_output_does_not_depend_on_the_picks(name, circuit):
    """The strategy reaches the optimal count whatever order its rules fire
    in, so the pick seed moves neither the emitted circuit and map text nor
    the certificate's verdict and count (it may move ``n_gadgets``)."""
    outputs, verdicts = set(), set()
    for seed in (0, 1, 2):
        res = phase_teleport(circuit, seed=seed)
        outputs.add((emit_circuit(res.circuit), res.reduction.to_text()))
        certificate = optimality_certificate(simplify(circuit_to_diagram(circuit), seed=seed)[0])
        verdicts.add((certificate.passed, certificate.n_parameters))
    assert len(outputs) == 1
    assert len(verdicts) == 1


def qaoa_like(n, pairs, layers, mixers=False):
    from zxparam.circuits import Circuit, Gate
    gates = []
    t = 0
    for layer in range(layers):
        for a, b in pairs:
            gates += [Gate(GateKind.CX, (a, b)),
                      Gate(GateKind.RZ_PARAM, (b,), param=f"t{t}"),
                      Gate(GateKind.CX, (a, b))]
            t += 1
        if mixers and layer < layers - 1:
            gates += [Gate(GateKind.H, (q,)) for q in range(n)]
    from zxparam.circuits import Circuit
    return Circuit(n, gates)


def test_repeated_parity_layers_fuse_to_one_parameter_each():
    for n, pairs in [(3, [(0, 1), (1, 2)]), (5, [(0, 1), (1, 2), (2, 3), (3, 4)])]:
        for layers in (2, 3):
            c = qaoa_like(n, pairs, layers)
            res = phase_teleport(c)
            assert len(res.circuit.params) == len(pairs)
            assert check_reduction(c, res.circuit, res.reduction).holds


def test_mixing_layers_block_fusion():
    from zxparam.verify import brute_force_min
    c = qaoa_like(3, [(0, 1), (1, 2)], 2, mixers=True)
    res = phase_teleport(c)
    assert len(res.circuit.params) == 4
    assert brute_force_min(c).count == 4
    assert check_reduction(c, res.circuit, res.reduction).holds


@pytest.mark.parametrize("name,src,expected", [
    ("diagonal separators commute", "qreg 1\nrz(t0) 0\ns 0\nrz(t1) 0\nz 0", 1),
    ("double X sandwich", "qreg 1\nx 0\nrz(t0) 0\nrz(t1) 0\nx 0", 1),
    ("across a swap", "qreg 2\nrz(t0) 0\ncx 0 1\ncx 1 0\ncx 0 1\nrz(t1) 1", 1),
    ("cz is diagonal", "qreg 2\nrz(t0) 0\ncz 0 1\nrz(t1) 0", 1),
    ("hadamard walls", "qreg 2\nrz(t0) 0\nh 0\nrz(t1) 0\nh 1\nrz(t2) 1", 3),
    ("circuit edges", "qreg 2\nrz(t0) 0\nh 0\ncx 0 1\nh 0\nrz(t1) 0", 2),
    ("parity ladder",
     "qreg 3\ncx 0 1\ncx 1 2\nrz(t0) 2\ncx 1 2\ncx 0 1\ncx 0 1\ncx 1 2\nrz(t1) 2\ncx 1 2\ncx 0 1", 1),
])
def test_known_fusion_structure(name, src, expected):
    from zxparam.verify import brute_force_min
    c = parse_circuit(src)
    res = phase_teleport(c)
    assert len(res.circuit.params) == expected, name
    assert brute_force_min(c).count == expected, name
    assert check_reduction(c, res.circuit, res.reduction).holds, name


def test_reduction_map_serialization_round_trip():
    m = ReductionMap(("t0", "t1", "t2"), ("u0", "u1"),
                     ((("t0", 1), ("t2", -1)), (("t1", 1),)), (0, 3))
    again = ReductionMap.from_text(m.to_text())
    assert again == m
    data = m.to_dict()
    assert set(data) == {"params_in", "params_out", "rows", "eliminated"}
    assert set(data["rows"][0]) == {"name", "terms", "const_pi_over_2"}
    assert m.row_string(1) == "u1 = t1 + 3pi/2"


def test_reduction_map_invariants():
    with pytest.raises(ValueError, match=r"^row u0 is empty \(zero rows are not allowed\)$"):
        ReductionMap(("t0",), ("u0",), ((),), (0,))
    with pytest.raises(ValueError, match=r"^column 't0' has two nonzero entries \(u0 and u1\); "
                                         r"map is not parsimonious$"):
        ReductionMap(("t0",), ("u0", "u1"), ((("t0", 1),), (("t0", 1),)), (0, 0))
    with pytest.raises(ValueError, match=r"^row u0 references unknown parameter 't1'$"):
        ReductionMap(("t0",), ("u0",), ((("t1", 1),),), (0,))
    with pytest.raises(ValueError, match=r"^bad term \(t0, 2\) in row u0$"):
        ReductionMap(("t0",), ("u0",), ((("t0", 2),),), (0,))
    m = ReductionMap(("t0", "t1", "t2"), ("u0",), ((("t2", -1), ("t0", 1)),), (0,))
    assert m.row_string(0) == "u0 = t0 - t2"  # terms in the order of params_in


@pytest.mark.parametrize("args, message", [
    ((("t0", "t0"), ("u0",), ((("t0", 1),),), (0,)), "params_in names 't0' twice"),
    ((("t0", "t1"), ("u0", "u0"), ((("t0", 1),), (("t1", 1),)), (0, 0)), "new_param_names names 'u0' twice"),
    ((("a", "b"), ("u0", "u1"), ((("a", 1),),), (0,)),
     "rows, new_param_names and constants have lengths 1, 2 and 1"),
    ((("t0",), ("u0",), ((("t0", 1),),), (0, 0)), "rows, new_param_names and constants have lengths 1, 1 and 2"),
], ids=["params_in", "new_param_names", "short-rows", "long-constants"])
def test_reduction_map_rejects_inconsistent_fields(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReductionMap(*args)


def test_reduction_map_from_dict_checks_params_out():
    data = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1),),), (0,)).to_dict()
    assert ReductionMap.from_dict(data).new_param_names == ("u0",)
    del data["params_out"]
    assert ReductionMap.from_dict(data).new_param_names == ("u0",)
    data["params_out"] = ["zz"]
    with pytest.raises(ValueError, match=r'^params_out \["zz"\] does not match the row names \["u0"\]$'):
        ReductionMap.from_dict(data)


def test_reduction_map_from_dict_reads_eliminated_only_as_empty():
    data = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1),),), (0,)).to_dict()
    assert data["eliminated"] == []
    del data["eliminated"]
    assert ReductionMap.from_dict(data).to_dict()["eliminated"] == []
    for listed in (["t1"], None, "t1"):
        data["eliminated"] = listed
        with pytest.raises(ValueError, match=re.escape(f"eliminated must be [], got {json.dumps(listed)}")):
            ReductionMap.from_dict(data)


def reference_row_string(m: ReductionMap, i: int) -> str:
    """The printed row as a loop over its terms in params_in order."""
    parts = []
    for param, sign in sorted(m.rows[i], key=lambda t: m.params_in.index(t[0])):
        if not parts:
            parts.append(param if sign > 0 else f"-{param}")
        else:
            parts.append(f"+ {param}" if sign > 0 else f"- {param}")
    if m.constants[i]:
        parts.append(f"+ {m.constants[i]}pi/2")
    return f"{m.new_param_names[i]} = " + " ".join(parts)


HAND_BUILT_MAPS = [
    ReductionMap((), (), (), ()),
    # from_text accepts any string as a name: quotes, backslashes, control
    # and non-ASCII characters, and characters outside the BMP
    ReductionMap(('q"uote', "back\\slash", "été", "tab\tnew\nline", "\U0001d70b", "\x7f"),
                 ("ü0", "\\"), (((("été", -1), ('q"uote', 1), ("\x7f", 1))), (("\U0001d70b", 1),)), (3, 0)),
]


@pytest.mark.parametrize("m", HAND_BUILT_MAPS, ids=["empty", "escaped-names"])
def test_map_text_is_json_dumps_of_the_dict(m):
    assert m.to_text() == json.dumps(m.to_dict(), indent=2) + "\n"
    assert ReductionMap.from_text(m.to_text()).to_text() == m.to_text()  # rows come back in column order
    for i in range(len(m.rows)):
        assert m.row_string(i) == reference_row_string(m, i)


def test_map_text_is_json_dumps_of_the_dict_on_the_golden_ladder():
    for _, circuit in CASES:
        for seed in (0, 1):
            m = phase_teleport(circuit, seed=seed).reduction
            assert m.to_text() == json.dumps(m.to_dict(), indent=2) + "\n"
            assert [m.row_string(i) for i in range(len(m.rows))] == \
                [reference_row_string(m, i) for i in range(len(m.rows))]
