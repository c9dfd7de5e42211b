"""The exact check and the merge bound of ``zxparam.frame``, against the
sampled reference ``check_reduction`` and against the optimiser."""

import tracemalloc
from random import Random

import pytest

from test_golden import CASES
from zxparam.circuits import Circuit, Gate, GateKind, parse_circuit
from zxparam.errors import DimensionMismatch, TooLarge
from zxparam.frame import MAX_FRAME_AREA, _layout, exact_check, merge_bound
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap, phase_teleport
from zxparam.verify import check_reduction


def fused(c: Circuit, rows, constants=None):
    """``c`` with each row kept at the gate of its first parameter in
    ``rows`` (renamed u0, u1, ...) and its other gates dropped, and the map."""
    names = tuple(f"u{i}" for i in range(len(rows)))
    kept = {terms[0][0]: name for name, terms in zip(names, rows)}
    gates = [Gate(g.kind, g.qubits, g.k, kept[g.param]) if g.param in kept else g
             for g in c.gates if g.kind is not GateKind.RZ_PARAM or g.param in kept]
    reduction = ReductionMap(tuple(c.params), names, tuple(tuple(terms) for terms in rows),
                             tuple(constants or (0,) * len(rows)))
    return Circuit(c.n_qubits, gates), reduction


def random_map(rng: Random, c: Circuit):
    """A random parsimonious map of ``c``: a random grouping, representative,
    signs and (now and then) constants."""
    labels = [rng.randrange(len(c.params)) for _ in c.params]
    rows = []
    for label in sorted(set(labels)):
        group = [p for p, l in zip(c.params, labels) if l == label]
        rng.shuffle(group)
        rows.append([(group[0], 1)] + [(p, rng.choice((1, -1))) for p in group[1:]])
    constants = [rng.choice((0, 0, 0, 1, 2, 3)) for _ in rows]
    return fused(c, rows, constants)


def small_circuit(rng: Random) -> Circuit:
    n_gates = rng.randint(1, 25)
    return random_circuit(rng, rng.randint(1, 5), n_gates, rng.randint(1, min(n_gates, 6)))


def optimiser_rows(c: Circuit, reduction: ReductionMap):
    """The rows of an optimiser map, each with its representative, the
    earliest parameter, first."""
    position = {p: i for i, p in enumerate(c.params)}
    return [sorted(terms, key=lambda t: position[t[0]]) for terms in reduction.rows]


def agrees(c1: Circuit, c2: Circuit, reduction: ReductionMap):
    """The exact verdict, asserted equal to the sampled one."""
    failure = exact_check(c1, c2, reduction)
    assert (failure is None) == check_reduction(c1, c2, reduction).holds, failure
    return failure


def test_exact_check_agrees_with_check_reduction_on_random_maps():
    rng = Random(1)
    verdicts = [agrees(c, *random_map(rng, c)) for c in (small_circuit(rng) for _ in range(400))]
    conditions = [f and f.split(":")[0] for f in verdicts]
    assert min(conditions.count(k) for k in (None, "condition (i)", "condition (ii)")) >= 40


def test_exact_check_agrees_with_check_reduction_on_mutated_optimiser_maps():
    rng = Random(2)
    seen = {"holds": 0, "moved": 0, "clifford": 0}
    for _ in range(150):
        c = small_circuit(rng)
        res = phase_teleport(c)
        out, red = res.circuit, res.reduction
        assert agrees(c, out, red) is None
        assert merge_bound(c) == len(out.params)
        seen["holds"] += 1
        rows = optimiser_rows(c, red)
        wide = [i for i, terms in enumerate(rows) if len(terms) > 1]
        if wide:
            i = rng.choice(wide)
            j = rng.randrange(1, len(rows[i]))
            param, sign = rows[i][j]
            # a flipped sign
            flipped = [list(t) for t in rows]
            flipped[i][j] = (param, -sign)
            assert agrees(c, *fused(c, flipped)) == f"condition (ii): {param} has opposite signs in the two circuits"
            # a parameter in no row of the map
            kept = [list(t) for t in rows]
            del kept[i][j]
            assert agrees(c, *fused(c, kept)) == \
                f"condition (ii): {param} is in no row of the map"
            # a term moved to another row
            if len(rows) > 1:
                moved = [list(t) for t in rows]
                del moved[i][j]
                moved[rng.choice([r for r in range(len(rows)) if r != i])].append((param, sign))
                agrees(c, *fused(c, moved))
                seen["moved"] += 1
        if rows:
            # a changed constant puts S^k beside a row's gate
            constants = [0] * len(rows)
            constants[rng.randrange(len(rows))] = rng.randrange(1, 4)
            assert agrees(c, *fused(c, rows, constants)).startswith("condition (i):")
        # a changed Clifford part: one gate more in the output
        gates = list(out.gates)
        q = rng.randrange(c.n_qubits)
        gates.insert(rng.randint(0, len(gates)), Gate(rng.choice((GateKind.H, GateKind.S, GateKind.X)), (q,)))
        agrees(c, Circuit(c.n_qubits, gates), red)
        seen["clifford"] += 1
    assert min(seen.values()) >= 50, seen


def test_exact_check_finds_a_reordered_anticommuting_pair():
    # after a random gate rz(t) q, insert h q, rz(s) q, h q, rz(r) q: r has
    # t's Pauli, and s one that anticommutes with both, so fusing r into t's
    # row moves it past s
    rng = Random(3)
    tested = 0
    for _ in range(80):
        c = small_circuit(rng)
        t = rng.choice(c.params)
        at = next(i for i, g in enumerate(c.gates) if g.param == t)
        q = c.gates[at].qubits
        inserted = [Gate(GateKind.H, q), Gate(GateKind.RZ_PARAM, q, param="s"), Gate(GateKind.H, q),
                    Gate(GateKind.RZ_PARAM, q, param="r")]
        c = Circuit(c.n_qubits, c.gates[:at + 1] + inserted + c.gates[at + 1:])
        res = phase_teleport(c)
        rows = optimiser_rows(c, res.reduction)
        of_t = next(i for i, terms in enumerate(rows) if t in dict(terms))
        of_r = next(i for i, terms in enumerate(rows) if "r" in dict(terms))
        assert of_t != of_r
        if len(rows[of_r]) > 1:
            continue  # a later parameter joined r: moving r would move that row too
        rows[of_t].append(("r", dict(rows[of_t])[t]))  # r has t's signed Pauli
        del rows[of_r]
        failure = agrees(c, *fused(c, rows))
        assert failure.startswith("condition (iii):") and failure.endswith("are reordered but anticommute")
        tested += 1
    assert tested >= 40


# (original, optimised, rows of the map, their constants, the failure)
HAND_BUILT = {
    "clifford-part": ("rz(t0) 0\nz 0", "rz(u0) 0", [[("t0", 1)]], [0],
                      "condition (i): the Clifford parts differ on qubit 0"),
    "constant": ("rz(t0) 0\ns 0\nrz(t1) 0", "rz(u0) 0", [[("t0", 1), ("t1", 1)]], [1], None),
    "missing-constant": ("rz(t0) 0\ns 0\nrz(t1) 0", "rz(u0) 0", [[("t0", 1), ("t1", 1)]], [0],
                         "condition (i): the Clifford parts differ on qubit 0"),
    "sign": ("rz(t0) 0\nrz(t1) 0", "rz(u0) 0", [[("t0", 1), ("t1", -1)]], [0],
             "condition (ii): t1 has opposite signs in the two circuits"),
    "sign-through-x": ("rz(t0) 0\nx 0\nrz(t1) 0\nx 0", "rz(u0) 0\nx 0\nx 0", [[("t0", 1), ("t1", -1)]], [0],
                       None),
    "pauli": ("rz(t0) 0\ncx 0 1\nrz(t1) 1", "rz(u0) 0\ncx 0 1", [[("t0", 1), ("t1", 1)]], [0],
              "condition (ii): t1 acts on different Paulis in the two circuits"),
    "missing": ("rz(t0) 0\nh 0\nrz(t1) 0", "rz(u0) 0\nh 0", [[("t0", 1)]], [0],
                "condition (ii): t1 is in no row of the map"),
    "order": ("rz(a) 0\nh 0\nrz(b) 0\nh 0\nrz(c) 0", "rz(u0) 0\nh 0\nrz(u1) 0\nh 0",
              [[("a", 1), ("c", 1)], [("b", 1)]], [0, 0], "condition (iii): b and c are reordered but anticommute"),
    # S = {a, c} overtakes R = {b}, whose last parameter lies inside S's span
    "straddled-order": ("rz(a) 0\nh 0\nrz(b) 0\nh 0\nrz(c) 0", "h 0\nrz(u1) 0\nh 0\nrz(u0) 0",
                        [[("b", 1)], [("a", 1), ("c", 1)]], [0, 0],
                        "condition (iii): a and b are reordered but anticommute"),
    # c overtakes b, an X on another qubit: each is bit 1 of its component
    "commuting-order": ("rz(a) 0\nrz(b) 1\nh 1\nrz(c) 0", "rz(u0) 0\nrz(u1) 1\nh 1",
                        [[("a", 1), ("c", 1)], [("b", 1)]], [0, 0], None),
}


@pytest.mark.parametrize("original,optimised,rows,constants,expected", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_exact_check_hand_built(original, optimised, rows, constants, expected):
    c1, c2 = parse_circuit(f"qreg 2\n{original}\n"), parse_circuit(f"qreg 2\n{optimised}\n")
    reduction = ReductionMap(tuple(c1.params), tuple(c2.params), tuple(map(tuple, rows)), tuple(constants))
    assert agrees(c1, c2, reduction) == expected


def test_exact_check_refuses_mismatched_dimensions():
    c = parse_circuit("qreg 2\nrz(t0) 0\n")
    with pytest.raises(DimensionMismatch, match="qubit counts differ"):
        exact_check(c, parse_circuit("qreg 1\nrz(t0) 0\n"), ReductionMap.identity(["t0"]))
    with pytest.raises(DimensionMismatch, match="map outputs"):
        exact_check(c, parse_circuit("qreg 2\nrz(u0) 0\n"), ReductionMap.identity(["t0"]))


def test_layout_numbers_bits_within_components():
    # masks are as wide as a qubit's component, however wide the register
    c = parse_circuit("qreg 65536\nh 65535\ncx 5 6\nrz(t0) 0\ncz 6 65535\n")
    assert _layout([c]) == {65535: (5, 1), 5: (5, 2), 6: (5, 4), 0: (0, 1)}
    wide = parse_circuit("qreg 65536\nrz(t0) 65535\ncx 65535 0\nh 0\n")
    assert exact_check(wide, wide, ReductionMap.identity(["t0"])) is None


def chain(n: int) -> Circuit:
    """``n`` qubits chained by CX gates between two parameters."""
    gates = [Gate(GateKind.RZ_PARAM, (0,), param="t0")] + [Gate(GateKind.CX, (q, q + 1)) for q in range(n - 1)]
    return Circuit(n, gates + [Gate(GateKind.RZ_PARAM, (n - 1,), param="t1")])


def test_layout_refuses_a_frame_past_its_area():
    # the area is width x (width + parameters) summed over the components:
    # a 16,384-qubit component is laid out, a 65,536-qubit one (about 2 GB
    # of masks) is refused from the component sizes before any mask is built
    assert 16384 * (16384 + 4) <= MAX_FRAME_AREA < 65536 * 65536
    assert len(_layout([chain(16384)] * 2)) == 16384
    wide = chain(65536)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="sums to 4295098368 over the components, above"):
            _layout([wide])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    with pytest.raises(TooLarge, match="widest has 65536 qubits"):
        merge_bound(wide)
    with pytest.raises(TooLarge):
        exact_check(wide, wide, ReductionMap.identity(wide.params))


def test_merge_bound_hand_built():
    # Z, X, Z, X: every rotation anticommutes with the one before it
    c = parse_circuit("qreg 1\nrz(a) 0\nh 0\nrz(b) 0\nh 0\nrz(c) 0\nh 0\nrz(d) 0\nh 0\n")
    assert merge_bound(c) == 4
    assert merge_bound(parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0\n")) == 1
    # Z0 and X1 commute, though each is bit 1 of its own component
    assert merge_bound(parse_circuit("qreg 2\nrz(a) 0\nrz(b) 1\nh 1\nrz(c) 0\n")) == 2
    assert merge_bound(parse_circuit("qreg 2\nh 0\n")) == 0


@pytest.mark.parametrize("name,circuit", CASES, ids=[name for name, _ in CASES])
def test_merge_bound_equals_the_optimiser_on_the_golden_ladders(name, circuit):
    res = phase_teleport(circuit)
    assert merge_bound(circuit) == len(res.circuit.params)
    assert exact_check(circuit, res.circuit, res.reduction) is None
