import math

import numpy as np
import pytest

from helpers import ShapeMismatch, check_proportional, flatten_unitary
from zxparam.circuits import circuit_unitary, parse_circuit, circuit_to_diagram
from zxparam.diagram import Diagram, EdgeKind, VKind
from zxparam.errors import MissingAssignment, TooLarge
from zxparam.params import Phase
from zxparam.tensor import TensorState, proportionality_ratio, tensor_eval


def test_plus_alpha_state():
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    s = d.add_spider(Phase(0, (("a", 1),)))
    d.add_edge(s, out, EdgeKind.PLAIN)
    t = tensor_eval(d, {"a": math.pi})
    assert np.allclose(t.amplitudes, [1, -1])


def test_identity_wire_choi_vector():
    d = Diagram()
    i = d.add_boundary(VKind.INPUT, 0)
    o = d.add_boundary(VKind.OUTPUT, 0)
    d.add_edge(i, o, EdgeKind.PLAIN)
    t = tensor_eval(d)
    assert np.allclose(t.amplitudes, [1, 0, 0, 1])


def test_cz_diagram_matches_matrix_oracle():
    c = parse_circuit("qreg 2\ncz 0 1")
    t = tensor_eval(circuit_to_diagram(c))
    ok, lam, _ = proportionality_ratio(t.amplitudes, flatten_unitary(circuit_unitary(c), 2), 1e-9)
    assert ok
    idx = np.nonzero(np.abs(t.amplitudes) > 1e-12)[0]
    values = t.amplitudes[idx] / t.amplitudes[idx][0]
    assert np.allclose(sorted(values.real), [-1, 1, 1, 1])


def test_missing_assignment_and_too_large():
    d = Diagram()
    out = d.add_boundary(VKind.OUTPUT, 0)
    s = d.add_spider(Phase(0, (("a", 1),)))
    d.add_edge(s, out, EdgeKind.PLAIN)
    with pytest.raises(MissingAssignment):
        tensor_eval(d)
    big = Diagram()
    hub = big.add_spider(Phase())
    for q in range(13):
        o = big.add_boundary(VKind.OUTPUT, q)
        big.add_edge(hub, o, EdgeKind.PLAIN)
    with pytest.raises(TooLarge):
        tensor_eval(big)


def test_check_proportional_contract():
    t = TensorState(np.array([1.0, 1j, -0.5]), (0, 1, 2))
    same = check_proportional(t, t)
    assert same.holds and same.ratios[0] == pytest.approx(1.0)
    scaled = TensorState(t.amplitudes * np.exp(1j * math.pi / 4), t.wire_order)
    report = check_proportional(t, scaled)
    assert report.holds
    assert report.ratios[0] == pytest.approx(np.exp(-1j * math.pi / 4))


def test_check_proportional_rejects_orthogonal_relative_phase():
    alpha = 0.0
    t1 = TensorState(np.array([1.0, np.exp(1j * alpha)]), (0,))
    t2 = TensorState(np.array([1.0, np.exp(1j * (alpha + math.pi))]), (0,))
    assert not check_proportional(t1, t2).holds


def test_reference_amplitude_ignores_one_ulp_ties():
    # |t2| peaks at index 1 by one ulp only: the first near-maximal entry, index 0, is used
    t2 = np.array([1.0, np.nextafter(1.0, 2.0), 0.5])
    assert int(np.argmax(np.abs(t2))) == 1
    ok, lam, dev = proportionality_ratio(np.array([2.0, 3.0, 1.0]), t2, 1e-9)
    assert lam == 2.0 and not ok and dev > 0.1
    ok, lam, dev = proportionality_ratio(np.array([0.5, 0.25, 0.0]), np.array([0.25, 1.0, 0.0]), 1e-9)
    assert lam == 0.25 and not ok  # a clear maximum is still the reference


def test_identical_and_negated_tensors_have_exact_ratios():
    rng = np.random.default_rng(3)
    t = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for scalar in (1, -1, 1j, -1j):
        ok, lam, dev = proportionality_ratio(scalar * t, t, 1e-9)
        assert ok and lam == scalar and dev == 0.0


def test_check_proportional_shape_mismatch():
    t1 = TensorState(np.array([1.0, 2.0]), (0,))
    t2 = TensorState(np.array([1.0, 2.0, 3.0, 4.0]), (0, 1))
    with pytest.raises(ShapeMismatch):
        check_proportional(t1, t2)


def test_tensor_matches_unitary_on_parametrised_circuit():
    c = parse_circuit("qreg 1\nrz(a) 0")
    d = circuit_to_diagram(c)
    for alpha in (0.0, math.pi, math.pi / 3):
        ok, _, _ = proportionality_ratio(
            tensor_eval(d, {"a": alpha}).amplitudes,
            flatten_unitary(circuit_unitary(c, {"a": alpha}), 1), 1e-9)
        assert ok


def same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_stacked_ratio_equals_vector_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 16
    t2 = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
    t1 = np.exp(1j * rng.uniform(0, 2 * math.pi, (40, 1))) * t2
    t1[::3] += 1e-3 * rng.standard_normal((14, n))  # a third of the rows fail
    special = [
        (np.zeros(n, complex), np.zeros(n, complex)),  # both zero: holds with lam 1
        (np.zeros(n, complex), t2[0]),  # one side zero
        (t2[1], np.zeros(n, complex)),
    ]
    tied = np.full(n, 1.0 + 0j)
    tied[3] = np.nextafter(1.0, 2.0)  # the largest magnitude by one ulp
    tied1 = 2.5 * tied
    tied1[3] = 7.0
    special.append((tied1, tied))
    for scalar in (-1, 1j, -1j):  # negated, or +-i times each other
        special.append((scalar * t2[2], t2[2]))
    rows1 = np.vstack([t1] + [a for a, _ in special])
    rows2 = np.vstack([t2] + [b for _, b in special])
    holds, lam, dev = proportionality_ratio(rows1, rows2, 1e-9)
    assert holds.shape == lam.shape == dev.shape == (len(rows1),)
    for i in range(len(rows1)):
        ok_i, lam_i, dev_i = proportionality_ratio(rows1[i], rows2[i], 1e-9)
        assert isinstance(ok_i, bool) and isinstance(lam_i, complex) and isinstance(dev_i, float)
        assert ok_i == holds[i] and same_bits(lam_i, lam[i]) and same_bits(dev_i, dev[i]), i
    base = len(t1)
    assert holds[base] and lam[base] == 1 and dev[base] == 0.0
    assert not holds[base + 1] and not holds[base + 2] and lam[base + 1] == 0 and dev[base + 2] == 1.0
    assert abs(lam[base + 3] - 2.5) < 1e-12  # read at index 0, not at the one-ulp maximum
    assert list(lam[base + 4:]) == [-1, 1j, -1j] and all(dev[base + 4:] == 0.0)
    assert not all(holds[:base]) and any(holds[:base])


def test_stacked_ratio_takes_a_broadcast_reference():
    rng = np.random.default_rng(12)
    base = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    stack = np.vstack([base * 1j, base + 1, -base])
    holds, lam, dev = proportionality_ratio(stack, np.broadcast_to(base, stack.shape), 1e-9)
    assert holds.tolist() == [True, False, True] and lam[0] == 1j and lam[2] == -1
    for i in range(3):
        assert same_bits(proportionality_ratio(stack[i], base, 1e-9)[2], dev[i])
