import math

import numpy as np
import pytest

from zxparam.circuits import circuit_unitary, flatten_unitary, parse_circuit, circuit_to_diagram
from zxparam.diagram import Diagram, EdgeKind, VKind
from zxparam.errors import MissingAssignment, ShapeMismatch, TooLarge
from zxparam.params import Phase
from zxparam.tensor import TensorState, check_proportional, proportionality_ratio, tensor_eval


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
