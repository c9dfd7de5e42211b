import math

import pytest
from hypothesis import given, strategies as st

from zxparam.params import CLIFFORD_PHASES, Phase


def phase_strategy(alphabet):
    return st.builds(
        Phase,
        st.integers(min_value=-7, max_value=7),
        st.dictionaries(st.sampled_from(alphabet), st.sampled_from([-1, 1]),
                        max_size=4).map(lambda d: tuple(d.items())),
    )


phases = phase_strategy(["a", "b", "c", "d"])
phases_disjoint = phase_strategy(["e", "f", "g", "h"])


def test_expr_basics():
    e = Phase.of("t0", 1, 5)
    assert e.clifford == 1  # stored mod 4
    assert e.term_map == {"t0": 1}
    assert e.param_ids == ("t0",)
    assert str(Phase(2, (("t1", -1), ("t0", 1)))) == "t0 - t1 + 2pi/2"
    assert str(Phase()) == "0pi/2"
    assert str(Phase.of("t0", -1)) == "-t0"
    assert str(Phase(3, (("t0", -1), ("t1", 1)))) == "-t0 + t1 + 3pi/2"


def test_expr_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        Phase(0, (("t0", 2),))
    with pytest.raises(ValueError):
        Phase(0, (("t0", 0),))


def test_addition_cancels_terms():
    e = Phase.of("a") + Phase.of("a", -1)
    assert e.is_clifford()
    assert e.clifford == 0


def test_phase_add_expr_demotes_on_cancellation():
    # a cancelled parametrised phase demotes to the interned Clifford phase
    q = Phase(1, (("t0", 1),)) + Phase.of("t0", -1, 1)
    assert q.is_clifford()
    assert q.clifford == 2
    assert q is CLIFFORD_PHASES[2]


@given(phases, phases_disjoint)
def test_addition_matches_angle_arithmetic(e1, e2):
    assignment = {n: 0.3 + 0.11 * i for i, n in enumerate("abcdefgh")}
    lhs = (e1 + e2).angle(assignment)
    rhs = e1.angle(assignment) + e2.angle(assignment)
    # addition folds constants mod 4, so angles agree modulo 2*pi
    assert math.isclose(math.cos(lhs), math.cos(rhs), abs_tol=1e-12)
    assert math.isclose(math.sin(lhs), math.sin(rhs), abs_tol=1e-12)


def test_addition_rejects_coefficient_overflow():
    # a repeated parameter with equal signs has no +-1 representation
    with pytest.raises(ValueError):
        Phase.of("a") + Phase.of("a")
    with pytest.raises(ValueError):
        Phase(1, (("a", -1), ("b", 1))) + Phase.of("a", -1)


@given(phases)
def test_negation_involution(e):
    assert e.negated().negated() == e
    assert_normalised_equal(e.negated(), Phase(-e.clifford, tuple((n, -c) for n, c in e.terms)))


def test_phase_clifford_flagging():
    assert Phase(2).is_clifford()
    assert Phase(2).is_pauli()
    assert not Phase(1).is_pauli()
    assert Phase(4).is_zero()
    p = Phase(1, (("t0", 1),))
    assert not p.is_clifford()
    assert not p.is_pauli() and not Phase(0, (("t0", 1),)).is_zero()
    assert p.clifford == 1 and p.terms == (("t0", 1),)
    assert Phase(3).terms == () and Phase(3).param_ids == ()


def test_phase_angle():
    p = Phase(1, (("t0", 1), ("t1", -1)))
    angle = p.angle({"t0": 0.5, "t1": 0.2})
    assert math.isclose(angle, math.pi / 2 + 0.3)
    assert math.isclose(Phase(3).angle(), 3 * math.pi / 2)


def assert_normalised_equal(got, expected):
    assert got == expected and hash(got) == hash(expected)
    assert got.terms == tuple(sorted(got.terms)) and got.clifford in range(4)


@given(phases, phases)
def test_sum_equals_normalising_constructor(p, q):
    summed = p.term_map
    for name, coeff in q.terms:
        summed[name] = summed.get(name, 0) + coeff
    if any(abs(coeff) == 2 for coeff in summed.values()):
        with pytest.raises(ValueError):
            p + q
        return
    expected = Phase(p.clifford + q.clifford, tuple((n, c) for n, c in summed.items() if c))
    assert_normalised_equal(p + q, expected)
    assert_normalised_equal(q + p, expected)
    if expected.is_clifford():
        assert p + q is CLIFFORD_PHASES[expected.clifford]


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9),
       st.dictionaries(st.sampled_from(["c", "a", "b"]), st.sampled_from([-1, 1]), max_size=3))
def test_phase_fast_paths_equal_normalising_constructor(clifford, shift, terms):
    phase = Phase(clifford, tuple(terms.items()))
    expected = Phase(clifford + shift, tuple(terms.items()))
    assert_normalised_equal(phase.add_clifford(shift), expected)
    assert_normalised_equal(phase + Phase(shift), expected)
    if not terms:
        assert phase.add_clifford(shift) is CLIFFORD_PHASES[(clifford + shift) % 4]
        assert phase + Phase(shift) is CLIFFORD_PHASES[(clifford + shift) % 4]
    # a parametrised addend goes through the term-wise sum
    added = phase + Phase.of("z", -1, shift)
    assert_normalised_equal(added, Phase(clifford + shift, tuple(terms.items()) + (("z", -1),)))
