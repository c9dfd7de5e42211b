import math

import pytest
from hypothesis import given, strategies as st

from zxparam.params import CLIFFORD_PHASES, ParamExpr, Phase

def expr_strategy(alphabet):
    return st.builds(
        ParamExpr,
        st.dictionaries(st.sampled_from(alphabet), st.sampled_from([-1, 1]),
                        max_size=4).map(lambda d: tuple(d.items())),
        st.integers(min_value=-7, max_value=7),
    )


exprs = expr_strategy(["a", "b", "c", "d"])
exprs_disjoint = expr_strategy(["e", "f", "g", "h"])


def test_expr_basics():
    e = ParamExpr.of("t0", 1, 5)
    assert e.clifford_const == 1  # stored mod 4
    assert e.term_map == {"t0": 1}
    assert str(ParamExpr((("t0", 1), ("t1", -1)), 2)) == "t0 - t1 + 2pi/2"
    assert str(ParamExpr()) == "0pi/2"


def test_expr_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        ParamExpr((("t0", 2),), 0)


def test_addition_cancels_terms():
    e = ParamExpr.of("a") + ParamExpr.of("a", -1)
    assert e.is_clifford()
    assert e.clifford_const == 0


@given(exprs, exprs_disjoint)
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
        ParamExpr.of("a") + ParamExpr.of("a")


@given(exprs)
def test_negation_involution(e):
    assert e.negated().negated() == e


def test_phase_clifford_flagging():
    assert Phase(2).is_clifford()
    assert Phase(2).is_pauli()
    assert not Phase(1).is_pauli()
    p = Phase(1, (("t0", 1),))
    assert not p.is_clifford()
    assert p.param is not None
    assert p.param.clifford_const == 1
    assert Phase(3).param is None


def test_phase_add_expr_demotes_on_cancellation():
    p = Phase(1, (("t0", 1),))
    q = p.add_expr(ParamExpr.of("t0", -1, 1))
    assert q.is_clifford()
    assert q.clifford == 2


def test_phase_angle():
    p = Phase(1, (("t0", 1), ("t1", -1)))
    angle = p.angle({"t0": 0.5, "t1": 0.2})
    assert math.isclose(angle, math.pi / 2 + 0.3)


def assert_normalised_equal(got, expected):
    assert got == expected and hash(got) == hash(expected)
    assert got.terms == tuple(sorted(got.terms)) and got.clifford in range(4)


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9),
       st.dictionaries(st.sampled_from(["c", "a", "b"]), st.sampled_from([-1, 1]), max_size=3))
def test_phase_fast_paths_equal_normalising_constructor(clifford, shift, terms):
    phase = Phase(clifford, tuple(terms.items()))
    expected = Phase(clifford + shift, tuple(terms.items()))
    assert_normalised_equal(phase.add_clifford(shift), expected)
    assert_normalised_equal(phase.add_expr(ParamExpr((), shift)), expected)
    assert_normalised_equal(Phase.from_expr(ParamExpr(tuple(terms.items()), clifford + shift)), expected)
    if not terms:
        assert phase.add_clifford(shift) is CLIFFORD_PHASES[(clifford + shift) % 4]
    # a parametrised addend still goes through the expression sum
    added = phase.add_expr(ParamExpr.of("z", -1, shift))
    assert_normalised_equal(added, Phase(clifford + shift, tuple(terms.items()) + (("z", -1),)))
