"""Phases of spiders: exact Clifford part plus an optional signed parameter sum.

All Clifford angles are stored as integers modulo 4 in units of pi/2, so
phase arithmetic is exact.  A parametrised phase is an affine expression
``sum_j s_j * alpha_j + k*pi/2`` with signs ``s_j`` in {-1, +1}; one such
expression is exactly one row slice of the affine parameter map ``P a + c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class ParamExpr:
    """A signed sum of distinct parameters plus a Clifford constant.

    ``terms`` maps parameter id to a coefficient in {-1, +1}; a parameter
    absent from the map has coefficient 0.  ``clifford_const`` is an integer
    modulo 4 in units of pi/2.
    """

    terms: Tuple[Tuple[str, int], ...] = ()
    clifford_const: int = 0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(dict(self.terms).items())))
        object.__setattr__(self, "clifford_const", self.clifford_const % 4)
        for name, coeff in self.terms:
            if coeff not in (-1, 1):
                raise ValueError(f"coefficient of {name!r} must be -1 or +1, got {coeff}")

    @staticmethod
    def of(name: str, sign: int = 1, const: int = 0) -> "ParamExpr":
        return ParamExpr(((name, sign),), const)

    @property
    def term_map(self) -> Dict[str, int]:
        return dict(self.terms)

    @property
    def param_ids(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def is_clifford(self) -> bool:
        return not self.terms

    def __add__(self, other: "ParamExpr") -> "ParamExpr":
        merged = self.term_map
        for name, coeff in other.terms:
            total = merged.pop(name, 0) + coeff
            if total:
                merged[name] = total
        return ParamExpr(tuple(merged.items()), self.clifford_const + other.clifford_const)

    def negated(self) -> "ParamExpr":
        return ParamExpr(tuple((n, -c) for n, c in self.terms), -self.clifford_const)

    def shifted(self, k: int) -> "ParamExpr":
        return ParamExpr(self.terms, self.clifford_const + k)

    def angle(self, assignment: Mapping[str, float]) -> float:
        """Evaluate in radians at a concrete parameter assignment."""
        value = self.clifford_const * HALF_PI
        for name, coeff in self.terms:
            value += coeff * assignment[name]
        return value

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            if not parts:
                parts.append(name if coeff > 0 else f"-{name}")
            else:
                parts.append(f"+ {name}" if coeff > 0 else f"- {name}")
        if self.clifford_const or not parts:
            k = self.clifford_const
            parts.append(f"+ {k}pi/2" if parts else f"{k}pi/2")
        return " ".join(parts)


@dataclass(frozen=True)
class Phase:
    """Phase of a Z-spider: Clifford part, plus parameter terms if any.

    A spider is Clifford exactly when it carries no parameter terms.  The
    Clifford part doubles as the expression constant of a parametrised
    spider, so ``param`` exposes the full per-spider slice of ``P a + c``.
    """

    clifford: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clifford", self.clifford % 4)
        object.__setattr__(self, "terms", tuple(sorted(dict(self.terms).items())))

    @staticmethod
    def from_expr(expr: ParamExpr) -> "Phase":
        # a ParamExpr is normalised already: sorted terms, constant mod 4
        if not expr.terms:
            return CLIFFORD_PHASES[expr.clifford_const]
        return _normalised(expr.clifford_const, expr.terms)

    @property
    def param(self) -> ParamExpr | None:
        if not self.terms:
            return None
        return ParamExpr(self.terms, self.clifford)

    @property
    def expr(self) -> ParamExpr:
        return ParamExpr(self.terms, self.clifford)

    def is_clifford(self) -> bool:
        return not self.terms

    def is_pauli(self) -> bool:
        return self.is_clifford() and self.clifford in (0, 2)

    def is_zero(self) -> bool:
        return self.is_clifford() and self.clifford == 0

    @property
    def param_ids(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    @property
    def term_map(self) -> Dict[str, int]:
        return dict(self.terms)

    def add_clifford(self, k: int) -> "Phase":
        if not self.terms:
            return CLIFFORD_PHASES[(self.clifford + k) % 4]
        return _normalised((self.clifford + k) % 4, self.terms)

    def add_expr(self, expr: ParamExpr) -> "Phase":
        if not expr.terms:
            return self.add_clifford(expr.clifford_const)
        return Phase.from_expr(self.expr + expr)

    def negated(self) -> "Phase":
        return Phase.from_expr(self.expr.negated())

    def angle(self, assignment: Mapping[str, float] | None = None) -> float:
        return self.expr.angle(assignment or {})

    def __str__(self) -> str:
        return str(self.expr)


def _normalised(clifford: int, terms: Tuple[Tuple[str, int], ...]) -> Phase:
    """A Phase from a Clifford part in 0..3 and terms that are sorted by
    name already, without normalising them again."""
    phase = object.__new__(Phase)
    phase.__dict__.update(clifford=clifford, terms=terms)
    return phase


# The four Clifford-only phases; the fast paths above return these.
CLIFFORD_PHASES = tuple(Phase(k) for k in range(4))
