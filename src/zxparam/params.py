"""Phases of spiders: one type for Clifford phases and parameter expressions.

A phase is an affine expression ``sum_j s_j * alpha_j + k*pi/2`` with signs
``s_j`` in {-1, +1} and an exact Clifford part ``k``, an integer modulo 4 in
units of pi/2, so phase arithmetic is exact.  One such expression is exactly
one row slice of the affine parameter map ``P a + c``; a phase without terms
is a Clifford phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Phase:
    """Clifford part plus a signed sum of distinct parameters.

    ``terms`` maps parameter id to a coefficient in {-1, +1}, sorted by id;
    a parameter absent from the terms has coefficient 0.  A spider is
    Clifford exactly when its phase has no terms.
    """

    clifford: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clifford", self.clifford % 4)
        object.__setattr__(self, "terms", tuple(sorted(dict(self.terms).items())))
        for name, coeff in self.terms:
            if coeff not in (-1, 1):
                raise ValueError(f"coefficient of {name!r} must be -1 or +1, got {coeff}")

    @staticmethod
    def of(name: str, sign: int = 1, const: int = 0) -> "Phase":
        if sign not in (-1, 1):
            raise ValueError(f"coefficient of {name!r} must be -1 or +1, got {sign}")
        return _normalised(const % 4, ((name, sign),))

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
        return _normalised((self.clifford + k) % 4, self.terms)

    def __add__(self, other: "Phase") -> "Phase":
        """Term-wise sum; raises ValueError if a parameter would get
        coefficient +-2."""
        if not other.terms:
            return self.add_clifford(other.clifford)
        if not self.terms:
            return other.add_clifford(self.clifford)
        merged = self.term_map
        for name, coeff in other.terms:
            total = merged.pop(name, 0) + coeff
            if total:
                merged[name] = total
        if not merged:
            return CLIFFORD_PHASES[(self.clifford + other.clifford) % 4]
        return Phase(self.clifford + other.clifford, tuple(merged.items()))

    def negated(self) -> "Phase":
        # negating the coefficients keeps the terms sorted
        return _normalised(-self.clifford % 4, tuple((n, -c) for n, c in self.terms))

    def angle(self, assignment: Mapping[str, float] | None = None) -> float:
        """Evaluate in radians at a concrete parameter assignment."""
        value = self.clifford * HALF_PI
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
        if self.clifford or not parts:
            k = self.clifford
            parts.append(f"+ {k}pi/2" if parts else f"{k}pi/2")
        return " ".join(parts)


def _normalised(clifford: int, terms: Tuple[Tuple[str, int], ...]) -> Phase:
    """A Phase from a Clifford part in 0..3 and terms that are sorted by
    name already, without normalising them again; an interned phase if
    there are no terms."""
    if not terms:
        return CLIFFORD_PHASES[clifford]
    phase = object.__new__(Phase)
    phase.__dict__.update(clifford=clifford, terms=terms)
    return phase


# The four Clifford-only phases; the fast paths above return these.
CLIFFORD_PHASES = tuple(Phase(k) for k in range(4))
