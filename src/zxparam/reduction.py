"""Affine parameter maps and the in-place optimisation of circuits.

The simplifier leaves each surviving parameter as a signed sum of original
parameters plus a Clifford constant; collecting those expressions gives the
map ``b = P a + c`` with entries in {-1,0,+1} and at most one nonzero per
column.  Phase teleportation applies the same grouping in place on the
original circuit: one representative phase gate per group survives (renamed,
sign normalised to +1), all other gates of the group are deleted, and no
constant offsets appear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .circuits import Circuit, Gate, GateKind, circuit_to_diagram
from .diagram import Diagram
from .errors import InconsistentProvenance
from .params import HALF_PI
from .rewrite import RewriteEvent, _simplify


@dataclass
class ReductionMap:
    """The affine map from original parameters to surviving ones."""

    params_in: Tuple[str, ...]
    new_param_names: Tuple[str, ...]
    rows: Tuple[Tuple[Tuple[str, int], ...], ...]  # per row: ((param, sign), ...)
    constants: Tuple[int, ...]  # per row, in units of pi/2, mod 4
    eliminated: Tuple[str, ...] = ()

    def __post_init__(self):
        self._column = {p: j for j, p in enumerate(self.params_in)}
        for name, terms in zip(self.new_param_names, self.rows):
            seen = set()
            for param, sign in terms:
                if param not in self._column:
                    raise ValueError(f"row {name} references unknown parameter {param!r}")
                if param in seen or sign not in (-1, 1):
                    raise ValueError(f"bad term ({param}, {sign}) in row {name}")
                seen.add(param)
            if not terms:
                raise ValueError(f"row {name} is empty (zero rows are not allowed)")
        owners: Dict[str, str] = {}
        for name, terms in zip(self.new_param_names, self.rows):
            for param, _ in terms:
                if param in owners:
                    raise ValueError(f"column {param!r} has two nonzero entries "
                                     f"({owners[param]} and {name}); map is not parsimonious")
                owners[param] = name

    @property
    def p_matrix(self) -> np.ndarray:
        m = np.zeros((len(self.rows), len(self.params_in)), dtype=int)
        for i, terms in enumerate(self.rows):
            for param, sign in terms:
                m[i, self._column[param]] = sign
        return m

    def apply(self, assignment: Mapping[str, float]) -> Dict[str, float]:
        """Evaluate the new parameters at original parameter values (radians)."""
        out = {}
        for name, terms, const in zip(self.new_param_names, self.rows, self.constants):
            out[name] = const * HALF_PI + sum(sign * assignment[p] for p, sign in terms)
        return out

    def row_string(self, i: int) -> str:
        parts = []
        for param, sign in sorted(self.rows[i], key=lambda t: self._column[t[0]]):
            if not parts:
                parts.append(param if sign > 0 else f"-{param}")
            else:
                parts.append(f"+ {param}" if sign > 0 else f"- {param}")
        if self.constants[i]:
            parts.append(f"+ {self.constants[i]}pi/2")
        return f"{self.new_param_names[i]} = " + " ".join(parts)

    def to_dict(self) -> dict:
        order = self._column
        return {
            "params_in": list(self.params_in),
            "params_out": list(self.new_param_names),
            "rows": [
                {
                    "name": name,
                    "terms": [[p, s] for p, s in sorted(terms, key=lambda t: order[t[0]])],
                    "const_pi_over_2": const,
                }
                for name, terms, const in zip(self.new_param_names, self.rows, self.constants)
            ],
            "eliminated": list(self.eliminated),
        }

    def to_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "ReductionMap":
        return ReductionMap(
            params_in=tuple(data["params_in"]),
            new_param_names=tuple(r["name"] for r in data["rows"]),
            rows=tuple(tuple((p, int(s)) for p, s in r["terms"]) for r in data["rows"]),
            constants=tuple(int(r["const_pi_over_2"]) for r in data["rows"]),
            eliminated=tuple(data.get("eliminated", ())),
        )

    @staticmethod
    def from_text(text: str) -> "ReductionMap":
        return ReductionMap.from_dict(json.loads(text))

    @staticmethod
    def identity(params: Sequence[str], names: Optional[Sequence[str]] = None) -> "ReductionMap":
        names = tuple(names) if names is not None else tuple(params)
        return ReductionMap(tuple(params), names,
                            tuple((((p, 1),)) for p in params),
                            tuple(0 for _ in params))


def extract_reduction(events: Sequence[RewriteEvent], original_params: Sequence[str],
                      terminal: Diagram) -> ReductionMap:
    """Build the affine map from a simplify run, cross-checked against the
    event log.

    The terminal diagram's parameter expressions are the ground truth for
    rows and constants; replaying the merge, move and elimination events
    must reproduce the same grouping and signs, otherwise the provenance is
    inconsistent.
    """
    original_params = list(original_params)
    sign: Dict[str, int] = {p: 1 for p in original_params}
    owner: Dict[str, Optional[int]] = {p: None for p in original_params}
    eliminated: set = set()
    for ev in events:
        for name, spider in ev.moved:
            if name not in sign:
                raise InconsistentProvenance(f"event moves unknown parameter {name!r}")
            owner[name] = spider
        if ev.param_merge is not None:
            for name, s in ev.param_merge.absorbed:
                if name not in sign:
                    raise InconsistentProvenance(f"event merges unknown parameter {name!r}")
                sign[name] *= s
                owner[name] = ev.param_merge.survivor
        for name in ev.eliminated:
            eliminated.add(name)
            owner[name] = None

    exprs = terminal.param_exprs()
    seen = set()
    for spider, expr in exprs.items():
        for name, coeff in expr.terms:
            if name not in sign:
                raise InconsistentProvenance(f"terminal diagram carries unknown parameter {name!r}")
            if name in eliminated:
                raise InconsistentProvenance(f"parameter {name!r} was eliminated but survives")
            if sign[name] != coeff:
                raise InconsistentProvenance(
                    f"replayed sign {sign[name]} for {name!r} does not match terminal {coeff}")
            if owner[name] is not None and owner[name] != spider:
                raise InconsistentProvenance(
                    f"replayed owner {owner[name]} for {name!r} does not match terminal {spider}")
            seen.add(name)
    for name in original_params:
        if name not in seen and name not in eliminated:
            raise InconsistentProvenance(f"parameter {name!r} is neither surviving nor eliminated")

    order = {p: j for j, p in enumerate(original_params)}
    row_data = sorted(exprs.values(), key=lambda e: min(order[n] for n in e.param_ids))
    return ReductionMap(
        params_in=tuple(original_params),
        new_param_names=tuple(f"u{i}" for i in range(len(row_data))),
        rows=tuple(e.terms for e in row_data),
        constants=tuple(e.clifford for e in row_data),
        eliminated=tuple(sorted(eliminated, key=lambda p: order[p])),
    )


def simplify(d: Diagram, seed: Optional[int] = None) -> Tuple[Diagram, List[RewriteEvent]]:
    """``rewrite.simplify`` without its copy of ``d``: it rewrites ``d``
    itself to its terminal form and returns it.  It exists for
    ``phase_teleport``, which owns the diagram it builds; every other
    caller should use ``rewrite.simplify``, which leaves its argument as it
    is.  ``perfbench/spans.py`` times the calls made through this name and
    runs ``rewrite.simplify`` in their place, which returns the same
    terminal diagram and events but also copies ``d``, so traced simplify
    times include a copy that an untraced run does not make."""
    return _simplify(d, seed)


@dataclass
class TeleportResult:
    circuit: Circuit
    reduction: ReductionMap


def phase_teleport(c: Circuit, seed: Optional[int] = None) -> TeleportResult:
    """Optimise the circuit in place using the diagram simplification.

    The output keeps the Clifford gates of ``c`` untouched; for each fusion
    group exactly one phase gate survives, the one appearing earliest, and
    is renamed ``u0, u1, ...`` in that order.  The accompanying map has the
    representative's sign normalised to +1 and no constant offsets, so the
    original circuit evaluated at ``a`` is proportional to the output
    evaluated at ``P a``.
    """
    diagram = circuit_to_diagram(c)  # validates c
    terminal, events = simplify(diagram, seed=seed)
    diagram_map = extract_reduction(events, c.params, terminal)

    rz_param = GateKind.RZ_PARAM  # an Enum member read is slow on 3.11
    gate_index = {g.param: i for i, g in enumerate(c.gates) if g.kind is rz_param}
    groups = []
    for terms in diagram_map.rows:
        rep = min((p for p, _ in terms), key=lambda p: gate_index[p])
        groups.append((gate_index[rep], rep, dict(terms)))
    groups.sort()

    new_name: Dict[str, str] = {}
    rows = []
    for i, (_, rep, terms) in enumerate(groups):
        name = f"u{i}"
        new_name[rep] = name
        rep_sign = terms[rep]
        rows.append(tuple((p, s * rep_sign) for p, s in terms.items()))

    gates: List[Gate] = []
    for g in c.gates:
        if g.kind is not rz_param:
            gates.append(g)
        elif g.param in new_name:
            gates.append(Gate(rz_param, g.qubits, param=new_name[g.param]))
        # other parametrised gates are set to zero and dropped
    out = Circuit(c.n_qubits, gates)
    out.validate()

    reduction = ReductionMap(
        params_in=tuple(c.params),
        new_param_names=tuple(f"u{i}" for i in range(len(rows))),
        rows=tuple(rows),
        constants=tuple(0 for _ in rows),
        eliminated=diagram_map.eliminated,
    )
    return TeleportResult(out, reduction)
