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
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quoted
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .circuits import Circuit, Gate, GateKind, circuit_to_diagram
from .diagram import Diagram
from .errors import DimensionMismatch, InconsistentProvenance
from .params import HALF_PI
from .rewrite import RewriteEvent, _simplify as simplify  # in place: callers own the diagram

if TYPE_CHECKING:
    import numpy as np


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_SIGNED = {1: "+ ", -1: "- "}
# The layout json.dumps(..., indent=2) gives a map, in three nested parts;
# "eliminated" is always empty and stays so that the map keeps its format.
_MAP = '{\n  "params_in": %s,\n  "params_out": %s,\n  "rows": %s,\n  "eliminated": []\n}\n'
_ROW = '    {\n      "name": %s,\n      "terms": [\n%s\n      ],\n      "const_pi_over_2": %d\n    }'
_TERM = '        [\n          %s,\n          %d\n        ]'


def _string_list(names: Sequence[str]) -> str:
    """A list of strings one level below the map's top, as json.dumps lays it out."""
    return "[\n    " + ",\n    ".join(map(_quoted, names)) + "\n  ]" if names else "[]"


def _checked(value: object, kind: type, name: str):
    """``value`` if it has the JSON type ``kind`` (a boolean is not an
    integer); otherwise a ValueError naming the map field ``name``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {json.dumps(value)[:40]}")
    return value


@dataclass
class ReductionMap:
    """The affine map from original parameters to surviving ones."""

    params_in: Tuple[str, ...]
    new_param_names: Tuple[str, ...]
    rows: Tuple[Tuple[Tuple[str, int], ...], ...]  # per row: ((param, sign), ...)
    constants: Tuple[int, ...]  # per row, in units of pi/2, mod 4

    def __post_init__(self):
        for attr in ("params_in", "new_param_names"):
            names = getattr(self, attr)
            if len(set(names)) != len(names):
                repeat = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValueError(f"{attr} names {repeat!r} twice")
        if not len(self.rows) == len(self.new_param_names) == len(self.constants):
            raise ValueError(f"rows, new_param_names and constants have lengths {len(self.rows)}, "
                             f"{len(self.new_param_names)} and {len(self.constants)}")
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

    def check_circuits(self, c1: Circuit, c2: Circuit) -> None:
        """Raise DimensionMismatch unless ``c1`` and ``c2`` have the same
        width, ``c1``'s parameters are the map's inputs in order, and
        ``c2``'s are its outputs."""
        if c1.n_qubits != c2.n_qubits:
            raise DimensionMismatch(f"qubit counts differ: {c1.n_qubits} vs {c2.n_qubits}")
        if tuple(self.params_in) != tuple(c1.params):
            raise DimensionMismatch(f"map inputs {self.params_in} do not match circuit params {c1.params}")
        if sorted(self.new_param_names) != sorted(c2.params):
            raise DimensionMismatch(f"map outputs {self.new_param_names} do not match circuit params {c2.params}")

    def apply_array(self, values: np.ndarray, order: Sequence[str]) -> np.ndarray:
        """The new parameter values (radians) at every row of ``values``, an
        (S, len(params_in)) array of original values in ``params_in`` order:
        the (S, m) array with its columns in ``order``, a permutation of
        ``new_param_names``.  Each row's terms are added in row order, one
        term position at a time, then ``const·π/2``, so every float equals
        that of adding them one sample at a time, bit for bit."""
        import numpy as np

        position = {name: i for i, name in enumerate(self.new_param_names)}
        rows = [position[name] for name in order]
        out = np.zeros((len(values), len(rows)))
        steps: List[List[Tuple[int, int, int]]] = []  # per term position: (out column, in column, sign)
        for j, r in enumerate(rows):
            for t, (param, sign) in enumerate(self.rows[r]):
                if t == len(steps):
                    steps.append([])
                steps[t].append((j, self._column[param], sign))
        for step in steps:
            out_cols, in_cols, signs = map(list, zip(*step))
            out[:, out_cols] += values[:, in_cols] * np.array(signs, dtype=float)
        out += np.array([self.constants[r] for r in rows], dtype=float) * HALF_PI
        return out

    @cached_property
    def ordered_rows(self) -> Tuple[Tuple[Tuple[str, int], ...], ...]:
        """Each row's terms in column order, the order the printed rows and
        the written map show them in."""
        column = self._column
        return tuple(tuple(sorted(terms, key=lambda t: column[t[0]])) for terms in self.rows)

    def row_string(self, i: int) -> str:
        text = " ".join([_SIGNED[sign] + param for param, sign in self.ordered_rows[i]])
        text = text[2:] if text[0] == "+" else "-" + text[2:]  # the first term has no spaced sign
        if self.constants[i]:
            text = f"{text} + {self.constants[i]}pi/2"
        return f"{self.new_param_names[i]} = {text}"

    def to_dict(self) -> dict:
        return {
            "params_in": list(self.params_in),
            "params_out": list(self.new_param_names),
            "rows": [
                {"name": name, "terms": [[p, s] for p, s in terms], "const_pi_over_2": const}
                for name, terms, const in zip(self.new_param_names, self.ordered_rows, self.constants)
            ],
            "eliminated": [],
        }

    def to_text(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte:
        the fixed layout is written here, and only the strings go through
        json's C encoder (``indent`` would run its pure-Python one)."""
        rows = ",\n".join([
            _ROW % (_quoted(name), ",\n".join([_TERM % (_quoted(p), s) for p, s in terms]), const)
            for name, terms, const in zip(self.new_param_names, self.ordered_rows, self.constants)])
        return _MAP % (_string_list(self.params_in), _string_list(self.new_param_names),
                       f"[\n{rows}\n  ]" if rows else "[]")

    @staticmethod
    def from_dict(data: object) -> "ReductionMap":
        """The map written by ``to_dict``.  Raises ValueError naming the first
        field that is missing or of the wrong JSON type, a ``params_out``
        that is not the list of row names, or a nonempty ``eliminated``."""
        data = _checked(data, dict, "the map")
        params_in = _checked(data.get("params_in"), list, "params_in")
        rows = _checked(data.get("rows"), list, "rows")
        names, terms, constants = [], [], []
        for i, row in enumerate(rows):
            row = _checked(row, dict, f"rows[{i}]")
            names.append(_checked(row.get("name"), str, f"rows[{i}].name"))
            pairs = []
            for j, pair in enumerate(_checked(row.get("terms"), list, f"rows[{i}].terms")):
                where = f"rows[{i}].terms[{j}]"
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValueError(f"{where} must be a [name, sign] pair, got {json.dumps(pair)[:40]}")
                pairs.append((_checked(pair[0], str, f"{where}[0]"), _checked(pair[1], int, f"{where}[1]")))
            terms.append(tuple(pairs))
            constants.append(_checked(row.get("const_pi_over_2"), int, f"rows[{i}].const_pi_over_2"))
        if "params_out" in data and _checked(data["params_out"], list, "params_out") != names:
            raise ValueError(f"params_out {json.dumps(data['params_out'])[:40]} does not match "
                             f"the row names {json.dumps(names)[:40]}")
        if data.get("eliminated", []) != []:
            raise ValueError(f"eliminated must be [], got {json.dumps(data['eliminated'])[:40]}")
        return ReductionMap(
            params_in=tuple(_checked(p, str, f"params_in[{j}]") for j, p in enumerate(params_in)),
            new_param_names=tuple(names),
            rows=tuple(terms),
            constants=tuple(constants),
        )

    @staticmethod
    def from_text(text: str) -> "ReductionMap":
        try:
            return ReductionMap.from_dict(json.loads(text))
        except RecursionError:
            raise ValueError("the map is nested too deeply") from None

    @staticmethod
    def identity(params: Sequence[str]) -> "ReductionMap":
        return ReductionMap(tuple(params), tuple(params),
                            tuple((((p, 1),)) for p in params),
                            tuple(0 for _ in params))


def extract_reduction(events: Sequence[RewriteEvent], original_params: Sequence[str],
                      terminal: Diagram) -> ReductionMap:
    """Build the affine map from a simplify run, cross-checked against the
    event log.

    The terminal diagram's parameter expressions are the ground truth for
    rows and constants; replaying the merge and move events must reproduce
    the same grouping and signs.  Otherwise, or if a parameter is on two
    terminal spiders or on none, the provenance is inconsistent; a circuit
    keeps every parameter, since each rz is used once and
    A·rz(t+δ)·B ∝ A·rz(t)·B forces δ ∈ 2πℤ.
    """
    original_params = list(original_params)
    sign: Dict[str, int] = {p: 1 for p in original_params}
    owner: Dict[str, Optional[int]] = {p: None for p in original_params}
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

    exprs = terminal.param_exprs()
    seen = set()
    for spider, expr in exprs.items():
        for name, coeff in expr.terms:
            if name in seen:
                raise InconsistentProvenance(f"parameter {name!r} is on two terminal spiders")
            if name not in sign:
                raise InconsistentProvenance(f"terminal diagram carries unknown parameter {name!r}")
            if sign[name] != coeff:
                raise InconsistentProvenance(
                    f"replayed sign {sign[name]} for {name!r} does not match terminal {coeff}")
            if owner[name] is not None and owner[name] != spider:
                raise InconsistentProvenance(
                    f"replayed owner {owner[name]} for {name!r} does not match terminal {spider}")
            seen.add(name)
    for name in original_params:
        if name not in seen:
            raise InconsistentProvenance(f"parameter {name!r} is on no terminal spider")

    order = {p: j for j, p in enumerate(original_params)}
    row_data = sorted(exprs.values(), key=lambda e: min(order[n] for n in e.param_ids))
    return ReductionMap(
        params_in=tuple(original_params),
        new_param_names=tuple(f"u{i}" for i in range(len(row_data))),
        rows=tuple(e.terms for e in row_data),
        constants=tuple(e.clifford for e in row_data),
    )


@dataclass
class TeleportResult:
    circuit: Circuit
    reduction: ReductionMap


def phase_teleport(c: Circuit, seed: int = 0) -> TeleportResult:
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
    params = c.params
    diagram_map = extract_reduction(events, params, terminal)

    # The rows are sorted by their earliest parameter, and c.params follows
    # gate order, so row i's earliest term is the representative named u{i}.
    column = diagram_map._column
    new_name: Dict[str, str] = {}
    rows = []
    for name, terms in zip(diagram_map.new_param_names, diagram_map.rows):
        rep, rep_sign = min(terms, key=lambda t: column[t[0]])
        new_name[rep] = name
        rows.append(tuple((p, s * rep_sign) for p, s in terms))

    rz_param = GateKind.RZ_PARAM  # an Enum member read is slow on 3.11
    gates: List[Gate] = []
    for g in c.gates:
        if g.kind is not rz_param:
            gates.append(g)
        elif g.param in new_name:
            gates.append(Gate(rz_param, g.qubits, param=new_name[g.param]))
        # other parametrised gates are set to zero and dropped
    out = Circuit(c.n_qubits, gates)  # c's checked gates, each kept rz renamed to a distinct u{i}

    reduction = ReductionMap(
        params_in=tuple(params),
        new_param_names=diagram_map.new_param_names,
        rows=tuple(rows),
        constants=tuple(0 for _ in rows),
    )
    return TeleportResult(out, reduction)
