"""Exact equivalence of parametrised Clifford circuits on a Pauli frame.

Each ``rz(t) q`` is the rotation R_Z(t) up to a phase, and moving it past
the Clifford gates after it turns Z_q into a signed Pauli Q_t (Aaronson &
Gottesman, quant-ph/0406196).  So a circuit factors as

    U(a) ∝ R_{Q_last}(a_last) ⋯ R_{Q_first}(a_first) · C

for every ``a``, where C is its Clifford part.  One backward pass over the
gates keeps the signed images of X_q and Z_q under the Clifford suffix: it
reads off each Q_t, and after the first gate the images are the signed
tableau of C.

``exact_check`` decides whether ``c1(a) ∝ c2(P a + c)`` for every ``a``.
In ``c2`` each row of the map puts one rotation per term at its gate, with
the term's sign, and its constant as S^c beside them.  That holds if and
only if

- (i) the Clifford parts have equal signed tableaux;
- (ii) every parameter of ``c1`` has the same signed Pauli on both sides,
  and none is missing from the rows;
- (iii) no two parameters whose Paulis anticommute appear in opposite
  orders.

Setting every angle to 0 but one, or two, shows that each condition is
necessary; a reordering whose inverted pairs all commute is a chain of swaps
of adjacent commuting rotations, so together they suffice.  The check
decides rather than samples, at any width, in time and memory linear in the
gates for a fixed width, plus the pairs of rows that change order.
``rotation_check`` is conditions (ii) and (iii) alone; ``brute_force_min``
runs it on each candidate map, whose circuit has the Clifford part and the
surviving rotations of the original.

``merge_bound`` is the rotation-merging count M (Zhang & Chen, arXiv
1903.12456): scanning the rotations in gate order, a rotation joins the
group of the last one on the same Pauli when every rotation between them
commutes with it, and opens a group otherwise.  After commuting moves
R_Q(a) R_{±Q}(b) = R_Q(a ± b), so each group is one affine row, and M
parameters suffice: M bounds the optimum from above.

A Pauli is kept as int bitmasks over the qubits of its component: qubits
joined by two-qubit gates share one, and their bits are numbered within it,
so the masks are as wide as the component rather than the register.  A
dense tableau still costs bits quadratic in the width, so a layout whose
components sum past MAX_FRAME_AREA in width times (width + parameters) is
refused with TooLarge before any mask is built.  Nothing here imports numpy.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .circuits import Circuit, GateKind
from .errors import TooLarge
from .reduction import ReductionMap

_H, _X, _CZ, _CX = GateKind.H, GateKind.X, GateKind.CZ, GateKind.CX
_RZ_CLIFFORD, _RZ_PARAM = GateKind.RZ_CLIFFORD, GateKind.RZ_PARAM
_QUARTER_TURNS = {GateKind.S: 1, GateKind.Z: 2, GateKind.SDG: 3}

Image = Tuple[int, int, int]  # (x, z, r): the Pauli i^r X^x Z^z
Key = Tuple[int, int, int]  # (component, x, z): a Hermitian Pauli without its sign
Rotation = Tuple[Key, int]  # a Pauli and its sign, +1 or -1

# A dense tableau of a component of width w holds up to 4 w^2 mask bits, and
# each parameter on it 2 w.  2^29 admits a 16,384-qubit component with as
# many parameters (the exact check of a 16,384-qubit CX staircase against
# itself takes 127 MB), and refuses the ~2 GB frames of 65,536 chained qubits.
MAX_FRAME_AREA = 1 << 29


def _layout(circuits: Sequence[Circuit]) -> Dict[int, Tuple[int, int]]:
    """Each qubit that a gate of ``circuits`` acts on, as (component, bit):
    the component is named by one of its qubits, and ``bit`` is the
    qubit's mask within it, in the order the gates first reach it.  Raises
    TooLarge, before any mask is built, when the components' sum of width
    times (width + parameters on it) exceeds MAX_FRAME_AREA."""
    parent: Dict[int, int] = {}

    def root(q: int) -> int:
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        return q

    for c in circuits:
        for g in c.gates:
            qubits = g.qubits
            for q in qubits:
                parent.setdefault(q, q)
            if len(qubits) == 2:
                parent[root(qubits[1])] = root(qubits[0])
    widths = Counter(root(q) for q in parent)
    params = Counter(root(g.qubits[0]) for c in circuits for g in c.gates if g.kind is _RZ_PARAM)
    area = sum(w * (w + params[r]) for r, w in widths.items())
    if area > MAX_FRAME_AREA:
        raise TooLarge(f"Pauli frame too large: width x (width + parameters) sums to {area} over the "
                       f"components, above {MAX_FRAME_AREA}; the widest has {max(widths.values())} qubits")
    sizes: Dict[int, int] = {}
    layout = {}
    for q in parent:
        r = root(q)
        sizes[r] = sizes.get(r, 0) + 1
        layout[q] = (r, 1 << sizes[r] - 1)
    return layout


def _mul(a: Image, b: Image) -> Image:
    """The product ``a b``; moving Z^z1 past X^x2 gives (-1)^|z1 & x2|."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) & 3


def _turned(x: Image, z: Image, k: int) -> Image:
    """The image of X_q once S^k acts first on q, given those of X_q and Z_q:
    S X S† = iXZ."""
    k &= 3
    if k == 0:
        return x
    if k == 2:
        return x[0], x[1], (x[2] + 2) & 3
    p = _mul(x, z)
    return p[0], p[1], (p[2] + k) & 3


def _anticommute(a: Key, b: Key) -> bool:
    return a[0] == b[0] and ((a[1] & b[2]) ^ (a[2] & b[1])).bit_count() & 1 == 1


def _frame(c: Circuit, layout: Mapping[int, Tuple[int, int]], constants: Mapping[str, int] = {}
           ) -> Tuple[Dict[str, Rotation], Dict[int, Image], Dict[int, Image]]:
    """One backward pass over the gates of ``c``: the signed Pauli of every
    ``rz(t)``, and the images of each X_q and Z_q under the Clifford part.
    ``constants`` gives quarter turns S^k that act beside a parameter's gate."""
    xs = {q: (bit, 0, 0) for q, (_, bit) in layout.items()}
    zs = {q: (0, bit, 0) for q, (_, bit) in layout.items()}
    rotations: Dict[str, Rotation] = {}
    for g in reversed(c.gates):
        kind, qubits = g.kind, g.qubits
        q = qubits[0]
        if kind is _H:
            xs[q], zs[q] = zs[q], xs[q]
        elif kind is _CX:
            t = qubits[1]
            xs[q] = _mul(xs[q], xs[t])
            zs[t] = _mul(zs[q], zs[t])
        elif kind is _CZ:
            b = qubits[1]
            xs[q], xs[b] = _mul(xs[q], zs[b]), _mul(xs[b], zs[q])
        elif kind is _RZ_PARAM:
            x, z, r = zs[q]
            # a Hermitian image is ±i^|x & z| X^x Z^z, since iXZ = Y
            rotations[g.param] = ((layout[q][0], x, z), 1 - ((r - (x & z).bit_count()) & 2))
            if g.param in constants:
                xs[q] = _turned(xs[q], zs[q], constants[g.param])
        elif kind is _X:
            x, z, r = zs[q]
            zs[q] = x, z, (r + 2) & 3
        else:
            xs[q] = _turned(xs[q], zs[q], g.k if kind is _RZ_CLIFFORD else _QUARTER_TURNS[kind])
    return rotations, xs, zs


def rotations(c: Circuit) -> Dict[str, Rotation]:
    """The signed Pauli of every parameter of ``c``, on its own layout."""
    c.validate()
    return _frame(c, _layout((c,)))[0]


def exact_check(c1: Circuit, c2: Circuit, reduction: ReductionMap) -> Optional[str]:
    """None if ``c1(a)`` is proportional to ``c2(P a + c)`` at every ``a``;
    otherwise the first failed condition, and the qubit or the parameters it
    concerns.  Raises DimensionMismatch as ``check_reduction`` does, and
    TooLarge past MAX_FRAME_AREA."""
    reduction.check_circuits(c1, c2)
    c1.validate()
    c2.validate()
    layout = _layout((c1, c2))
    rotations1, xs1, zs1 = _frame(c1, layout)
    rotations2, xs2, zs2 = _frame(c2, layout, dict(zip(reduction.new_param_names, reduction.constants)))
    if xs1 != xs2 or zs1 != zs2:
        q = min(q for q in layout if xs1[q] != xs2[q] or zs1[q] != zs2[q])
        return f"condition (i): the Clifford parts differ on qubit {q}"
    return rotation_check(reduction, c2.params, rotations1, rotations2)


def rotation_check(reduction: ReductionMap, params2: Sequence[str], rotations1: Mapping[str, Rotation],
                   rotations2: Mapping[str, Rotation]) -> Optional[str]:
    """Conditions (ii) and (iii): None if they hold, otherwise the first
    failure.  ``rotations1`` and ``rotations2`` are the Paulis of the two
    circuits on one layout, and ``params2`` the second circuit's parameters
    in gate order."""
    row_of = {p: (name, sign) for name, terms in zip(reduction.new_param_names, reduction.rows)
              for p, sign in terms}
    for p in reduction.params_in:
        if p not in row_of:
            return f"condition (ii): {p} is in no row of the map"
        name, sign = row_of[p]
        (key1, sign1), (key2, sign2) = rotations1[p], rotations2[name]
        if key1 != key2:
            return f"condition (ii): {p} acts on different Paulis in the two circuits"
        if sign1 != sign * sign2:
            return f"condition (ii): {p} has opposite signs in the two circuits"
    return _reordered(reduction, params2, rotations2)


def _reordered(reduction: ReductionMap, params2: Sequence[str], rotations2: Mapping[str, Rotation]
               ) -> Optional[str]:
    """Condition (iii), given (ii).  Every parameter of a row then has the
    row's Pauli up to sign, so a row R placed before a row S in ``c2`` must
    commute with S when some parameter of S comes before one of R in
    ``c1``.  Rows are taken in ``c2`` order, and each is compared only with
    the earlier rows that it overtakes: those whose last parameter in ``c1``
    follows its first."""
    params1 = reduction.params_in
    position1 = {p: i for i, p in enumerate(params1)}
    position2 = {u: i for i, u in enumerate(params2)}
    rows = sorted((position2[name], min(position1[p] for p, _ in terms),
                   max(position1[p] for p, _ in terms), rotations2[name][0])
                  for name, terms in zip(reduction.new_param_names, reduction.rows))
    lasts: List[int] = []  # the last c1 position of each row taken, ascending
    keys: Dict[int, Key] = {}  # the Pauli of the row with that last position
    for _, first, last, key in rows:
        for other in lasts[bisect_right(lasts, first):]:
            if _anticommute(key, keys[other]):
                return (f"condition (iii): {params1[first]} and {params1[other]} "
                        f"are reordered but anticommute")
        insort(lasts, last)
        keys[last] = key
    return None


def merge_bound(c: Circuit) -> int:
    """The rotation-merging count M of ``c``: an affine map to M parameters
    exists, so the optimum is at most M."""
    paulis = rotations(c)
    keys = [paulis[p][0] for p in c.params]
    latest: Dict[Key, int] = {}  # a Pauli -> the index of its last rotation so far
    groups = 0
    for j, key in enumerate(keys):
        i = latest.get(key)
        if i is None or any(_anticommute(key, keys[l]) for l in range(i + 1, j)):
            groups += 1
        latest[key] = j
    return groups
