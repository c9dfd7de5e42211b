"""Simplification rules for graph-like diagrams and the fixpoint driver.

Every rule preserves the diagram's tensor up to a scalar.  For local
complementation, pivots and gadget creation that scalar is a constant.
Fusing a gadget whose axis carries pi flips the sign of the absorbed
expression and discards a phase factor e^{i e(a)} that depends on the
parameters; the event records the discarded expression in ``dropped`` so
soundness can be checked exactly, and the sign flips in ``param_merge``
feed the affine map extraction.  Scalar removal likewise records the
parameters that vanish with a boundary-free component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .diagram import Diagram, EdgeKind, GadgetView, VKind, axis_parity
from .errors import FixpointNotReached, NotApplicable
from .params import CLIFFORD_PHASES, Phase

# Enum member reads are Python-level calls on CPython 3.11; the kernels and
# the driver compare against these names.
_SPIDER, _HADAMARD, _PLAIN = VKind.SPIDER, EdgeKind.HADAMARD, EdgeKind.PLAIN
_ZERO = CLIFFORD_PHASES[0]  # shared by every hub and buffer spider


class Rule(Enum):
    LOCAL_COMP = "LocalComp"
    PIVOT = "Pivot"
    BOUNDARY_PIVOT = "BoundaryPivot"
    GADGET_PIVOT = "GadgetPivot"
    GADGET_FUSION = "GadgetFusion"
    GADGET_ID_FUSE = "GadgetIdFuse"
    SCALAR_REMOVAL = "ScalarRemoval"


@dataclass(frozen=True)
class ParamMerge:
    """Parameters absorbed into a surviving spider, with the applied signs."""

    absorbed: Tuple[Tuple[str, int], ...]
    survivor: int


@dataclass
class RewriteEvent:
    rule: Rule
    removed: Tuple[int, ...] = ()
    touched: Tuple[int, ...] = ()
    param_merge: Optional[ParamMerge] = None
    moved: Tuple[Tuple[str, int], ...] = ()  # parameter id -> new owning spider
    eliminated: Tuple[str, ...] = ()  # parameters dropped with a scalar component
    dropped: Optional[Phase] = None  # phase e^{i expr} discarded by this rewrite


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise NotApplicable(message)


def _is_internal_pauli(d: Diagram, v: int) -> bool:
    data = d._vertices.get(v)
    if data is None or data.kind is not _SPIDER or d._boundary_count[v]:
        return False
    ph = data.phase
    return not ph.terms and not ph.clifford & 1


def _degree_one_plugs(d: Diagram, v: int) -> List[int]:
    vertices, adj = d._vertices, d._adj
    return [n for n in adj[v] if len(adj[n]) == 1 and vertices[n].kind is _SPIDER]


def _is_clean_axis(d: Diagram, v: int) -> bool:
    return _is_internal_pauli(d, v) and len(_degree_one_plugs(d, v)) == 1


# -- local complementation ----------------------------------------------------

def local_complement_simp(d: Diagram, v: int) -> RewriteEvent:
    """Remove an internal spider with phase +-pi/2, complementing its
    neighbourhood and shifting each neighbour's phase by the opposite
    quarter turn."""
    _require(v in d._vertices and d.vertex(v).kind is VKind.SPIDER, f"{v} is not a spider")
    ph = d.phase(v)
    _require(ph.is_clifford() and ph.clifford in (1, 3), f"spider {v} phase is not +-pi/2")
    _require(d.is_internal(v), f"spider {v} is boundary-adjacent")
    return RewriteEvent(Rule.LOCAL_COMP, removed=(v,), touched=_complement_out(d, v))


def _complement_out(d: Diagram, v: int) -> Tuple[int, ...]:
    """Remove the +-pi/2 spider ``v``: shift each neighbour's phase by the
    opposite quarter turn and complement the neighbourhood.  Returns the
    former neighbours, sorted."""
    vertices = d._vertices
    k = -vertices[v].phase.clifford
    nbrs = sorted(d._adj[v])
    d.remove_vertex(v)
    for i, a in enumerate(nbrs):
        data = vertices[a]
        data.phase = data.phase.add_clifford(k)
        d.complement(a, nbrs[i + 1:])
    return tuple(nbrs)


# -- pivot family -------------------------------------------------------------

def _pivot_core(d: Diagram, u: int, v: int) -> Tuple[int, ...]:
    """Remove the adjacent Pauli pair (u, v); complement edges between the
    three neighbourhood classes and propagate the pi phases."""
    vertices, adj = d._vertices, d._adj
    pu, pv = vertices[u].phase.clifford, vertices[v].phase.clifford
    # The iteration order of these sets decides the adjacency insertion
    # order; a set built from a list sizes its table unlike one built from
    # a dict, so they are built from lists.
    nu = set(list(adj[u])) - {v}
    nv = set(list(adj[v])) - {u}
    common = nu & nv
    only_u = nu - common
    only_v = nv - common
    d.remove_vertex(u)
    d.remove_vertex(v)
    # each a of only_u toggles its edges to only_v and then to common
    others = [*only_v, *common]
    for a in only_u:
        d.complement(a, others)
    for a in only_v:
        d.complement(a, common)
    if pv:
        for w in only_u:
            data = vertices[w]
            data.phase = data.phase.add_clifford(pv)
    if pu:
        for w in only_v:
            data = vertices[w]
            data.phase = data.phase.add_clifford(pu)
    k = (2 + pu + pv) % 4
    if k:
        for w in common:
            data = vertices[w]
            data.phase = data.phase.add_clifford(k)
    return tuple(sorted(only_u | only_v | common))


def pivot_simp(d: Diagram, u: int, v: int) -> RewriteEvent:
    """Remove a Hadamard-adjacent pair of internal spiders with 0/pi phases."""
    for w in (u, v):
        _require(_is_internal_pauli(d, w), f"spider {w} is not an internal 0/pi Clifford spider")
    _require(d.has_edge(u, v), f"{u} and {v} are not adjacent")
    touched = _pivot_core(d, u, v)
    return RewriteEvent(Rule.PIVOT, removed=(u, v), touched=touched)


def _buffer_boundary_wires(d: Diagram, b: int) -> List[int]:
    """Insert a phase-0 spider on every boundary wire of ``b`` so that ``b``
    becomes internal; the inserted chain is tensor-exact."""
    added = []
    for o in d.boundary_wires(b):
        kind = d.edge_kind(b, o)
        d.remove_edge(b, o)
        z = d.add_spider(_ZERO)
        d.add_edge(b, z, _HADAMARD)
        d.add_edge(z, o, _HADAMARD if kind is _PLAIN else _PLAIN)
        added.append(z)
    return added


def _extract_phase_to_gadget(d: Diagram, w: int) -> Tuple[int, int]:
    """Unfuse the phase of ``w`` onto a fresh degree-1 spider behind a fresh
    phase-0 hub; tensor-exact.  Returns (hub, phase spider)."""
    phase = d.phase(w)
    d.set_phase(w, _ZERO)
    hub = d.add_spider(_ZERO)
    leaf = d.add_spider(phase)
    d.add_edge(w, hub, _HADAMARD)
    d.add_edge(hub, leaf, _HADAMARD)
    return hub, leaf


def boundary_pivot(d: Diagram, u: int, b: int) -> RewriteEvent:
    """Pivot an internal 0/pi spider against a boundary spider.

    The boundary wires of ``b`` are split with fresh phase-0 spiders, the
    phase of ``b`` (Clifford or parametrised) moves onto a fresh phase
    gadget, and a regular pivot removes the pair.  Follow-up rules remove
    the introduced spiders again whenever the extracted phase is Clifford.
    """
    _require(_is_internal_pauli(d, u), f"spider {u} is not an internal 0/pi Clifford spider")
    _require(b in d._vertices and d.is_boundary_spider(b), f"{b} is not a boundary spider")
    _require(d.has_edge(u, b), f"{u} and {b} are not adjacent")
    _require(not _is_clean_axis(d, u), f"spider {u} is a gadget axis")
    added = _buffer_boundary_wires(d, b)
    moved: Tuple[Tuple[str, int], ...] = ()
    if not d.phase(b).is_zero():
        hub, leaf = _extract_phase_to_gadget(d, b)
        added += [hub, leaf]
        moved = tuple((name, leaf) for name in d.phase(leaf).param_ids)
    touched = _pivot_core(d, u, b)
    return RewriteEvent(Rule.BOUNDARY_PIVOT, removed=(u, b),
                        touched=tuple(sorted(set(touched) | set(added))), moved=moved)


def gadget_pivot(d: Diagram, u: int, w: int) -> RewriteEvent:
    """Remove an internal 0/pi spider adjacent to a parametrised spider by
    rebuilding it as a phase gadget.

    The phase of ``w`` moves onto a fresh degree-1 spider whose hub takes
    over the old neighbourhood of ``u``; the hub inherits the 0/pi phase of
    ``u``, so the rewrite is sound up to a constant scalar with the
    parameter sign unchanged.
    """
    _require(_is_internal_pauli(d, u), f"spider {u} is not an internal 0/pi Clifford spider")
    _require(not _is_clean_axis(d, u), f"spider {u} is a gadget axis")
    _require(w in d._vertices and d.vertex(w).kind is VKind.SPIDER and d.is_internal(w),
             f"{w} is not an internal spider")
    _require(not d.phase(w).is_clifford(), f"spider {w} carries no parameter")
    _require(d.has_edge(u, w), f"{u} and {w} are not adjacent")
    _require(d.degree(w) > 1, f"{u} and {w} already form a phase gadget")
    hub, leaf = _extract_phase_to_gadget(d, w)
    moved = tuple((name, leaf) for name in d.phase(leaf).param_ids)
    touched = _pivot_core(d, u, w)
    return RewriteEvent(Rule.GADGET_PIVOT, removed=(u, w),
                        touched=tuple(sorted(set(touched) | {hub, leaf})), moved=moved)


# -- gadget fusion ------------------------------------------------------------

def _check_gadget(d: Diagram, g: GadgetView) -> None:
    ok = (g.axis_spider in d._vertices and g.phase_spider in d._vertices
          and _is_internal_pauli(d, g.axis_spider)
          and d.degree(g.phase_spider) == 1
          and d.has_edge(g.axis_spider, g.phase_spider)
          and frozenset(n for n in d.neighbors(g.axis_spider) if n != g.phase_spider) == g.neighbourhood)
    _require(ok, f"not a current phase gadget: {g}")


def gadget_fusion(d: Diagram, g1: GadgetView, g2: GadgetView) -> RewriteEvent:
    """Fuse two phase gadgets with identical neighbourhoods.

    Expressions add term-wise; if the axis parities differ the absorbed
    expression enters negated and the discarded phase factor is recorded.
    A fusion that cancels all parameters leaves a Clifford degree-1 spider
    for the Clifford rules to remove.
    """
    _check_gadget(d, g1)
    _check_gadget(d, g2)
    _require(g1.axis_spider != g2.axis_spider, "cannot fuse a gadget with itself")
    _require(g1.neighbourhood == g2.neighbourhood, "gadget neighbourhoods differ")
    survivor, absorbed = (g1, g2) if g1.axis_spider < g2.axis_spider else (g2, g1)
    same_parity = axis_parity(d, survivor) == axis_parity(d, absorbed)
    expr = d.phase(absorbed.phase_spider)
    signed = expr if same_parity else expr.negated()
    sign = 1 if same_parity else -1
    d.remove_vertex(absorbed.phase_spider)
    d.remove_vertex(absorbed.axis_spider)
    d.set_phase(survivor.phase_spider, d.phase(survivor.phase_spider) + signed)
    merge = None
    if expr.param_ids:
        merge = ParamMerge(tuple((name, sign) for name in expr.param_ids),
                           survivor.phase_spider)
    return RewriteEvent(Rule.GADGET_FUSION,
                        removed=(absorbed.axis_spider, absorbed.phase_spider),
                        touched=(survivor.axis_spider, survivor.phase_spider),
                        param_merge=merge,
                        dropped=None if same_parity else expr)


def gadget_id_fuse(d: Diagram, g: GadgetView) -> RewriteEvent:
    """Fuse a gadget with exactly one neighbour into that neighbour's phase.

    A 0 axis adds the expression directly; a pi axis adds it negated and
    discards the corresponding phase factor.
    """
    _check_gadget(d, g)
    _require(len(g.neighbourhood) == 1, f"gadget has {len(g.neighbourhood)} neighbours")
    (w,) = g.neighbourhood
    parity = axis_parity(d, g)
    expr = d.phase(g.phase_spider)
    signed = expr if parity == 0 else expr.negated()
    sign = 1 if parity == 0 else -1
    d.remove_vertex(g.phase_spider)
    d.remove_vertex(g.axis_spider)
    d.set_phase(w, d.phase(w) + signed)
    merge = None
    if expr.param_ids:
        merge = ParamMerge(tuple((name, sign) for name in expr.param_ids), w)
    return RewriteEvent(Rule.GADGET_ID_FUSE,
                        removed=(g.axis_spider, g.phase_spider), touched=(w,),
                        param_merge=merge,
                        dropped=None if parity == 0 else expr)


# -- scalar removal -----------------------------------------------------------

def remove_scalar_spiders(d: Diagram) -> List[RewriteEvent]:
    """Remove every connected component without boundary nodes.

    Such components only contribute a global scalar; parameters they carry
    are recorded as eliminated (zero columns of the parameter map).
    """
    events = []
    for comp in d.connected_components():
        if any(d.vertex(v).is_boundary for v in comp):
            continue
        eliminated = []
        for v in comp:
            eliminated.extend(d.phase(v).param_ids)
        for v in comp:
            d.remove_vertex(v)
        events.append(RewriteEvent(Rule.SCALAR_REMOVAL, removed=tuple(sorted(comp)),
                                   eliminated=tuple(sorted(eliminated))))
    return events


# -- boundary decoration cleanup ---------------------------------------------

def _boundary_cleanup(d: Diagram, b: int) -> RewriteEvent:
    """Normalise a non-parametrised boundary spider with a Hadamard wire and
    an odd phase: buffer its wires and remove it by local complementation,
    leaving only S^k, H or Z.H decorations."""
    _buffer_boundary_wires(d, b)  # the buffer spiders become neighbours of b
    return RewriteEvent(Rule.LOCAL_COMP, removed=(b,), touched=_complement_out(d, b))


def _needs_boundary_cleanup(d: Diagram, b: int) -> bool:
    ph = d.phase(b)
    if not (ph.is_clifford() and ph.clifford in (1, 3)):
        return False
    return any(d.edge_kind(b, o) is EdgeKind.HADAMARD for o in d.boundary_wires(b))


# -- driver -------------------------------------------------------------------

# The driver's per-vertex code.  The SIG_ bits are the vertex's signature:
# what the candidates anchored at a neighbour read off it.  The CLASS_ bits
# say which of the driver's vertex sets holds it (at most one).
SIG_DEGREE_ONE, SIG_WIRED, SIG_PARAM = 1, 2, 4
CLASS_LOCAL_COMP, CLASS_PAULI, CLASS_HADAMARD_WIRED = 8, 16, 32
_SIGNATURE = SIG_DEGREE_ONE | SIG_WIRED | SIG_PARAM
_CLASSES = CLASS_LOCAL_COMP | CLASS_PAULI | CLASS_HADAMARD_WIRED
_NO_PARTNERS: FrozenSet[int] = frozenset()


def _pick(candidates, rng: Optional[Random]):
    if not candidates:
        return None
    if rng is None:
        return min(candidates)
    return rng.choice(sorted(candidates))


class Rewriter:
    """The fixpoint driver: applies one rewrite at a time, taking the first
    stage of ``stages`` that has a match.

    The candidates of every rule are kept in indexes that always equal what
    a full rescan of the diagram returns, so a pick is ``min`` of a rule's
    candidates, or ``rng.choice`` of them sorted when a seed is given.
    After a rewrite only what it changed is re-checked: the matched, removed
    and touched vertices and the former neighbours of the matched ones, which
    are every vertex whose phase, degree or adjacency changed.

    Each spider has a code, one small int: its signature (degree one,
    boundary adjacency, parameter), which is what the candidates anchored at
    a neighbour read off it, and its class (local complementation, internal
    0/pi, Hadamard boundary wire).
    A re-checked vertex moves between the class sets only when its class
    changed; when its signature changed, its internal 0/pi neighbours are
    re-checked too.  Re-checking an internal 0/pi spider walks its
    neighbours once and applies only the difference from the previous walk
    to its pivot partners, its gadget/boundary pivot pairs and its gadget.
    """

    def __init__(self, d: Diagram, stages: Sequence[Callable[["Rewriter"], Optional[List[RewriteEvent]]]],
                 seed: Optional[int] = None):
        self.d = d
        self.stages = tuple(stages)
        self.rng = Random(seed) if seed is not None else None
        self.local_comp: Set[int] = set()
        self.pauli: Set[int] = set()  # internal spiders with phase 0 or pi
        self.pivot: Set[Tuple[int, int]] = set()
        self.gadget_pivot: Set[Tuple[int, int]] = set()
        self.boundary_pivot: Set[Tuple[int, int]] = set()
        self.gadgets: Dict[int, GadgetView] = {}  # axis -> gadget
        self.by_neighbourhood: Dict[FrozenSet[int], Set[int]] = {}  # neighbourhood -> axes
        self.unary: Set[int] = set()  # axes of gadgets with one neighbour
        self.shared: Set[FrozenSet[int]] = set()  # neighbourhoods of two gadgets or more
        self.hadamard_wired: Set[int] = set()  # boundary spiders with a Hadamard boundary wire
        self.codes: Dict[int, int] = {}  # spider -> SIG_ and CLASS_ bits
        self._class_sets = {CLASS_LOCAL_COMP: self.local_comp, CLASS_PAULI: self.pauli,
                            CLASS_HADAMARD_WIRED: self.hadamard_wired}
        self._pivot_partners: Dict[int, Set[int]] = {}  # never holds an empty set
        self._pairs_at: Dict[int, Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = {}
        self.recheck(set(d.vertices()))

    def run(self, limit: int, what: str = "simplify") -> List[RewriteEvent]:
        """Rewrite to the fixpoint; raise FixpointNotReached after ``limit``
        rewrites."""
        events: List[RewriteEvent] = []
        for _ in range(limit):
            step = self.step()
            if step is None:
                return events
            events.extend(step)
        raise FixpointNotReached(f"{what} did not reach a fixpoint (safety cap hit)")

    def step(self) -> Optional[List[RewriteEvent]]:
        """Apply the first stage with a match; None at the fixpoint."""
        for stage in self.stages:
            events = stage(self)
            if events is not None:
                return events
        return None

    def apply(self, match: Tuple[int, ...], rewrite: Callable, *args) -> List[RewriteEvent]:
        """Run ``rewrite(d, *args)`` on the matched vertices and re-check what
        it changed: every rule removes or touches only matched vertices,
        their neighbours and vertices it adds."""
        adj = self.d._adj
        changed = set(match)
        for v in match:
            changed.update(adj[v])
        event = rewrite(self.d, *args)
        changed.update(event.removed)
        changed.update(event.touched)
        self.recheck(changed)
        return [event]

    def recheck(self, changed: Set[int]) -> None:
        """Bring every index up to date after the vertices in ``changed``
        (present or removed) changed phase, degree or adjacency.  Where the
        signature of a vertex changed, its internal 0/pi neighbours are
        re-checked too."""
        d = self.d
        vertices, adj, boundary_count = d._vertices, d._adj, d._boundary_count
        codes, class_sets = self.codes, self._class_sets
        spider, hadamard = _SPIDER, _HADAMARD
        # Candidates are anchored only at internal 0/pi spiders, so every
        # vertex that is one now or was one before the rewrite is re-checked.
        anchors: List[int] = []
        around: Set[int] = set()
        for v in changed:
            old = codes.get(v)  # None for a boundary node or a new spider
            data = vertices.get(v)
            if data is None or data.kind is not spider:
                if old is not None:  # a removed spider
                    del codes[v]
                    if old & _CLASSES:
                        class_sets[old & _CLASSES].discard(v)
                        if old & CLASS_PAULI:
                            anchors.append(v)
                continue
            nbrs = adj[v]
            ph = data.phase
            if boundary_count[v]:
                code = SIG_WIRED | SIG_PARAM if ph.terms else SIG_WIRED
                for n, kind in nbrs.items():
                    if kind is hadamard and vertices[n].kind is not spider:
                        code |= CLASS_HADAMARD_WIRED
                        break
            elif ph.terms:
                code = SIG_PARAM
            elif ph.clifford & 1:
                code = CLASS_LOCAL_COMP
            else:
                code = CLASS_PAULI
            if len(nbrs) == 1:
                code |= SIG_DEGREE_ONE
            if code & CLASS_PAULI:
                anchors.append(v)
            if code == old:
                continue
            codes[v] = code
            if old is None:
                # every neighbour of a new spider gained an edge, so it is
                # in ``changed`` already
                if code & _CLASSES:
                    class_sets[code & _CLASSES].add(v)
                continue
            if (code ^ old) & _CLASSES:
                if old & _CLASSES:
                    class_sets[old & _CLASSES].discard(v)
                    if old & CLASS_PAULI:
                        anchors.append(v)
                if code & _CLASSES:
                    class_sets[code & _CLASSES].add(v)
            if (code ^ old) & _SIGNATURE:
                around.update(nbrs)
        if around:
            around.difference_update(changed)
            anchors.extend(around & self.pauli)
        self._recheck_anchored(anchors)

    def _recheck_anchored(self, anchors: List[int]) -> None:
        """The candidates anchored at each ``u`` of ``anchors``: its pivot
        pairs, the gadget with axis ``u`` and its gadget/boundary pivots.  All
        of them need ``u`` to be an internal 0/pi spider; one walk over its
        neighbours finds them, and only what differs from the previous walk
        is applied."""
        adj, codes = self.d._adj, self.codes
        pauli, partners_of, pairs_at, gadgets = self.pauli, self._pivot_partners, self._pairs_at, self.gadgets
        pivot, gadget_pivot, boundary_pivot = self.pivot, self.gadget_pivot, self.boundary_pivot
        for u in anchors:
            if u in pauli:
                adj_u = adj[u]
                partners: Set[int] = set()
                legs: List[int] = []
                gadget_pairs: List[Tuple[int, int]] = []
                boundary_pairs: List[Tuple[int, int]] = []
                for w in adj_u:  # u is internal, so every neighbour is a spider
                    code = codes[w]
                    if code & CLASS_PAULI:
                        partners.add(w)
                    if code & _SIGNATURE:
                        if code & SIG_DEGREE_ONE:
                            legs.append(w)
                        elif code & SIG_WIRED:
                            boundary_pairs.append((u, w))
                        else:
                            gadget_pairs.append((u, w))
                if len(legs) == 1 or not (gadget_pairs or boundary_pairs):
                    pairs = None
                else:
                    pairs = (gadget_pairs, boundary_pairs)
            else:
                partners, legs, pairs = _NO_PARTNERS, (), None
            old_partners = partners_of.get(u, _NO_PARTNERS)
            if partners != old_partners:
                for p in old_partners - partners:
                    pivot.discard((u, p) if u < p else (p, u))
                    others = partners_of[p]
                    others.discard(u)
                    if not others:
                        del partners_of[p]
                for p in partners - old_partners:
                    pivot.add((u, p) if u < p else (p, u))
                    others = partners_of.get(p)
                    if others is None:
                        partners_of[p] = {u}
                    else:
                        others.add(u)
                if partners:
                    partners_of[u] = partners
                else:
                    del partners_of[u]
            old_pairs = pairs_at.get(u)
            if pairs != old_pairs:
                if old_pairs is not None:
                    gadget_pivot.difference_update(old_pairs[0])
                    boundary_pivot.difference_update(old_pairs[1])
                if pairs is None:
                    del pairs_at[u]
                else:
                    pairs_at[u] = pairs
                    gadget_pivot.update(gadget_pairs)
                    boundary_pivot.update(boundary_pairs)
            old_gadget = gadgets.get(u)
            if len(legs) == 1:
                leg = legs[0]
                if old_gadget is not None:
                    nbhd = old_gadget.neighbourhood
                    if (old_gadget.phase_spider == leg and len(adj_u) == len(nbhd) + 1
                            and adj_u.keys() >= nbhd):
                        continue
                    self._drop_gadget(old_gadget)
                self._add_gadget(GadgetView(u, leg, frozenset(adj_u.keys() - {leg})))
            elif old_gadget is not None:
                self._drop_gadget(old_gadget)

    def _add_gadget(self, g: GadgetView) -> None:
        self.gadgets[g.axis_spider] = g
        axes = self.by_neighbourhood.setdefault(g.neighbourhood, set())
        axes.add(g.axis_spider)
        if len(axes) >= 2:
            self.shared.add(g.neighbourhood)
        if len(g.neighbourhood) == 1:
            self.unary.add(g.axis_spider)

    def _drop_gadget(self, g: GadgetView) -> None:
        u = g.axis_spider
        del self.gadgets[u]
        axes = self.by_neighbourhood[g.neighbourhood]
        axes.discard(u)
        if len(axes) < 2:
            self.shared.discard(g.neighbourhood)
            if not axes:
                del self.by_neighbourhood[g.neighbourhood]
        self.unary.discard(u)


def _local_comp_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    v = _pick(rw.local_comp, rw.rng)
    return None if v is None else rw.apply((v,), local_complement_simp, v)


def _pivot_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    pair = _pick(rw.pivot, rw.rng)
    return None if pair is None else rw.apply(pair, pivot_simp, *pair)


def _gadget_pivot_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    pair = _pick(rw.gadget_pivot, rw.rng)
    return None if pair is None else rw.apply(pair, gadget_pivot, *pair)


def _boundary_pivot_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    pair = _pick(rw.boundary_pivot, rw.rng)
    return None if pair is None else rw.apply(pair, boundary_pivot, *pair)


def _gadget_id_fuse_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    axis = _pick(rw.unary, rw.rng)
    if axis is None:
        return None
    g = rw.gadgets[axis]
    return rw.apply((g.axis_spider, g.phase_spider), gadget_id_fuse, g)


def _gadget_fusion_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    # groups are disjoint, so sorting them orders them by their smallest axis
    groups = sorted(sorted(rw.by_neighbourhood[n]) for n in rw.shared)
    if not groups:
        return None
    axes = groups[0] if rw.rng is None else rw.rng.choice(groups)
    g1, g2 = rw.gadgets[axes[0]], rw.gadgets[axes[1]]
    return rw.apply((g1.axis_spider, g1.phase_spider, g2.axis_spider, g2.phase_spider),
                    gadget_fusion, g1, g2)


def _scalar_removal_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    events = remove_scalar_spiders(rw.d)
    if not events:
        return None
    rw.recheck({v for ev in events for v in ev.removed})
    return events


def _boundary_cleanup_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    b = _pick([b for b in rw.hadamard_wired if _needs_boundary_cleanup(rw.d, b)], rw.rng)
    return None if b is None else rw.apply((b,), _boundary_cleanup, b)


def _hadamard_wire_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    """Buffer the boundary wires of a spider with a Hadamard boundary wire
    (no event: the buffering is tensor-exact and moves no parameter)."""
    b = _pick(rw.hadamard_wired, rw.rng)
    if b is None:
        return None
    changed = {b, *rw.d._adj[b]}
    changed.update(_buffer_boundary_wires(rw.d, b))
    rw.recheck(changed)
    return []


# Rule priority of the full strategy.
SIMPLIFY_STAGES = (_local_comp_stage, _pivot_stage, _gadget_pivot_stage, _boundary_pivot_stage,
                   _gadget_id_fuse_stage, _gadget_fusion_stage, _scalar_removal_stage,
                   _boundary_cleanup_stage)
# Clifford state reduction for the AP form: internal spiders are removed and
# every boundary wire is made plain.
AP_FORM_STAGES = (_local_comp_stage, _pivot_stage, _hadamard_wire_stage)


def simplify(d: Diagram, seed: Optional[int] = None) -> Tuple[Diagram, List[RewriteEvent]]:
    """Run the full strategy to a fixpoint and return the terminal diagram.

    Rules are attempted in a fixed priority (local complementation, pivot,
    gadget pivot, boundary pivot, gadget fusion on one neighbour, gadget
    fusion, scalar removal, boundary decoration cleanup); within a rule the
    candidate with the smallest vertex ids is chosen, or a seeded random
    candidate when ``seed`` is given.  The terminal diagram satisfies the
    pseudo-normal form conditions checked by ``verify.terminal_violations``.
    Raises FixpointNotReached if the safety cap on the number of rewrites
    is hit.  ``d`` itself is left as it is.
    """
    return _simplify(d.copy(), seed)


def _simplify(d: Diagram, seed: Optional[int]) -> Tuple[Diagram, List[RewriteEvent]]:
    """``simplify`` rewriting ``d`` itself, for a caller that owns it."""
    limit = 1000 + 60 * (len(d.spiders()) + 2) ** 2
    return d, Rewriter(d, SIMPLIFY_STAGES, seed).run(limit)
