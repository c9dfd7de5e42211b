"""Simplification rules for graph-like diagrams and the fixpoint driver.

Every rule preserves the diagram's tensor up to a scalar.  For local
complementation, pivots and gadget creation that scalar is a constant.
Fusing a gadget whose axis carries pi flips the sign of the absorbed
expression and discards a phase factor e^{i e(a)} that depends on the
parameters; the event records the discarded expression in ``dropped`` so
soundness can be checked exactly, and the sign flips in ``param_merge``
feed the affine map extraction.  Scalar removal drops boundary-free
components; in a circuit's diagram none carries a parameter, since each rz
is used once and A·rz(t+δ)·B ∝ A·rz(t)·B forces δ ∈ 2πℤ.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .diagram import Diagram, EdgeKind, GadgetView, VKind, axis_parity, gadget_at, is_internal_pauli
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
    dropped: Optional[Phase] = None  # phase e^{i expr} discarded by this rewrite


def _require(condition: bool, message: str, *args) -> None:
    """Raise NotApplicable with ``message.format(*args)`` unless ``condition``;
    the message is formatted only then."""
    if not condition:
        raise NotApplicable(message.format(*args))


# -- local complementation ----------------------------------------------------

def local_complement_simp(d: Diagram, v: int) -> RewriteEvent:
    """Remove an internal spider with phase +-pi/2, complementing its
    neighbourhood and shifting each neighbour's phase by the opposite
    quarter turn."""
    _require(v in d._vertices and d.vertex(v).kind is VKind.SPIDER, "{} is not a spider", v)
    ph = d.phase(v)
    _require(ph.is_clifford() and ph.clifford in (1, 3), "spider {} phase is not +-pi/2", v)
    _require(d.is_internal(v), "spider {} is boundary-adjacent", v)
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
        _require(is_internal_pauli(d, w), "spider {} is not an internal 0/pi Clifford spider", w)
    _require(d.has_edge(u, v), "{} and {} are not adjacent", u, v)
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
    _require(is_internal_pauli(d, u), "spider {} is not an internal 0/pi Clifford spider", u)
    _require(b in d._vertices and d.is_boundary_spider(b), "{} is not a boundary spider", b)
    _require(d.has_edge(u, b), "{} and {} are not adjacent", u, b)
    _require(gadget_at(d, u) is None, "spider {} is a gadget axis", u)
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
    _require(is_internal_pauli(d, u), "spider {} is not an internal 0/pi Clifford spider", u)
    _require(gadget_at(d, u) is None, "spider {} is a gadget axis", u)
    _require(w in d._vertices and d.vertex(w).kind is VKind.SPIDER and d.is_internal(w),
             "{} is not an internal spider", w)
    _require(not d.phase(w).is_clifford(), "spider {} carries no parameter", w)
    _require(d.has_edge(u, w), "{} and {} are not adjacent", u, w)
    _require(d.degree(w) > 1, "{} and {} already form a phase gadget", u, w)
    hub, leaf = _extract_phase_to_gadget(d, w)
    moved = tuple((name, leaf) for name in d.phase(leaf).param_ids)
    touched = _pivot_core(d, u, w)
    return RewriteEvent(Rule.GADGET_PIVOT, removed=(u, w),
                        touched=tuple(sorted(set(touched) | {hub, leaf})), moved=moved)


# -- gadget fusion ------------------------------------------------------------

def _check_gadget(d: Diagram, g: GadgetView) -> None:
    _require(gadget_at(d, g.axis_spider) == g, "not a current phase gadget: {}", g)


def _fuse_gadget(d: Diagram, g: GadgetView, target: int,
                 negate: bool) -> Tuple[Optional[ParamMerge], Optional[Phase]]:
    """Remove the gadget ``g`` and add its expression to the phase of
    ``target``, negated if ``negate``.  Returns the merge of its parameters
    (None if it carries none) and the discarded phase (its expression if
    negated, else None)."""
    expr = d.phase(g.phase_spider)
    d.remove_vertex(g.phase_spider)
    d.remove_vertex(g.axis_spider)
    d.set_phase(target, d.phase(target) + (expr.negated() if negate else expr))
    sign = -1 if negate else 1
    merge = ParamMerge(tuple((name, sign) for name in expr.param_ids), target) if expr.param_ids else None
    return merge, expr if negate else None


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
    negate = axis_parity(d, survivor) != axis_parity(d, absorbed)
    merge, dropped = _fuse_gadget(d, absorbed, survivor.phase_spider, negate)
    return RewriteEvent(Rule.GADGET_FUSION,
                        removed=(absorbed.axis_spider, absorbed.phase_spider),
                        touched=(survivor.axis_spider, survivor.phase_spider),
                        param_merge=merge, dropped=dropped)


def gadget_id_fuse(d: Diagram, g: GadgetView) -> RewriteEvent:
    """Fuse a gadget with exactly one neighbour into that neighbour's phase.

    A 0 axis adds the expression directly; a pi axis adds it negated and
    discards the corresponding phase factor.
    """
    _check_gadget(d, g)
    _require(len(g.neighbourhood) == 1, "gadget has {} neighbours", len(g.neighbourhood))
    (w,) = g.neighbourhood
    merge, dropped = _fuse_gadget(d, g, w, axis_parity(d, g) == 1)
    return RewriteEvent(Rule.GADGET_ID_FUSE, removed=(g.axis_spider, g.phase_spider), touched=(w,),
                        param_merge=merge, dropped=dropped)


# -- scalar removal -----------------------------------------------------------

def remove_scalar_spiders(d: Diagram) -> List[RewriteEvent]:
    """Remove every connected component without boundary nodes.

    Such components only contribute a global scalar, and in a circuit's
    diagram they carry no parameter (see the module docstring).
    """
    events = []
    for comp in d.connected_components():
        if any(d.vertex(v).is_boundary for v in comp):
            continue
        for v in comp:
            d.remove_vertex(v)
        events.append(RewriteEvent(Rule.SCALAR_REMOVAL, removed=tuple(sorted(comp))))
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
# are its class: an internal spider that local complementation removes, or an
# internal 0/pi spider, at which the pivot and gadget candidates are anchored.
SIG_DEGREE_ONE, SIG_WIRED, SIG_PARAM = 1, 2, 4
CLASS_LOCAL_COMP, CLASS_PAULI = 8, 16
_SIGNATURE = SIG_DEGREE_ONE | SIG_WIRED | SIG_PARAM
_CLASSES = CLASS_LOCAL_COMP | CLASS_PAULI
_NO_PARTNERS: FrozenSet[int] = frozenset()
_NO_ENDS: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())
# Rewriter.file_pairs refills the gadget and boundary pivot indexes when the
# vertices to file again are more than 1/_REFILL_RATIO of their pairs.  Filing
# one vertex measured 4.6, 5 and 15 times the cost of refilling one pair (on
# the opt_phasepoly circuits, a 40-qubit random circuit and a 60-qubit phase
# polynomial): 8 is within a factor of two of the break-even on all three.
_REFILL_RATIO = 8


def _pick(candidates, rng: Optional[Random]):
    if not candidates:
        return None
    if rng is None:
        return min(candidates)
    return rng.choice(sorted(candidates))


def _cheapest(costed: Dict, rng: Optional[Random]):
    """The smallest of the cheapest candidates of ``costed`` (candidate ->
    (cost, candidate)), or with ``rng`` a choice among them sorted; None if
    there is none."""
    if not costed:
        return None
    cost, first = min(costed.values())
    return first if rng is None else _pick([c for k, c in costed.values() if k == cost], rng)


class Rewriter:
    """The fixpoint driver: applies one rewrite at a time, taking the first
    stage of ``stages`` that has a match.

    The candidates of every rule are kept in indexes that equal what a full
    rescan of the diagram returns.  The four edge-toggling rules (local
    complementation and the three pivots) take their cheapest candidate.
    Such a rewrite toggles edges within the neighbourhoods it reads, the way
    a step of Gaussian elimination fills a sparse matrix, so a spider costs
    its degree and a pair the product of its two degrees, as in
    minimum-degree orderings.  Ties go to the smallest candidate under seed
    0, and under a nonzero seed to ``Random(seed).choice`` over the tied
    candidates sorted.  These four indexes map each candidate to ``(cost,
    candidate)`` under its current cost, so a pick is one ``min`` over an
    index's values.  The other rules take their smallest candidate, or a
    seeded choice.
    After a rewrite only what it changed is re-checked: the matched, removed
    and touched vertices and the former neighbours of the matched ones, which
    are every vertex whose phase, degree or adjacency changed.

    Each spider has two records: its degree at its last re-check, and its
    code, one small int: its signature (degree one, boundary adjacency,
    parameter), which is what the candidates anchored at a neighbour read
    off it, and its class (local complementation, internal 0/pi).
    When a re-checked vertex's signature changed, its internal 0/pi
    neighbours are re-checked too.  Re-checking an internal 0/pi spider
    walks its neighbours once and applies only the difference from the
    previous walk to its pivot partners, its gadget/boundary pivot ends and
    its gadget; if its degree changed, it files its pivot pairs under their
    new costs.
    The gadget and boundary pivot indexes are read only when no local
    complementation or pivot applies, so they are brought up to date when
    read, by ``file_pairs``, from the anchors and the pair ends whose ends
    or degree changed since.
    The boundary stages run last and seldom, so they keep no index: they
    read the spiders on the boundary nodes, which no rule adds or removes.
    """

    def __init__(self, d: Diagram, stages: Sequence[Callable[["Rewriter"], Optional[List[RewriteEvent]]]],
                 seed: int = 0):
        self.d = d
        self.stages = tuple(stages)
        self.rng = Random(seed) if seed else None
        # the costed candidates: candidate -> (cost, candidate)
        self.local_comp: Dict[int, Tuple[int, int]] = {}
        self.pivot: Dict[Tuple[int, int], Tuple[int, Tuple[int, int]]] = {}
        self.gadget_pivot: Dict[Tuple[int, int], Tuple[int, Tuple[int, int]]] = {}
        self.boundary_pivot: Dict[Tuple[int, int], Tuple[int, Tuple[int, int]]] = {}
        self.gadgets: Dict[int, GadgetView] = {}  # axis -> gadget
        self.by_neighbourhood: Dict[FrozenSet[int], Set[int]] = {}  # neighbourhood -> axes
        self.unary: Set[int] = set()  # axes of gadgets with one neighbour
        self.shared: Set[FrozenSet[int]] = set()  # neighbourhoods of two gadgets or more
        self.codes: Dict[int, int] = {}  # spider -> SIG_ and CLASS_ bits
        self.degrees: Dict[int, int] = {}  # spider -> degree at its last re-check
        self.boundaries = d.boundaries()  # no rule adds or removes a boundary node
        self._pivot_partners: Dict[int, Set[int]] = {}  # never holds an empty set
        # anchor -> (gadget pivot ends, boundary pivot ends)
        self._pairs_at: Dict[int, Tuple[List[int], List[int]]] = {}
        self._filed_at: Dict[int, Tuple[List[int], List[int]]] = {}  # anchor -> its ends as last filed
        self._unfiled: Set[int] = set()  # the vertices whose gadget/boundary pivot pairs may be misfiled
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
        re-checked too.  Where its degree changed, the candidates that read
        it are filed under their new costs: local complementation and pivots
        at once, gadget and boundary pivots by the next ``file_pairs``."""
        d = self.d
        vertices, adj, boundary_count = d._vertices, d._adj, d._boundary_count
        codes, degrees, local_comp = self.codes, self.degrees, self.local_comp
        spider = _SPIDER
        # Candidates are anchored only at internal 0/pi spiders, so every
        # vertex that is one now or was one before the rewrite is re-checked.
        anchors: List[int] = []
        around: Set[int] = set()
        regraded: Set[int] = set()  # spiders whose degree changed
        for v in changed:
            old = codes.get(v)  # None for a boundary node or a new spider
            data = vertices.get(v)
            if data is None or data.kind is not spider:
                if old is not None:  # a removed spider
                    del codes[v]
                    del degrees[v]
                    if old & CLASS_LOCAL_COMP:
                        del local_comp[v]
                    elif old & CLASS_PAULI:
                        anchors.append(v)
                continue
            nbrs = adj[v]
            degree = len(nbrs)
            ph = data.phase
            if boundary_count[v]:
                code = SIG_WIRED | SIG_PARAM if ph.terms else SIG_WIRED
            elif ph.terms:
                code = SIG_PARAM
            elif ph.clifford & 1:
                code = CLASS_LOCAL_COMP
                local_comp[v] = (degree, v)
            else:
                code = CLASS_PAULI
            if degree == 1:
                code |= SIG_DEGREE_ONE
            if degree != degrees.get(v):
                degrees[v] = degree
                regraded.add(v)
            if code & CLASS_PAULI:
                anchors.append(v)
            if code == old:
                continue
            codes[v] = code
            if old is None:
                # every neighbour of a new spider gained an edge, so it is
                # in ``changed`` already
                continue
            if (code ^ old) & _CLASSES:
                if old & CLASS_LOCAL_COMP:
                    del local_comp[v]
                elif old & CLASS_PAULI:
                    anchors.append(v)
            if (code ^ old) & _SIGNATURE:
                around.update(nbrs)
        if around:
            around.difference_update(changed)
            anchors.extend(u for u in around if codes.get(u, 0) & CLASS_PAULI)
        self._recheck_anchored(anchors, regraded)
        self._unfiled |= regraded

    def _recheck_anchored(self, anchors: List[int], regraded: Set[int]) -> None:
        """The candidates anchored at each ``u`` of ``anchors``: its pivot
        pairs, the gadget with axis ``u`` and its gadget/boundary pivots.  All
        of them need ``u`` to be an internal 0/pi spider; one walk over its
        neighbours finds them, and only what differs from the previous walk
        is applied.  If ``u`` is in ``regraded`` (its degree changed), all its
        pivot pairs are filed under their new costs, a pair whose two ends are
        in ``regraded`` from its smaller end; its gadget/boundary pivot pairs
        are left to ``file_pairs``, like those of an anchor whose ends
        changed."""
        adj, codes = self.d._adj, self.codes
        partners_of, pairs_at, gadgets = self._pivot_partners, self._pairs_at, self.gadgets
        pivot, unfiled = self.pivot, self._unfiled
        for u in anchors:
            if codes.get(u, 0) & CLASS_PAULI:
                adj_u = adj[u]
                partners: Set[int] = set()
                legs: List[int] = []
                gadget_ends: List[int] = []
                boundary_ends: List[int] = []
                for w in adj_u:  # u is internal, so every neighbour is a spider
                    code = codes[w]
                    if code & CLASS_PAULI:
                        partners.add(w)
                    if code & _SIGNATURE:
                        if code & SIG_DEGREE_ONE:
                            legs.append(w)
                        elif code & SIG_WIRED:
                            boundary_ends.append(w)
                        else:
                            gadget_ends.append(w)
                if len(legs) == 1 or not (gadget_ends or boundary_ends):
                    pairs = None
                else:
                    pairs = (gadget_ends, boundary_ends)
            else:
                adj_u, partners, legs, pairs = {}, _NO_PARTNERS, (), None
            du = len(adj_u)
            refile = u in regraded
            old_partners = partners_of.get(u, _NO_PARTNERS)
            if partners != old_partners:
                for p in old_partners - partners:
                    del pivot[(u, p) if u < p else (p, u)]
                    others = partners_of[p]
                    others.discard(u)
                    if not others:
                        del partners_of[p]
                for p in partners - old_partners:
                    others = partners_of.get(p)
                    if others is None:
                        partners_of[p] = {u}
                    else:
                        others.add(u)
                    if not refile:
                        pair = (u, p) if u < p else (p, u)
                        pivot[pair] = (du * len(adj[p]), pair)
                if partners:
                    partners_of[u] = partners
                else:
                    del partners_of[u]
            if refile:
                for p in partners:
                    if u < p or p not in regraded:
                        pair = (u, p) if u < p else (p, u)
                        pivot[pair] = (du * len(adj[p]), pair)
            if pairs != pairs_at.get(u):
                if pairs is None:
                    del pairs_at[u]
                else:
                    pairs_at[u] = pairs
                unfiled.add(u)
            old_gadget = gadgets.get(u)
            if len(legs) == 1:
                leg = legs[0]
                if old_gadget is not None:
                    nbhd = old_gadget.neighbourhood
                    if (old_gadget.phase_spider == leg and du == len(nbhd) + 1
                            and adj_u.keys() >= nbhd):
                        continue
                    self._drop_gadget(old_gadget)
                self._add_gadget(GadgetView(u, leg, frozenset(adj_u.keys() - {leg})))
            elif old_gadget is not None:
                self._drop_gadget(old_gadget)

    def file_pairs(self) -> None:
        """Bring the gadget and boundary pivot indexes up to date.  Their
        stages run only when no local complementation or pivot applies, so
        they are filed when read, from the vertices in ``_unfiled``: an
        anchor whose ends or degree changed drops the pairs it filed last and
        files its current ends; an end whose degree changed files again the
        pairs filed at it, whose anchors are among its neighbours.  When the
        changed vertices are many against the filed pairs, both indexes are
        refilled from the anchors' ends instead: filing one vertex costs
        about ``_REFILL_RATIO`` times as much as refilling one pair."""
        unfiled = self._unfiled
        if not unfiled:
            return
        adj, codes, pairs_at, filed_at = self.d._adj, self.codes, self._pairs_at, self._filed_at
        gadget_pivot, boundary_pivot = self.gadget_pivot, self.boundary_pivot
        if _REFILL_RATIO * len(unfiled) > len(gadget_pivot) + len(boundary_pivot):
            self.gadget_pivot = {(u, w): (len(adj[u]) * len(adj[w]), (u, w))
                                 for u, ends in pairs_at.items() for w in ends[0]}
            self.boundary_pivot = {(u, w): (len(adj[u]) * len(adj[w]), (u, w))
                                   for u, ends in pairs_at.items() for w in ends[1]}
            self._filed_at = dict(pairs_at)
            unfiled.clear()
            return
        for v in unfiled:
            pairs = pairs_at.get(v)
            filed = filed_at.get(v)
            if pairs is not None or filed is not None:  # an anchor, now or when last filed
                if filed is not None and filed is not pairs:
                    now = pairs or _NO_ENDS
                    for index, gone, ends in ((gadget_pivot, filed[0], now[0]), (boundary_pivot, filed[1], now[1])):
                        for w in set(gone).difference(ends):
                            del index[(v, w)]
                if pairs is None:
                    del filed_at[v]
                    continue
                filed_at[v] = pairs
                dv = len(adj[v])
                for index, ends in ((gadget_pivot, pairs[0]), (boundary_pivot, pairs[1])):
                    for w in ends:
                        pair = (v, w)
                        index[pair] = (dv * len(adj[w]), pair)
                continue
            code = codes.get(v)
            if code is not None and code & (SIG_WIRED | SIG_PARAM) and not code & SIG_DEGREE_ONE:
                index = boundary_pivot if code & SIG_WIRED else gadget_pivot
                nbrs = adj[v]
                dv = len(nbrs)
                for u in nbrs:
                    pair = (u, v)
                    if pair in index:
                        index[pair] = (len(adj[u]) * dv, pair)
        unfiled.clear()

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


def _index_stage(index: str, rewrite: Callable,
                 filed_when_read: bool = False) -> Callable[[Rewriter], Optional[List[RewriteEvent]]]:
    """The stage that applies ``rewrite`` to the cheapest candidate of the
    Rewriter's costed index ``index``: a vertex, or a pair of vertices.  An
    index ``filed_when_read`` is brought up to date first."""
    def stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
        if filed_when_read:
            rw.file_pairs()
        pick = _cheapest(getattr(rw, index), rw.rng)
        if pick is None:
            return None
        match = pick if isinstance(pick, tuple) else (pick,)
        return rw.apply(match, rewrite, *match)
    return stage


_local_comp_stage = _index_stage("local_comp", local_complement_simp)
_pivot_stage = _index_stage("pivot", pivot_simp)
_gadget_pivot_stage = _index_stage("gadget_pivot", gadget_pivot, filed_when_read=True)
_boundary_pivot_stage = _index_stage("boundary_pivot", boundary_pivot, filed_when_read=True)


def _gadget_id_fuse_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    axis = _pick(rw.unary, rw.rng)
    if axis is None:
        return None
    g = rw.gadgets[axis]
    return rw.apply((g.axis_spider, g.phase_spider), gadget_id_fuse, g)


def _gadget_fusion_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    # groups are disjoint, so their smallest axes order them
    by_neighbourhood = rw.by_neighbourhood
    first = _pick([min(by_neighbourhood[n]) for n in rw.shared], rw.rng)
    if first is None:
        return None
    axes = sorted(by_neighbourhood[rw.gadgets[first].neighbourhood])
    g1, g2 = rw.gadgets[axes[0]], rw.gadgets[axes[1]]
    return rw.apply((g1.axis_spider, g1.phase_spider, g2.axis_spider, g2.phase_spider),
                    gadget_fusion, g1, g2)


def _scalar_removal_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    events = remove_scalar_spiders(rw.d)
    if not events:
        return None
    rw.recheck({v for ev in events for v in ev.removed})
    return events


def _hadamard_wired(rw: Rewriter) -> Set[int]:
    """The spiders with a Hadamard wire to one of the boundary nodes."""
    vertices, adj = rw.d._vertices, rw.d._adj
    return {s for b in rw.boundaries for s, kind in adj[b].items()
            if kind is _HADAMARD and vertices[s].kind is _SPIDER}


def _boundary_cleanup_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    b = _pick([b for b in _hadamard_wired(rw) if _needs_boundary_cleanup(rw.d, b)], rw.rng)
    return None if b is None else rw.apply((b,), _boundary_cleanup, b)


def _hadamard_wire_stage(rw: Rewriter) -> Optional[List[RewriteEvent]]:
    """Buffer the boundary wires of a spider with a Hadamard boundary wire
    (no event: the buffering is tensor-exact and moves no parameter)."""
    b = _pick(_hadamard_wired(rw), rw.rng)
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


def simplify(d: Diagram, seed: int = 0) -> Tuple[Diagram, List[RewriteEvent]]:
    """Run the full strategy to a fixpoint and return the terminal diagram.

    Rules are attempted in a fixed priority (local complementation, pivot,
    gadget pivot, boundary pivot, gadget fusion on one neighbour, gadget
    fusion, scalar removal, boundary decoration cleanup).  The first four
    take their cheapest candidate, a spider costing its degree and a pair
    the product of its degrees; to the others every candidate is as cheap.
    Seed 0 takes the smallest of the cheapest candidates, and a nonzero
    ``seed`` a seeded choice among them.  The order changes the events and the
    terminal diagram's ids, not its parameter count.  The terminal diagram
    satisfies the pseudo-normal form conditions checked by
    ``verify.terminal_violations``.
    Raises FixpointNotReached if the safety cap on the number of rewrites
    is hit.  ``d`` itself is left as it is.
    """
    return _simplify(d.copy(), seed)


def _simplify(d: Diagram, seed: int = 0) -> Tuple[Diagram, List[RewriteEvent]]:
    """``simplify`` rewriting ``d`` itself, for a caller that owns it."""
    limit = 1000 + 60 * (len(d.spiders()) + 2) ** 2
    return d, Rewriter(d, SIMPLIFY_STAGES, seed).run(limit)
