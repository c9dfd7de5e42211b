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
from .params import Phase


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
    if v not in d._vertices or d.vertex(v).kind is not VKind.SPIDER:
        return False
    ph = d.phase(v)
    return d.is_internal(v) and ph.is_pauli()


def _degree_one_plugs(d: Diagram, v: int) -> List[int]:
    return [n for n in d.neighbors(v)
            if d.degree(n) == 1 and d.vertex(n).kind is VKind.SPIDER]


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
    k = d.phase(v).clifford
    nbrs = sorted(d.neighbors(v))
    d.remove_vertex(v)
    for i, a in enumerate(nbrs):
        d.add_to_phase(a, -k)
        d.complement(a, nbrs[i + 1:])
    return tuple(nbrs)


# -- pivot family -------------------------------------------------------------

def _pivot_core(d: Diagram, u: int, v: int) -> Tuple[int, ...]:
    """Remove the adjacent Pauli pair (u, v); complement edges between the
    three neighbourhood classes and propagate the pi phases."""
    pu, pv = d.phase(u).clifford, d.phase(v).clifford
    nu = set(d.neighbors(u)) - {v}
    nv = set(d.neighbors(v)) - {u}
    common = nu & nv
    only_u = nu - common
    only_v = nv - common
    d.remove_vertex(u)
    d.remove_vertex(v)
    for a in only_u:
        d.complement(a, only_v)
        d.complement(a, common)
    for a in only_v:
        d.complement(a, common)
    for w in only_u:
        d.add_to_phase(w, pv)
    for w in only_v:
        d.add_to_phase(w, pu)
    for w in common:
        d.add_to_phase(w, 2 + pu + pv)
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
        z = d.add_spider(Phase())
        d.add_edge(b, z, EdgeKind.HADAMARD)
        d.add_edge(z, o, EdgeKind.HADAMARD if kind is EdgeKind.PLAIN else EdgeKind.PLAIN)
        added.append(z)
    return added


def _extract_phase_to_gadget(d: Diagram, w: int) -> Tuple[int, int]:
    """Unfuse the phase of ``w`` onto a fresh degree-1 spider behind a fresh
    phase-0 hub; tensor-exact.  Returns (hub, phase spider)."""
    phase = d.phase(w)
    d.set_phase(w, Phase())
    hub = d.add_spider(Phase())
    leaf = d.add_spider(phase)
    d.add_edge(w, hub, EdgeKind.HADAMARD)
    d.add_edge(hub, leaf, EdgeKind.HADAMARD)
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
    are every vertex whose phase, degree or adjacency changed.  The gadget
    and gadget/boundary pivot candidates of a vertex also read its
    neighbours' degree class (0, 1, more), boundary adjacency and parameter.
    The driver keeps these three as a signature per vertex; when a
    re-checked vertex's signature changed, its internal 0/pi neighbours are
    re-checked too.
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
        self._pivot_partners: Dict[int, Set[int]] = {}
        self._pairs_at: Dict[int, Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = {}
        self._signatures: Dict[int, Optional[Tuple[int, bool, bool]]] = {}  # None for boundary nodes
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
        local_comp, pauli, hadamard_wired = self.local_comp, self.pauli, self.hadamard_wired
        signatures = self._signatures
        spider, hadamard = VKind.SPIDER, EdgeKind.HADAMARD
        around: Set[int] = set()
        for v in changed:
            data = vertices.get(v)
            if data is None or data.kind is not spider:
                local_comp.discard(v)
                pauli.discard(v)
                hadamard_wired.discard(v)
                if data is None:
                    signatures.pop(v, None)
                    continue
                signature = None
            else:
                nbrs = adj[v]
                wired = boundary_count[v] > 0
                terms = data.phase.terms
                if wired:
                    local_comp.discard(v)
                    pauli.discard(v)
                    for n, kind in nbrs.items():
                        if kind is hadamard and vertices[n].kind is not spider:
                            hadamard_wired.add(v)
                            break
                    else:
                        hadamard_wired.discard(v)
                else:
                    hadamard_wired.discard(v)
                    if terms:
                        local_comp.discard(v)
                        pauli.discard(v)
                    elif data.phase.clifford & 1:
                        local_comp.add(v)
                        pauli.discard(v)
                    else:
                        pauli.add(v)
                        local_comp.discard(v)
                # what the candidates of a neighbour read off v
                degree = len(nbrs)
                signature = (degree if degree < 2 else 2, wired, bool(terms))
            if signatures.get(v, "new") != signature:
                signatures[v] = signature
                around.update(adj[v])
        partners_of, pairs_at, gadgets = self._pivot_partners, self._pairs_at, self.gadgets
        for v in changed:
            if v in pauli or v in partners_of or v in pairs_at or v in gadgets:
                self._recheck_at(v)
        around.difference_update(changed)
        for u in around & pauli:
            self._recheck_at(u)

    def _recheck_at(self, u: int) -> None:
        """The candidates anchored at ``u``: its pivot pairs, the gadget with
        axis ``u`` and its gadget/boundary pivots.  All of them need ``u`` to
        be an internal 0/pi spider; one walk over its neighbours finds them."""
        partners_of = self._pivot_partners
        for p in partners_of.pop(u, ()):
            self.pivot.discard((u, p) if u < p else (p, u))
            partners_of[p].discard(u)
        old_pairs = self._pairs_at.pop(u, None)
        if old_pairs is not None:
            self.gadget_pivot.difference_update(old_pairs[0])
            self.boundary_pivot.difference_update(old_pairs[1])
        old = self.gadgets.pop(u, None)
        if old is not None:
            axes = self.by_neighbourhood[old.neighbourhood]
            axes.discard(u)
            if len(axes) < 2:
                self.shared.discard(old.neighbourhood)
                if not axes:
                    del self.by_neighbourhood[old.neighbourhood]
            self.unary.discard(u)
        pauli = self.pauli
        if u not in pauli:
            return
        d = self.d
        vertices, adj, boundary_count = d._vertices, d._adj, d._boundary_count
        partners: Set[int] = set()
        legs: List[int] = []
        gadget_pairs: List[Tuple[int, int]] = []
        boundary_pairs: List[Tuple[int, int]] = []
        for w in adj[u]:  # u is internal, so every neighbour is a spider
            if w in pauli:
                partners.add(w)
            if len(adj[w]) == 1:
                legs.append(w)
            elif boundary_count[w]:
                boundary_pairs.append((u, w))
            elif vertices[w].phase.terms:
                gadget_pairs.append((u, w))
        if partners:
            partners_of[u] = partners
            for p in partners:
                self.pivot.add((u, p) if u < p else (p, u))
                partners_of.setdefault(p, set()).add(u)
        if len(legs) == 1:
            g = GadgetView(u, legs[0], frozenset(n for n in adj[u] if n != legs[0]))
            self.gadgets[u] = g
            axes = self.by_neighbourhood.setdefault(g.neighbourhood, set())
            axes.add(u)
            if len(axes) >= 2:
                self.shared.add(g.neighbourhood)
            if len(g.neighbourhood) == 1:
                self.unary.add(u)
        elif gadget_pairs or boundary_pairs:
            self._pairs_at[u] = (gadget_pairs, boundary_pairs)
            self.gadget_pivot.update(gadget_pairs)
            self.boundary_pivot.update(boundary_pairs)


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
    is hit.
    """
    d = d.copy()
    limit = 1000 + 60 * (len(d.spiders()) + 2) ** 2
    return d, Rewriter(d, SIMPLIFY_STAGES, seed).run(limit)
