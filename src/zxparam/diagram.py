"""Graph-like parametrised ZX diagrams and conversion from raw spider networks.

A graph-like diagram has only Z-spiders, every spider-spider edge is a
Hadamard edge, the graph is simple, and boundary nodes have degree one.
Boundary edges may be plain or Hadamard; a Hadamard boundary edge encodes
the local Hadamard of the GSLC pseudo-normal form, while a boundary
spider's Clifford phase encodes its S-power.

Vertex ids are stable: an id removed by a rewrite is never reused, so
provenance tracking across rewrites can rely on identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import ConversionError, RepeatedParameter
from .params import CLIFFORD_PHASES, Phase


class EdgeKind(Enum):
    PLAIN = "plain"
    HADAMARD = "hadamard"


class VKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    SPIDER = "spider"


# Reading a member off an Enum class is a Python-level call on CPython 3.11
# (~150 ns); the kernels compare against these names.
_SPIDER, _HADAMARD = VKind.SPIDER, EdgeKind.HADAMARD
_ZERO = CLIFFORD_PHASES[0]


@dataclass
class Vertex:
    kind: VKind
    phase: Phase = field(default_factory=Phase)
    position: Optional[int] = None  # wire index, boundaries only

    @property
    def is_boundary(self) -> bool:
        return self.kind is not _SPIDER


class Diagram:
    """Mutable graph-like ZX diagram; its phases alone record which spider owns a parameter."""

    def __init__(self):
        self._vertices: Dict[int, Vertex] = {}
        self._adj: Dict[int, Dict[int, EdgeKind]] = {}
        self._boundary_count: Dict[int, int] = {}  # boundary neighbours per vertex
        self._next_id = 0

    # -- construction ---------------------------------------------------

    def _new_id(self) -> int:
        v = self._next_id
        self._next_id += 1
        return v

    def add_spider(self, phase: Phase = _ZERO) -> int:
        v = self._new_id()
        self._vertices[v] = Vertex(_SPIDER, phase)
        self._adj[v] = {}
        self._boundary_count[v] = 0
        return v

    def add_boundary(self, kind: VKind, position: int) -> int:
        if kind is _SPIDER:
            raise ValueError("boundary vertex must be INPUT or OUTPUT")
        v = self._new_id()
        self._vertices[v] = Vertex(kind, _ZERO, position)
        self._adj[v] = {}
        self._boundary_count[v] = 0
        return v

    def add_edge(self, a: int, b: int, kind: EdgeKind = EdgeKind.HADAMARD) -> None:
        if a == b:
            raise ValueError("self-loops are not allowed in a graph-like diagram")
        if b in self._adj[a]:
            raise ValueError(f"parallel edge {a}-{b}")
        self._adj[a][b] = kind
        self._adj[b][a] = kind
        if self._vertices[b].kind is not _SPIDER:
            self._boundary_count[a] += 1
        if self._vertices[a].kind is not _SPIDER:
            self._boundary_count[b] += 1

    # -- queries ---------------------------------------------------------

    def vertex(self, v: int) -> Vertex:
        return self._vertices[v]

    def vertices(self) -> Iterator[int]:
        return iter(self._vertices)

    def spiders(self) -> List[int]:
        spider = _SPIDER
        return [v for v, d in self._vertices.items() if d.kind is spider]

    def boundaries(self) -> List[int]:
        spider = _SPIDER
        return [v for v, d in self._vertices.items() if d.kind is not spider]

    def inputs(self) -> List[int]:
        ins = [v for v, d in self._vertices.items() if d.kind is VKind.INPUT]
        return sorted(ins, key=lambda v: self._vertices[v].position or 0)

    def outputs(self) -> List[int]:
        outs = [v for v, d in self._vertices.items() if d.kind is VKind.OUTPUT]
        return sorted(outs, key=lambda v: self._vertices[v].position or 0)

    def neighbors(self, v: int) -> List[int]:
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edge_kind(self, a: int, b: int) -> EdgeKind:
        return self._adj[a][b]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, {})

    def edges(self) -> Iterator[Tuple[int, int, EdgeKind]]:
        for a, nbrs in self._adj.items():
            for b, kind in nbrs.items():
                if a < b:
                    yield a, b, kind

    def phase(self, v: int) -> Phase:
        return self._vertices[v].phase

    def is_internal(self, v: int) -> bool:
        """A spider none of whose neighbours is a boundary node."""
        return self._vertices[v].kind is _SPIDER and not self._boundary_count[v]

    def is_boundary_spider(self, v: int) -> bool:
        return self._vertices[v].kind is _SPIDER and self._boundary_count[v] > 0

    def boundary_wires(self, v: int) -> List[int]:
        """Boundary nodes attached to spider ``v``."""
        if not self._boundary_count[v]:
            return []
        return [n for n in self._adj[v] if self._vertices[n].is_boundary]

    # -- mutation ---------------------------------------------------------

    def set_phase(self, v: int, phase: Phase) -> None:
        self._vertices[v].phase = phase

    def remove_edge(self, a: int, b: int) -> None:
        del self._adj[a][b]
        del self._adj[b][a]
        if self._vertices[b].kind is not _SPIDER:
            self._boundary_count[a] -= 1
        if self._vertices[a].kind is not _SPIDER:
            self._boundary_count[b] -= 1

    def complement(self, a: int, others: Iterable[int]) -> None:
        """Toggle the Hadamard edge between spider ``a`` and each spider of
        ``others``, in order.  Edges between two spiders never change a
        boundary-neighbour count, so only the adjacency maps are updated.
        The pivot and local-complementation kernels of ``rewrite`` call it."""
        adj = self._adj
        adj_a = adj[a]
        hadamard = _HADAMARD
        for b in others:
            if b in adj_a:
                del adj_a[b]
                del adj[b][a]
            else:
                adj_a[b] = hadamard
                adj[b][a] = hadamard

    def remove_vertex(self, v: int) -> None:
        """Remove ``v`` and its edges in one pass over its adjacency.  Only
        a boundary node's neighbours lose a boundary neighbour."""
        adj = self._adj
        data = self._vertices.pop(v)
        del self._boundary_count[v]
        if data.kind is _SPIDER:
            for n in adj.pop(v):
                del adj[n][v]
        else:
            boundary_count = self._boundary_count
            for n in adj.pop(v):
                del adj[n][v]
                boundary_count[n] -= 1

    def copy(self) -> "Diagram":
        d = Diagram()
        d._vertices = {v: Vertex(x.kind, x.phase, x.position) for v, x in self._vertices.items()}
        d._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        d._boundary_count = dict(self._boundary_count)
        d._next_id = self._next_id
        return d

    # -- structure helpers -------------------------------------------------

    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        comps = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                for n in self._adj[v]:
                    if n not in comp:
                        comp.add(n)
                        queue.append(n)
            seen |= comp
            comps.append(comp)
        return comps

    def param_exprs(self) -> Dict[int, Phase]:
        """Parametrised spiders and their phases, keyed by spider id."""
        return {v: data.phase for v, data in self._vertices.items()
                if data.kind is _SPIDER and data.phase.terms}

    @property
    def param_registry(self) -> Dict[str, int]:
        """Each parameter and the spider whose phase carries it."""
        return {name: v for v, phase in self.param_exprs().items() for name, _ in phase.terms}

    def __repr__(self) -> str:
        return (f"Diagram({len(self.spiders())} spiders, {len(self.boundaries())} boundaries, "
                f"{sum(1 for _ in self.edges())} edges, params {sorted(self.param_registry)})")


@dataclass(frozen=True)
class GadgetView:
    """A phase gadget: a 0/pi axis hub with a degree-1 phase carrier."""

    axis_spider: int
    phase_spider: int
    neighbourhood: FrozenSet[int]


def axis_parity(d: Diagram, g: GadgetView) -> int:
    """0 if the axis phase is 0, 1 if it is pi."""
    return d.phase(g.axis_spider).clifford // 2


def is_internal_pauli(d: Diagram, v: int) -> bool:
    """Is ``v`` an internal spider with no parameter and a 0 or pi phase?"""
    data = d._vertices.get(v)
    if data is None or data.kind is not _SPIDER or d._boundary_count[v]:
        return False
    ph = data.phase
    return not ph.terms and not ph.clifford & 1


def gadget_at(d: Diagram, v: int) -> Optional[GadgetView]:
    """The phase gadget whose axis is ``v``, or None.

    An axis is an internal spider with no parameter, a 0 or pi phase and
    exactly one degree-1 neighbour (the phase spider).  Hubs with several
    degree-1 plugs are left to the rewrite rules to resolve and are not
    gadgets.
    """
    if not is_internal_pauli(d, v):
        return None
    adj = d._adj
    legs = [n for n in adj[v] if len(adj[n]) == 1]  # v is internal: every neighbour is a spider
    if len(legs) != 1:
        return None
    leg = legs[0]
    return GadgetView(axis_spider=v, phase_spider=leg, neighbourhood=frozenset(adj[v].keys() - {leg}))


def find_gadgets(d: Diagram) -> List[GadgetView]:
    """All phase gadgets of ``d`` (see ``gadget_at``), sorted by axis id."""
    gadgets = (gadget_at(d, v) for v in sorted(d.spiders()))
    return [g for g in gadgets if g is not None]


def validate(d: Diagram) -> List[str]:
    """Every violated graph-like invariant; empty iff well-formed."""
    violations: List[str] = []
    vertices, adj, boundary_count = d._vertices, d._adj, d._boundary_count
    spider, hadamard = _SPIDER, _HADAMARD
    for a, nbrs in adj.items():
        if vertices[a].kind is spider:
            for b, kind in nbrs.items():
                if kind is not hadamard and a < b and vertices[b].kind is spider:
                    violations.append(f"plain spider-spider edge {a}-{b}")
    seen: Dict[str, int] = {}
    repeated: List[str] = []
    for v, data in vertices.items():
        nbrs = adj[v]
        if v in nbrs:
            violations.append(f"self-loop at vertex {v}")
        if data.kind is spider:
            for name, _ in data.phase.terms:
                if name in seen:
                    repeated.append(f"parameter {name!r} on spiders {seen[name]} and {v}")
                seen[name] = v
        else:
            if len(nbrs) != 1:
                violations.append(f"boundary node {v} has degree {len(nbrs)}")
            if data.phase.terms or data.phase.clifford:
                violations.append(f"boundary node {v} carries a phase")
        count = 0
        for n in nbrs:
            if vertices[n].kind is not spider:
                count += 1
        if boundary_count.get(v) != count:
            violations.append(f"vertex {v} has {count} boundary neighbours, recorded {boundary_count.get(v)}")
    violations.extend(repeated)
    return violations


# -- raw spider networks and the graph-like conversion -----------------------


class NKind(Enum):
    Z = "Z"
    X = "X"
    HBOX = "H"
    INPUT = "input"
    OUTPUT = "output"


class SpiderNetwork:
    """An arbitrary network of Z/X spiders, Hadamard boxes and boundary nodes.

    Wires form a multigraph and may connect any two nodes; each wire is plain
    or carries a Hadamard.  This is the raw form a diagram takes before
    conversion to a graph-like diagram.  A circuit translates into Z spiders
    and boundaries only (``circuits.circuit_to_network``); H-boxes and X
    spiders serve general networks and the X-spider inputs of a state.
    """

    def __init__(self):
        self.kinds: Dict[int, NKind] = {}
        self.phases: Dict[int, Phase] = {}
        self.positions: Dict[int, int] = {}
        self.edges: List[Tuple[int, int, bool]] = []  # (node, node, Hadamard)
        self._next = 0

    def node(self, kind: NKind, phase: Phase = Phase(), position: int | None = None) -> int:
        v = self._next
        self._next += 1
        self.kinds[v] = kind
        self.phases[v] = phase
        if position is not None:
            self.positions[v] = position
        return v

    def wire(self, a: int, b: int, hadamard: bool = False) -> None:
        self.edges.append((a, b, hadamard))


def to_graph_like(raw: SpiderNetwork) -> Diagram:
    """Convert an arbitrary spider network into a graph-like diagram that is
    tensor-equal to it up to a nonzero constant scalar.

    Each H-box is absorbed into the wire that joins its two neighbours, and
    colour change turns X-spiders into Z-spiders by flipping the Hadamard
    parity of every wire with one X end.  Z-spiders joined by plain wires
    merge in a union-find, in the order the wires were added, each merge
    keeping the root of the wire's first end; a class takes the sum of its
    phases, and the surviving nodes are numbered in network order.  One pass over the wires, in order,
    then fills the adjacency maps: a Hadamard wire toggles its edge, so that
    parallel ones cancel in pairs and an odd survivor sits where the last
    was added; a plain wire is kept once, where it was added; a Hadamard
    self-loop adds pi and a plain one vanishes; a wire between two boundary
    nodes is kept as it is.

    Raises RepeatedParameter if one parameter id occurs on two spiders, and
    ConversionError if the network has no graph-like form (an H-box without
    exactly two wires or with a self-loop, or boundary wires that do not
    resolve).
    """
    seen_params: Dict[str, int] = {}
    for v, ph in raw.phases.items():
        for name, _ in ph.terms:
            if name in seen_params:
                raise RepeatedParameter(f"parameter {name!r} occurs on nodes {seen_params[name]} and {v}")
            seen_params[name] = v

    kinds = dict(raw.kinds)
    # (node, node, Hadamard parity) in the order the wires were added; an
    # absorbed H-box leaves None and appends its replacement wire.
    edges: List[Optional[Tuple[int, int, int]]] = list(raw.edges)
    z_kind, x_kind, hbox_kind = NKind.Z, NKind.X, NKind.HBOX  # an Enum member read is slow on 3.11
    hboxes = [v for v, kind in kinds.items() if kind is hbox_kind]
    if hboxes:
        incident: Dict[int, List[int]] = {v: [] for v in hboxes}  # edge indices, a self-loop once

        def attach(i: int, a: int, b: int) -> None:
            if a in incident:
                incident[a].append(i)
            if b != a and b in incident:
                incident[b].append(i)

        for i, (a, b, _) in enumerate(raw.edges):
            attach(i, a, b)

        for v in hboxes:
            live = [i for i in incident.pop(v) if edges[i] is not None]
            if len(live) != 2:
                raise ConversionError(f"Hadamard box {v} must have exactly 2 wires, has {len(live)}")
            e1, e2 = edges[live[0]], edges[live[1]]
            edges[live[0]] = edges[live[1]] = None
            a, b = e1[0] if e1[1] == v else e1[1], e2[0] if e2[1] == v else e2[1]
            if v in (a, b):
                raise ConversionError(f"Hadamard box {v} has a self-loop")
            attach(len(edges), a, b)
            edges.append((a, b, (e1[2] + e2[2] + 1) % 2))
            del kinds[v]

    if x_kind in kinds.values():
        for i, e in enumerate(edges):
            if e is not None and (kinds.get(e[0]) is x_kind) is not (kinds.get(e[1]) is x_kind):
                edges[i] = (e[0], e[1], not e[2])
        kinds = {v: z_kind if kind is x_kind else kind for v, kind in kinds.items()}

    parent: Dict[int, int] = {}  # a merged spider that is not its class's root -> a spider of its class

    def find(v: int) -> int:
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    for e in edges:
        if e is not None and not e[2] and kinds.get(e[0]) is z_kind and kinds.get(e[1]) is z_kind:
            a, b = find(e[0]), find(e[1])
            if a != b:
                parent[b] = a

    # The diagram is written directly, as add_spider, add_boundary and
    # add_edge would build it; validate checks the result.
    d = Diagram()
    vertices, adj = d._vertices, d._adj
    new: Dict[int, int] = {}  # network node -> diagram vertex
    for v, kind in kinds.items():
        if v in parent:
            continue
        n = new[v] = len(adj)
        adj[n] = {}
        if kind is z_kind:
            vertices[n] = Vertex(_SPIDER, raw.phases[v])
        else:
            boundary = VKind.INPUT if kind is NKind.INPUT else VKind.OUTPUT
            vertices[n] = Vertex(boundary, _ZERO, raw.positions.get(v, 0))
    d._next_id = len(adj)
    for v in parent:
        n = new[v] = new[find(v)]
        vertices[n].phase += raw.phases[v]

    # An edge's state while the wires are read: bit 1 is the parity of its
    # Hadamard wires, bit 2 is set once a plain wire joins the same two
    # vertices.  Plain wires join two spiders only inside a class, so an edge
    # can end with both bits set only at a boundary, where it does not resolve.
    for e in edges:
        if e is None:
            continue
        a, b = new[e[0]], new[e[1]]
        if a == b:
            vertex = vertices[a]
            if vertex.kind is not _SPIDER:
                raise ConversionError(f"unresolved self-loop {a}-{b}")
            if e[2]:
                vertex.phase = vertex.phase.add_clifford(2)
            continue
        adj_a, adj_b = adj[a], adj[b]
        state = adj_a.get(b, 0)
        if state and vertices[a].kind is not _SPIDER and vertices[b].kind is not _SPIDER:
            raise ConversionError(f"unresolved parallel edge {a}-{b}")
        if e[2]:
            state ^= 1
            if not state:
                del adj_a[b], adj_b[a]
                continue
        elif state < 2:  # the first plain wire places the edge
            if state:
                del adj_a[b], adj_b[a]
            state |= 2
        else:
            continue
        adj_a[b] = adj_b[a] = state

    boundary_count = d._boundary_count = dict.fromkeys(adj, 0)
    for v in d.boundaries():
        for n, state in adj[v].items():
            if state == 3:
                raise ConversionError(f"unresolved parallel edge {min(v, n)}-{max(v, n)}")
            boundary_count[n] += 1
    edge_kinds = (None, EdgeKind.HADAMARD, EdgeKind.PLAIN)  # by state
    for v, nbrs in adj.items():
        adj[v] = {n: edge_kinds[state] for n, state in nbrs.items()}

    violations = validate(d)
    if violations:
        raise ConversionError("conversion produced an invalid diagram: " + "; ".join(violations))
    return d
