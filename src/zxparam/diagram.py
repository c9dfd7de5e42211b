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
    """Convert an arbitrary spider network into a graph-like diagram.

    Colour change turns X-spiders into Z-spiders with toggled edges, Hadamard
    boxes become edge toggles, plain edges between spiders are fused away,
    self-loops and parallel edges resolve by the standard mod-2 edge algebra
    (a Hadamard self-loop leaves a pi phase, parallel Hadamard edges cancel).
    The result is tensor-equal to the input up to a nonzero constant scalar.

    One pass over the wires: each H-box and X node keeps the list of its
    incident wires for H-box absorption and colour change (a network of Z
    spiders and boundaries skips both), Z-spiders joined by plain wires
    merge in a union-find (the class phase is the sum of its members), and
    the Hadamard wires between two classes reduce to their parity.  Plain
    wires merge in the order they were added and the class keeps the id of
    the first endpoint, so vertex ids follow the order of the network.

    Raises RepeatedParameter if one parameter id occurs on two spiders, and
    ConversionError if the network has no graph-like form (an H-box without
    exactly two wires, or boundary wires that do not resolve).
    """
    seen_params: Dict[str, int] = {}
    for v, ph in raw.phases.items():
        for name, _ in ph.terms:
            if name in seen_params:
                raise RepeatedParameter(f"parameter {name!r} occurs on nodes {seen_params[name]} and {v}")
            seen_params[name] = v

    kinds = dict(raw.kinds)
    phases = dict(raw.phases)
    # (node, node, Hadamard parity) in the order the wires were added; an
    # absorbed H-box leaves None and appends its replacement wire.
    edges: List[Optional[Tuple[int, int, int]]] = list(raw.edges)
    z_kind, x_kind, hbox_kind = NKind.Z, NKind.X, NKind.HBOX  # an Enum member read is slow on 3.11
    special = [v for v, kind in kinds.items() if kind is hbox_kind or kind is x_kind]
    if special:
        incident: Dict[int, List[int]] = {v: [] for v in special}  # edge indices, a self-loop once

        def attach(i: int, a: int, b: int) -> None:
            if a in incident:
                incident[a].append(i)
            if b != a and b in incident:
                incident[b].append(i)

        for i, (a, b, _) in enumerate(raw.edges):
            attach(i, a, b)

        for v in special:
            if kinds[v] is not hbox_kind:
                continue
            live = [i for i in incident.pop(v) if edges[i] is not None]
            if len(live) != 2:
                raise ConversionError(f"Hadamard box {v} must have exactly 2 wires, has {len(live)}")
            e1, e2 = edges[live[0]], edges[live[1]]
            edges[live[0]] = edges[live[1]] = None
            a, b = e1[0] if e1[1] == v else e1[1], e2[0] if e2[1] == v else e2[1]
            attach(len(edges), a, b)
            edges.append((a, b, (e1[2] + e2[2] + 1) % 2))
            del kinds[v]
            del phases[v]

        for v in special:
            if kinds.get(v) is x_kind:
                for i in incident[v]:
                    e = edges[i]
                    if e is not None:
                        # a self-loop toggles twice
                        edges[i] = (e[0], e[1], e[2] ^ (e[0] == v) ^ (e[1] == v))
                kinds[v] = z_kind

    parent = {v: v for v, kind in kinds.items() if kind is z_kind}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for e in edges:
        if e is not None and e[2] == 0 and e[0] in parent and e[1] in parent:
            a, b = find(e[0]), find(e[1])
            if a != b:
                parent[b] = a
    rep: Dict[int, int] = {}  # Z node -> the representative of its class
    for v in parent:
        root = rep[v] = find(v)
        if root != v:
            phases[root] = phases[root] + phases[v]

    # Resolve wires between classes: a Hadamard self-loop adds pi, a plain
    # self-loop or a repeated plain wire vanishes, Hadamard wires between the
    # same two nodes cancel in pairs (the last one is kept when their count
    # is odd).  Wires between two boundary nodes are left as they are.
    resolved: List[Tuple[int, int, int]] = []  # (edge index, node, node)
    last_hadamard: Dict[Tuple[int, int], int] = {}
    hadamard_parity: Dict[Tuple[int, int], int] = {}
    plain_seen: Set[Tuple[int, int]] = set()
    for i, e in enumerate(edges):
        if e is None:
            continue
        a, b = rep.get(e[0], e[0]), rep.get(e[1], e[1])
        if a not in rep and b not in rep:
            resolved.append((i, a, b))
            continue
        if a == b:
            if e[2]:
                phases[a] = phases[a].add_clifford(2)
            continue
        pair = (a, b) if a < b else (b, a)
        if e[2]:
            last_hadamard[pair] = i
            hadamard_parity[pair] = hadamard_parity.get(pair, 0) ^ 1
        elif pair not in plain_seen:
            plain_seen.add(pair)
            resolved.append((i, a, b))
    for pair, i in last_hadamard.items():
        if hadamard_parity[pair]:
            resolved.append((i, *pair))
    resolved.sort()

    # The diagram is written directly, as add_spider, add_boundary and
    # add_edge would build it; validate checks the result.
    d = Diagram()
    vertices, adj = d._vertices, d._adj
    id_map: Dict[int, int] = {}
    boundaries: List[int] = []
    input_kind, output_kind = NKind.INPUT, NKind.OUTPUT
    for v, kind in kinds.items():
        new = len(id_map)
        if kind is z_kind:
            if rep[v] != v:
                continue
            vertices[new] = Vertex(_SPIDER, phases[v])
        elif kind is input_kind:
            vertices[new] = Vertex(VKind.INPUT, _ZERO, raw.positions.get(v, 0))
            boundaries.append(new)
        elif kind is output_kind:
            vertices[new] = Vertex(VKind.OUTPUT, _ZERO, raw.positions.get(v, 0))
            boundaries.append(new)
        else:
            raise ConversionError(f"unresolved node kind {kind}")
        id_map[v] = new
        adj[new] = {}
    d._next_id = len(id_map)
    edge_kinds = (EdgeKind.PLAIN, EdgeKind.HADAMARD)  # by parity
    for i, a, b in resolved:
        da, db = id_map[a], id_map[b]
        adj_a = adj[da]
        if da == db or db in adj_a:
            raise ConversionError(f"unresolved {'self-loop' if da == db else 'parallel edge'} {da}-{db}")
        adj_a[db] = adj[db][da] = edge_kinds[edges[i][2]]
    boundary_count = d._boundary_count = dict.fromkeys(adj, 0)
    for b in boundaries:
        for n in adj[b]:
            boundary_count[n] += 1

    violations = validate(d)
    if violations:
        raise ConversionError("conversion produced an invalid diagram: " + "; ".join(violations))
    return d
