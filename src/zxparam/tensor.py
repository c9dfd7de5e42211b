"""Exact tensor evaluation of diagrams and proportionality checking.

The contraction uses the plain Z-spider semantics: a spider of degree d
with phase a denotes the tensor with 1 at (0,...,0), e^{ia} at (1,...,1)
and 0 elsewhere; a Hadamard edge inserts the 2x2 Hadamard matrix.  These
evaluators are the independent oracle the rewrite engine is tested against,
so they deliberately share no code with the rewrite rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from .diagram import Diagram, EdgeKind, VKind
from .errors import MissingAssignment, TooLarge

if TYPE_CHECKING:
    import numpy as np

MAX_OPEN_WIRES = 12


@dataclass
class TensorState:
    """Dense amplitudes over the diagram's open wires.

    ``wire_order`` lists boundary ids; the first wire is the most
    significant bit of the amplitude index.
    """

    amplitudes: np.ndarray
    wire_order: Tuple[int, ...]


class _Node:
    __slots__ = ("tensor", "legs")

    def __init__(self, tensor: np.ndarray, legs: List[object]):
        self.tensor = tensor
        self.legs = legs


def _spider_tensor(degree: int, angle: float) -> np.ndarray:
    import numpy as np

    if degree == 0:
        return np.array(1.0 + np.exp(1j * angle))
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = np.exp(1j * angle)
    return t


def _contract_pair(a: _Node, b: _Node) -> _Node:
    import numpy as np

    shared = [leg for leg in a.legs if leg in b.legs]
    ax_a = [a.legs.index(leg) for leg in shared]
    ax_b = [b.legs.index(leg) for leg in shared]
    tensor = np.tensordot(a.tensor, b.tensor, axes=(ax_a, ax_b))
    legs = [leg for leg in a.legs if leg not in shared] + [leg for leg in b.legs if leg not in shared]
    return _Node(tensor, legs)


def _contract_network(nodes: List[_Node]) -> _Node:
    """Greedy pairwise contraction, smallest intermediate first."""
    import numpy as np

    nodes = list(nodes)
    while len(nodes) > 1:
        best = None
        best_cost = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                shared = sum(1 for leg in nodes[i].legs if leg in nodes[j].legs)
                if shared == 0:
                    continue
                cost = nodes[i].tensor.ndim + nodes[j].tensor.ndim - 2 * shared
                if best_cost is None or cost < best_cost:
                    best, best_cost = (i, j), cost
        if best is None:
            # disconnected components: multiply the scalar-most pair
            nodes.sort(key=lambda n: n.tensor.ndim)
            a, b = nodes[0], nodes[1]
            tensor = np.tensordot(a.tensor, b.tensor, axes=0)
            merged = _Node(tensor, a.legs + b.legs)
            nodes = [merged] + nodes[2:]
            continue
        i, j = best
        merged = _contract_pair(nodes[i], nodes[j])
        if merged.tensor.ndim > 26:
            raise TooLarge(f"intermediate tensor of rank {merged.tensor.ndim}")
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)] + [merged]
    return nodes[0]


def tensor_eval(d: Diagram, assignment: Mapping[str, float] | None = None) -> TensorState:
    """Contract ``d`` exactly at a concrete parameter assignment.

    Wire order is all inputs (by position) followed by all outputs (by
    position).  The result carries the definite scalar of this contraction;
    diagram rewrites only promise proportional results.
    """
    import numpy as np

    assignment = dict(assignment or {})
    missing = [p for p in d.param_registry if p not in assignment]
    if missing:
        raise MissingAssignment(f"no value for parameters {sorted(missing)}")
    wire_order = tuple(d.inputs() + d.outputs())
    if len(wire_order) > MAX_OPEN_WIRES:
        raise TooLarge(f"{len(wire_order)} open wires exceeds limit {MAX_OPEN_WIRES}")

    nodes: List[_Node] = []
    open_legs: Dict[int, object] = {}

    edge_leg = {}
    for a, b, kind in d.edges():
        edge_leg[(a, b)] = ("e", a, b)

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for a, b, kind in d.edges():
        if kind is EdgeKind.HADAMARD:
            mid = ("h", a, b)
            nodes.append(_Node(hadamard.copy(), [("e", a, b), mid]))
            edge_leg[(a, b)] = ("e", a, b)  # spider a side keeps original leg
            # record that b's side attaches to mid
            edge_leg[(b, a)] = mid

    def side_leg(v: int, other: int):
        if (v, other) in edge_leg:
            return edge_leg[(v, other)]
        return edge_leg[(other, v)]

    for v in d.vertices():
        data = d.vertex(v)
        nbrs = d.neighbors(v)
        legs = [side_leg(v, n) for n in nbrs]
        if data.kind is VKind.SPIDER:
            angle = data.phase.angle(assignment)
            nodes.append(_Node(_spider_tensor(len(legs), angle), legs))
        else:
            # boundary node: its single edge leg is the open wire
            if len(legs) != 1:
                raise ValueError(f"boundary node {v} has degree {len(legs)}")
            open_legs[v] = legs[0]

    if not nodes:
        # bare wires only: identity-like network of boundary pairs
        nodes.append(_Node(np.array(1.0 + 0j), []))

    # identity node for each open leg so open legs survive contraction
    for v, leg in open_legs.items():
        nodes.append(_Node(np.eye(2, dtype=complex), [leg, ("open", v)]))

    result = _contract_network(nodes)
    order = [result.legs.index(("open", v)) for v in wire_order]
    tensor = np.transpose(result.tensor, order) if order else result.tensor
    return TensorState(np.ascontiguousarray(tensor).reshape(-1), wire_order)


@dataclass
class ProportionalityReport:
    holds: bool
    ratios: List[complex]
    max_deviation: float
    deviations: List[float] = field(default_factory=list)  # per sample, same order as ratios


# magnitudes within this relative distance of the largest count as tied with it
TIE_RTOL = 1e-12


def proportionality_ratio(t1: np.ndarray, t2: np.ndarray, tol: float):
    """Is ``t1 = lam * t2`` for a nonzero ``lam``?  Returns (holds, lam, deviation).

    Given two (S, N) stacks, each row of ``t1`` is compared with the same row
    of ``t2`` and the three results are length-S arrays; a vector is the
    one-row stack and gives scalars.  ``lam`` is read at the first entry of
    ``t2`` whose magnitude is within TIE_RTOL of the largest, so rounding
    noise between tied magnitudes does not move it.  It is
    ``a conj(b) / |b|^2`` in real arithmetic, which is exactly 1 (or -1, i,
    -i) when ``a = b`` (or ``-b``, ``ib``, ``-ib``); numpy's complex division
    is not, and ``x / x`` would leave a deviation of order 1e-17 between
    identical evaluations."""
    import numpy as np

    single = np.ndim(t1) == 1
    t1, t2 = np.atleast_2d(t1), np.atleast_2d(t2)
    rows = np.arange(len(t1))
    mag2 = np.abs(t2)
    n1 = np.abs(t1).max(axis=1)
    n2 = mag2.max(axis=1)
    idx = np.argmax(mag2 >= (n2 * (1 - TIE_RTOL))[:, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = t1[rows, idx], t2[rows, idx]
        a_re, a_im = a.real / n2, a.imag / n2  # |b| ~ 1: no underflow
        b_re, b_im = b.real / n2, b.imag / n2
        norm = b_re * b_re + b_im * b_im
        lam = np.empty(len(t1), dtype=complex)
        lam.real = (a_re * b_re + a_im * b_im) / norm
        lam.imag = (a_im * b_re - a_re * b_im) / norm
        deviation = np.abs(t1 - lam[:, None] * t2).max(axis=1) / np.maximum(n1, np.abs(lam) * n2)
    empty = (n1 == 0) | (n2 == 0)
    both = (n1 == 0) & (n2 == 0)
    lam[empty] = 0
    lam[both] = 1
    deviation[empty | (lam == 0)] = 1.0
    deviation[both] = 0.0
    holds = (deviation <= tol) & (lam != 0)
    holds[both] = True
    if single:
        return bool(holds[0]), complex(lam[0]), float(deviation[0])
    return holds, lam, deviation
