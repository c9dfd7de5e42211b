"""Test-only references and generators: the dict form of the sample points,
the reference evaluation of a reduction map, dense flattenings and
reconstructions, state diagrams of circuits, and random graph-like states
with phase gadgets for the rule tests."""

from __future__ import annotations

import itertools
from random import Random
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from zxparam.circuits import Circuit, circuit_to_network
from zxparam.diagram import Diagram, EdgeKind, NKind, VKind, to_graph_like, validate
from zxparam.errors import ZXParamError
from zxparam.params import HALF_PI, Phase
from zxparam.reduction import ReductionMap
from zxparam.tensor import ProportionalityReport, TensorState, proportionality_ratio
from zxparam.verify import APForm, sample_array


# -- circuits and tensors ------------------------------------------------------

def circuit_state_diagram(c: Circuit) -> Diagram:
    """Graph-like diagram of the state  c |0...0> ; a phase-0 X-spider per
    qubit replaces the input wires."""
    net = circuit_to_network(c)
    for v, kind in list(net.kinds.items()):
        if kind is NKind.INPUT:
            net.kinds[v] = NKind.X
            net.positions.pop(v, None)
    return to_graph_like(net)


def flatten_unitary(u: np.ndarray, n: int) -> np.ndarray:
    """Flatten ⟨o|U|i⟩ to the tensor_eval wire convention (inputs then outputs)."""
    arr = u.reshape((2,) * (2 * n))
    arr = np.transpose(arr, list(range(n, 2 * n)) + list(range(n)))
    return np.ascontiguousarray(arr).reshape(-1)


class ShapeMismatch(ZXParamError):
    """Tensor states with different wire counts cannot be compared."""


def check_proportional(t1: TensorState, t2: TensorState, tol: float = 1e-9) -> ProportionalityReport:
    """Proportionality of two tensor states up to one nonzero scalar."""
    if len(t1.wire_order) != len(t2.wire_order):
        raise ShapeMismatch(f"wire counts differ: {len(t1.wire_order)} vs {len(t2.wire_order)}")
    holds, lam, dev = proportionality_ratio(t1.amplitudes, t2.amplitudes, tol)
    return ProportionalityReport(holds=holds, ratios=[lam], max_deviation=dev, deviations=[dev])


def ap_state(form: APForm) -> np.ndarray:
    """Dense reconstruction of an AP form; first qubit is the most
    significant bit."""
    n = form.n_qubits
    amplitudes = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        x = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        mask = sum(x_j << j for j, x_j in enumerate(x))  # bit j is x_j, as in the rows
        if any((row & mask).bit_count() & 1 != b for row, b in form.rows):
            continue
        phase = sum(form.linear_phase[j] * x[j] for j in range(n)) % 4
        sign = sum(x[i] * x[j] for i, j in form.quadratic_pairs) % 2
        amplitudes[idx] = (1j ** phase) * ((-1) ** sign)
    return amplitudes


# -- sample points and reduction maps ------------------------------------------

def structured_samples(params: Sequence[str], n_random: int, seed: int = 0) -> List[Dict[str, float]]:
    """The rows of ``verify.sample_array`` as one dict per sample, keyed by ``params``."""
    return [dict(zip(params, row)) for row in sample_array(len(params), n_random, seed).tolist()]


def apply_reduction(reduction: ReductionMap, assignment: Mapping[str, float]) -> Dict[str, float]:
    """The new parameters at original parameter values (radians), one at a
    time: each row adds its terms in row order, then ``const·π/2``.  The
    reference that ``ReductionMap.apply_array`` equals bit for bit."""
    out = {}
    for name, terms, const in zip(reduction.new_param_names, reduction.rows, reduction.constants):
        total = 0.0
        for p, sign in terms:
            total += sign * assignment[p]
        out[name] = total + const * HALF_PI
    return out


def p_matrix(reduction: ReductionMap) -> np.ndarray:
    """The map's matrix P: one row per new parameter, one column per
    original one, entries in {-1, 0, 1}."""
    column = {p: j for j, p in enumerate(reduction.params_in)}
    m = np.zeros((len(reduction.rows), len(reduction.params_in)), dtype=int)
    for i, terms in enumerate(reduction.rows):
        for param, sign in terms:
            m[i, column[param]] = sign
    return m


# -- random diagrams -----------------------------------------------------------

def random_graph_like_state(rng: Random, n_outputs: int, n_internal: int,
                            n_params: int, edge_p: float = 0.5) -> Diagram:
    """A random graph-like state: boundary spiders on every output wire plus
    internal spiders, random Hadamard edges, Clifford phases and parameters
    sprinkled on internal spiders."""
    d = Diagram()
    boundary_spiders = []
    internal = []
    for q in range(n_outputs):
        out = d.add_boundary(VKind.OUTPUT, q)
        s = d.add_spider(Phase(rng.randrange(4)))
        d.add_edge(s, out, EdgeKind.PLAIN)
        boundary_spiders.append(s)
    for _ in range(n_internal):
        internal.append(d.add_spider(Phase(rng.randrange(4))))
    spiders = boundary_spiders + internal
    for a, b in itertools.combinations(spiders, 2):
        if rng.random() < edge_p:
            d.add_edge(a, b, EdgeKind.HADAMARD)
    # keep internal spiders connected so scalar components are rare
    for v in internal:
        if d.degree(v) == 0 and spiders != [v]:
            other = rng.choice([s for s in spiders if s != v])
            d.add_edge(v, other, EdgeKind.HADAMARD)
    targets = rng.sample(internal, min(n_params, len(internal))) if internal else []
    for i, v in enumerate(targets):
        d.set_phase(v, Phase(rng.randrange(4), ((f"t{i}", 1),)))
    assert validate(d) == []
    return d


def attach_gadget(rng: Random, d: Diagram, neighbourhood: List[int], parity: int,
                  phase: Phase) -> Tuple[int, int]:
    """Attach a phase gadget with the given axis parity over ``neighbourhood``
    and ``phase`` on its leaf."""
    axis = d.add_spider(Phase(2 * parity))
    leaf = d.add_spider(phase)
    d.add_edge(axis, leaf, EdgeKind.HADAMARD)
    for w in neighbourhood:
        d.add_edge(axis, w, EdgeKind.HADAMARD)
    return axis, leaf
