"""Independent oracles: finite-value reduction checking, AP forms, the
terminal-form check, the weight-two stabiliser certificate, the optimality
certificate, and a brute-force minimal-parameter-count search.

Everything here answers "is the optimiser right?" without reusing the
optimiser's code paths: circuits are evaluated by the gate-by-gate
simulator ``circuit_unitary``, stabiliser facts are read off the graph
directly, and the brute force enumerates all in-place parsimonious maps.

Circuits are compared at the sample points on one seeded random input,
``probe_state``, rather than as 2^n x 2^n matrices: the images of the probe
are proportional exactly when the unitaries are, almost surely, and cost
O(g 2^n) instead of O(g 4^n).  The sample points are one (S, k) angle array,
``sample_array``, in parameter order (``structured_samples`` is its rows as
dicts); ``ReductionMap.apply_array`` maps it onto the optimised circuit's
parameters, and ``circuit_unitary`` reads its phases off the columns.  The
images are computed as stacks of as many samples as fit in BLOCK_BYTES (at
least one), one pass over the gates per stack, and ``proportionality_ratio``
compares a whole stack in one call; ``brute_force_min`` builds each stack of
(candidate, sample) assignments as rows of one array and stops streaming a
candidate after the stack of its first failing sample.

``zxparam verify`` samples nothing: it decides correctness with the exact
Pauli-frame check of ``frame.py``, screens the output's count with the
merge bound there, and then reads ``optimality_certificate``.
``check_reduction``, ``brute_force_min`` and the probe simulator stay as the
numeric references, independent of the frame: ``zxparam oracle``, the
tests, ``scripts/run_pipeline.py`` and the benchmark's output checks call
them.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from .circuits import MAX_PROBE_QUBITS, Circuit, circuit_unitary
from .diagram import Diagram, EdgeKind, GadgetView, find_gadgets
from .errors import NotClifford, NotTerminalForm, TooLarge, TooManyParams, ZeroState

from .reduction import ReductionMap
from .rewrite import AP_FORM_STAGES, Rewriter
from .tensor import ProportionalityReport, proportionality_ratio

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)


# -- finite-value reduction checking ------------------------------------------

def sample_array(n_params: int, n_random: int, seed: int = 0) -> np.ndarray:
    """The sample points as one (1 + k + n_random, k) array of angles, its
    columns in parameter order: the all-zeros point, each parameter alone at
    pi, then uniform-random rows from ``default_rng(seed)``, drawn row by
    row.  Two values per parameter suffice for exact equality of
    parametrised Clifford maps; the random points stress the scalar."""
    import numpy as np

    samples = np.zeros((1 + n_params + n_random, n_params))
    samples[1 + np.arange(n_params), np.arange(n_params)] = math.pi
    samples[1 + n_params:] = np.random.default_rng(seed).uniform(0, 2 * math.pi, (n_random, n_params))
    return samples


def structured_samples(params: Sequence[str], n_random: int, seed: int = 0) -> List[Dict[str, float]]:
    """The rows of ``sample_array`` as one dict per sample, keyed by ``params``."""
    return [dict(zip(params, row)) for row in sample_array(len(params), n_random, seed).tolist()]


def probe_state(n_qubits: int, seed: int = 0) -> np.ndarray:
    """The (2^n, 1) complex Gaussian input that circuits are applied to.

    If ``U1 v = lam U2 v`` for a generic ``v``, then ``v`` lies in an
    eigenspace of ``U2^dag U1``, which has probability 0 unless
    ``U2^dag U1 = lam I``; so one probe decides proportionality almost
    surely.  Its generator is keyed by the seed and the width, apart from
    the stream of ``structured_samples``."""
    if n_qubits > MAX_PROBE_QUBITS:
        raise TooLarge(f"{n_qubits} qubits exceeds the probe state limit {MAX_PROBE_QUBITS}")
    import numpy as np

    rng = np.random.default_rng([seed, n_qubits])
    return rng.standard_normal((2 ** n_qubits, 2)).view(complex)


# A block amortises each gate's Python overhead over its samples; 256 KB keeps
# peak memory within a few percent of evaluating one sample at a time.
BLOCK_BYTES = 256 * 1024
# The most random samples a command line run takes on top of the structured
# set.  brute_force_min keeps one probe image per sample, so at 16 qubits
# (1 MB an image) 200 samples hold about 0.2 GB.
MAX_SAMPLES = 200


def _block_size(probe: np.ndarray) -> int:
    """How many images of ``probe`` fit in BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // (16 * probe.size))


def sampled_unitaries(c: Circuit, samples: np.ndarray, probe: np.ndarray) -> Iterator[np.ndarray]:
    """The images of ``probe`` under the unitary of ``c`` at each row of
    ``samples`` (angles in ``c.params`` order), in order, as stacks of as
    many samples as fit in BLOCK_BYTES (at least one)."""
    block = _block_size(probe)
    for start in range(0, len(samples), block):
        yield circuit_unitary(c, samples[start:start + block], states=probe)


def _rows(stack: np.ndarray) -> np.ndarray:
    """A stack of images as one flat row per sample."""
    return stack.reshape(len(stack), -1)


def check_reduction(c1: Circuit, c2: Circuit, reduction: ReductionMap,
                    n_samples: int = 5, tol: float = 1e-9, seed: int = 0) -> ProportionalityReport:
    """Does ``c1[a]`` equal ``c2[P a + c]`` up to a per-sample scalar?

    ``n_samples`` counts the uniform-random vectors added on top of the
    structured {0, pi} set.  The scalar may vary between samples; at each
    sample the two circuits' images of the seeded probe state must differ
    by a single nonzero constant across all amplitudes.
    """
    reduction.check_circuits(c1, c2)
    holds: List[bool] = []
    ratios: List[complex] = []
    deviations: List[float] = []
    samples = sample_array(len(c1.params), n_samples, seed)
    mapped = reduction.apply_array(samples, c2.params)
    probe = probe_state(c1.n_qubits, seed)
    for b1, b2 in zip(sampled_unitaries(c1, samples, probe), sampled_unitaries(c2, mapped, probe)):
        ok, lam, dev = proportionality_ratio(_rows(b1), _rows(b2), tol)
        holds.extend(ok.tolist())
        ratios.extend(lam.tolist())
        deviations.extend(dev.tolist())
    return ProportionalityReport(holds=all(holds), ratios=ratios, max_deviation=max(deviations, default=0.0),
                                 deviations=deviations)


# -- AP form -------------------------------------------------------------------

@dataclass
class APForm:
    """A stabiliser state as an affine GF(2) subspace with a phase polynomial.

    The state is sum over {x : A x = b} of i^(sum_j linear_phase[j] x_j)
    times (-1)^(sum over quadratic_pairs x_i x_j) |x>.
    """

    n_qubits: int
    a_matrix: np.ndarray  # GF(2), reduced row echelon form
    b_vector: np.ndarray
    linear_phase: Tuple[int, ...]  # mod 4, units of pi/2
    quadratic_pairs: FrozenSet[Tuple[int, int]]

    def state(self) -> np.ndarray:
        """Dense reconstruction; first qubit is the most significant bit."""
        import numpy as np

        n = self.n_qubits
        amplitudes = np.zeros(2 ** n, dtype=complex)
        for idx in range(2 ** n):
            x = np.array([(idx >> (n - 1 - j)) & 1 for j in range(n)], dtype=np.uint8)
            if self.a_matrix.size and np.any((self.a_matrix @ x) % 2 != self.b_vector):
                continue
            phase = sum(self.linear_phase[j] * int(x[j]) for j in range(n)) % 4
            sign = sum(int(x[i]) * int(x[j]) for i, j in self.quadratic_pairs) % 2
            amplitudes[idx] = (1j ** phase) * ((-1) ** sign)
        return amplitudes


def _gf2_rref(rows: Sequence[int], rhs: Sequence[int]) -> List[Tuple[int, int]]:
    """Reduced row echelon form of the GF(2) system ``rows`` x = ``rhs``,
    each row an int bitmask (bit j is variable j), as ``(row, b)`` pairs in
    pivot order; a row's pivot is its lowest set bit.  Raises ZeroState if
    the system is inconsistent; zero rows are dropped."""
    basis: Dict[int, Tuple[int, int]] = {}  # pivot bit -> fully reduced (row, b)
    for row, b in zip(rows, rhs):
        b &= 1
        for pivot, (r, c) in basis.items():
            if row & pivot:
                row ^= r
                b ^= c
        if not row:
            if b:
                raise ZeroState("affine system A x = b is inconsistent")
            continue
        pivot = row & -row
        for p, (r, c) in basis.items():
            if r & pivot:
                basis[p] = (r ^ row, c ^ b)
        basis[pivot] = (row, b)
    return [basis[p] for p in sorted(basis)]


def ap_form(d: Diagram) -> APForm:
    """Decompose a Clifford state diagram into affine-with-phases form.

    The diagram is reduced with local complementation and pivoting only
    (plus exact buffering of Hadamard output wires), leaving internal 0/pi
    spiders as parity constraints over the outputs, output phases as the
    linear phase polynomial, and output-output edges as its quadratic part.
    """
    import numpy as np

    if d.inputs():
        raise NotClifford("AP form applies to states (no input wires)")
    if d.param_registry:
        raise NotClifford(f"diagram carries parameters {sorted(d.param_registry)}")

    d = d.copy()
    Rewriter(d, AP_FORM_STAGES).run(1000 + 20 * len(d.spiders()) ** 2, what="ap_form reduction")

    outputs = d.outputs()
    n = len(outputs)
    var = {o: j for j, o in enumerate(outputs)}

    # representative variable for each boundary spider (first output by position)
    rep: Dict[int, int] = {}
    rows: List[int] = []  # parity constraints as bitmasks over the outputs
    rhs: List[int] = []
    linear = [0] * n
    quad: Set[Tuple[int, int]] = set()

    for v in d.spiders():
        wires = d.boundary_wires(v)
        if not wires:
            continue
        js = sorted(var[o] for o in wires)
        rep[v] = js[0]
        for j in js[1:]:
            rows.append(1 << rep[v] | 1 << j)
            rhs.append(0)
        linear[rep[v]] = (linear[rep[v]] + d.phase(v).clifford) % 4

    for a, b, kind in d.edges():
        da, db = d.vertex(a), d.vertex(b)
        if da.is_boundary and db.is_boundary:
            # bare output-output wire
            ja, jb = var[a], var[b]
            if kind is EdgeKind.PLAIN:
                rows.append(1 << ja | 1 << jb)
                rhs.append(0)
            else:
                quad.add((min(ja, jb), max(ja, jb)))

    for u in d.spiders():
        if u in rep:
            continue
        ph = d.phase(u)
        if not ph.is_pauli():
            raise NotClifford(f"internal spider {u} with phase {ph} survived reduction")
        row = 0
        for w in d.neighbors(u):
            if w not in rep:
                raise NotTerminalForm(f"internal spiders {u} and {w} remain adjacent")
            row ^= 1 << rep[w]
        rows.append(row)
        rhs.append(ph.clifford // 2)

    for a, b, kind in d.edges():
        if a in rep and b in rep:
            ja, jb = rep[a], rep[b]
            quad.add((min(ja, jb), max(ja, jb)))

    reduced = _gf2_rref(rows, rhs)
    a_matrix = np.array([[row >> j & 1 for j in range(n)] for row, _ in reduced], dtype=np.uint8)
    b_vector = np.array([b for _, b in reduced], dtype=np.uint8)
    return APForm(n, a_matrix.reshape(len(reduced), n), b_vector, tuple(linear), frozenset(quad))


# -- stabiliser certificates ---------------------------------------------------

def _parametrised_gadgets(d: Diagram) -> List[GadgetView]:
    return [g for g in find_gadgets(d) if not d.phase(g.phase_spider).is_clifford()]


def _shape_violations(d: Diagram, gadgets: Sequence[GadgetView]) -> List[str]:
    """Violations of the plugged-GSLC shape (redexes are allowed here), given
    the parametrised gadgets of ``d``."""
    problems = []
    axes = {g.axis_spider for g in gadgets}
    for v in d.spiders():
        ph = d.phase(v)
        if d.is_internal(v) and ph.is_clifford() and v not in axes:
            if d.degree(v) > 0:
                problems.append(f"internal Clifford spider {v} is not a gadget axis")
        if d.is_boundary_spider(v) and ph.is_clifford():
            for o in d.boundary_wires(v):
                if d.edge_kind(v, o) is EdgeKind.HADAMARD and ph.clifford in (1, 3):
                    problems.append(f"boundary spider {v} has decoration S^{ph.clifford}H")
    return problems


def _require_shape(d: Diagram, gadgets: Sequence[GadgetView]) -> None:
    shape = _shape_violations(d, gadgets)
    if shape:
        raise NotTerminalForm("; ".join(shape))


def _gadget_failures(gadgets: Sequence[GadgetView]) -> List[str]:
    """Conditions (a) and (b): every gadget touches at least two vertices,
    and no two gadgets share a neighbourhood."""
    failures = []
    for g in gadgets:
        if len(g.neighbourhood) < 2:
            failures.append(f"(a) gadget at axis {g.axis_spider} has {len(g.neighbourhood)} neighbours")
    seen: Dict[FrozenSet[int], int] = {}
    for g in gadgets:
        if g.neighbourhood in seen:
            failures.append(f"(b) gadgets at axes {seen[g.neighbourhood]} and {g.axis_spider} "
                            f"share a neighbourhood")
        else:
            seen[g.neighbourhood] = g.axis_spider
    return failures


def terminal_violations(d: Diagram) -> List[str]:
    """Structural conditions of the pseudo-normal form; empty iff terminal.

    The plugged-GSLC shape, conditions (a) and (b) of the optimality
    certificate, and no scalar component."""
    gadgets = _parametrised_gadgets(d)
    problems = _shape_violations(d, gadgets) + _gadget_failures(gadgets)
    for comp in d.connected_components():
        if not any(d.vertex(v).is_boundary for v in comp):
            problems.append(f"scalar component {sorted(comp)} remains")
    return problems


def zz_certificate(d: Diagram) -> List[Tuple[Tuple[int, int], str]]:
    """Pairs of parameter legs admitting a weight-2 Z x Z stabiliser.

    Condition (i): the legs' vertices are adjacent, the Hadamard-decorated
    vertex has no other neighbour, and the decorations are I x H or H x I.
    Condition (ii): non-adjacent vertices with identical neighbourhoods,
    both decorated H.  An empty list certifies that no parameter fusion
    remains; the sign parity of a hypothetical fusion is immaterial because
    an odd pair reduces to the even case by absorbing a Pauli X.

    In the plugged-GSLC shape, which is required, every gadget is
    parametrised.  A gadget's phase spider is an H leg at its axis, and any
    other parametrised spider an I leg at itself.  An axis is internal with
    one plug, so its graph neighbourhood is the gadget's ``neighbourhood``:
    condition (i) is a gadget touching just one parametrised spider, and
    (ii) two gadgets with equal neighbourhoods, whose axes are never
    adjacent (each would be in its own neighbourhood).  Pairs come sorted.
    """
    gadgets = _parametrised_gadgets(d)
    _require_shape(d, gadgets)
    found = []
    groups: Dict[FrozenSet[int], List[int]] = {}
    for g in gadgets:
        groups.setdefault(g.neighbourhood, []).append(g.phase_spider)
        if len(g.neighbourhood) == 1:
            (v,) = g.neighbourhood
            if not d.phase(v).is_clifford():
                found.append(((min(v, g.phase_spider), max(v, g.phase_spider)), "i"))
    for plugs in groups.values():
        found.extend((pair, "ii") for pair in itertools.combinations(sorted(plugs), 2))
    return sorted(found)


@dataclass
class CertificateReport:
    passed: bool
    failures: List[str] = field(default_factory=list)
    n_parameters: int = 0
    n_gadgets: int = 0

    def to_dict(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures),
                "n_parameters": self.n_parameters, "n_gadgets": self.n_gadgets}


def optimality_certificate(d: Diagram) -> CertificateReport:
    """The executable optimality conditions for a terminal diagram.

    Passing certifies the parameter count is minimal: every gadget touches
    at least two vertices (a), gadget neighbourhoods are pairwise distinct
    (b), no weight-2 Z x Z stabiliser connects two parameter legs (c), and
    no parametrised spider is isolated (d).  Each defect is reported once:
    in this shape a pair of condition (c)(i) is a gadget over a single
    parametrised spider, which (a) names, and a pair of (c)(ii) is two
    gadgets with one neighbourhood, which (b) names (see
    ``zz_certificate``), so (c) has no entry of its own.
    """
    gadgets = _parametrised_gadgets(d)
    _require_shape(d, gadgets)
    failures = _gadget_failures(gadgets)
    params = d.param_exprs()
    for v in params:
        if d.degree(v) == 0:
            failures.append(f"(d) parametrised spider {v} is isolated")
    return CertificateReport(passed=not failures, failures=failures,
                             n_parameters=len(params), n_gadgets=len(gadgets))


# -- brute-force minimality oracle ---------------------------------------------

MAX_ORACLE_PARAMS = 5


@dataclass
class BruteForceResult:
    count: int
    witness: ReductionMap
    trivial: Tuple[str, ...] = ()


def _partitions_into(items: Sequence[str], n_parts: int) -> Iterator[List[List[str]]]:
    """All set partitions of ``items`` into exactly ``n_parts`` blocks, each
    block in item order and the blocks in order of their first item.  Item i
    goes to block ``labels[i]``; the labels run over the restricted growth
    strings (labels that first occur in the order 0, 1, ...) in
    lexicographic order."""
    order = list(range(n_parts))
    for labels in itertools.product(order, repeat=len(items)):
        if list(dict.fromkeys(labels)) == order:
            blocks: List[List[str]] = [[] for _ in order]
            for item, label in zip(items, labels):
                blocks[label].append(item)
            yield blocks


def _in_place_groupings(params: Sequence[str]) -> Iterator[Tuple[List[Tuple[str, List[str]]], List[Tuple[int, ...]]]]:
    """Every partition of ``params`` into groups with every choice of
    representatives, fewest groups first, as (groups, signs): each group is
    its representative and its other parameters, and ``signs`` lists every
    sign pattern of all the others, group after group."""
    for l in range(1, len(params) + 1):
        for blocks in _partitions_into(params, l):
            for reps in itertools.product(*[range(len(b)) for b in blocks]):
                groups = [(b[r], [p for i, p in enumerate(b) if i != r]) for b, r in zip(blocks, reps)]
                yield groups, list(itertools.product((1, -1), repeat=sum(len(o) for _, o in groups)))


def _in_place_map(params: Sequence[str], groups: Sequence[Tuple[str, Sequence[str]]],
                  signs: Sequence[int]) -> ReductionMap:
    """The in-place parsimonious map that keeps each representative at +1,
    under its own name, and gives the other parameters ``signs`` in turn."""
    signs = iter(signs)
    rows = tuple(((rep, 1),) + tuple((p, next(signs)) for p in others) for rep, others in groups)
    return ReductionMap(tuple(params), tuple(rep for rep, _ in groups), rows, (0,) * len(groups))


def brute_force_min(c: Circuit, tol: float = 1e-9, max_params: int = MAX_ORACLE_PARAMS,
                    n_samples: int = 5, seed: int = 0) -> BruteForceResult:
    """Smallest parameter count over all in-place parsimonious reductions.

    Enumerates every partition of the parameters into groups, every choice
    of representative (kept at +1) and every sign pattern for the others;
    a candidate passes when the original circuit is proportional to the
    candidate at the structured-plus-random sample set.  In-place maps are
    complete for minimality, and constants are provably unnecessary, so the
    returned count is the true optimum.

    A candidate is evaluated on ``c`` itself: each representative at its
    group's value and every other parameter at 0, where its gate is the
    identity.  The (candidate, sample) assignments stream in enumeration
    order, as the rows of one angle array per block of as many as fit in
    BLOCK_BYTES, and the rest of a candidate is left out of the stream once
    one of its samples fails.
    """
    import numpy as np

    c.validate()
    params = c.params
    k = len(params)
    if k > max_params:
        raise TooManyParams(f"{k} parameters exceeds oracle limit {max_params}")
    if k == 0:
        return BruteForceResult(0, ReductionMap((), (), (), ()))

    samples = sample_array(k, n_samples, seed)
    n = len(samples)
    probe = probe_state(c.n_qubits, seed)
    originals = np.concatenate([_rows(b) for b in sampled_unitaries(c, samples, probe)])

    alone = originals[1:1 + k]
    ok, _, _ = proportionality_ratio(alone, np.broadcast_to(originals[0], alone.shape), tol)
    trivial = tuple(p for p, t in zip(params, ok) if t)
    if trivial:
        logger.warning("parameters %s are trivial: {0,pi} evaluations are proportional", list(trivial))

    column = {p: j for j, p in enumerate(params)}

    def candidates() -> Iterator[Tuple[tuple, np.ndarray]]:
        """Each candidate, as its groups and sign pattern, with its (n, k)
        assignments of ``c``: a representative's value is its group's sum at
        the sample, added in the order ``ReductionMap.apply`` adds it; every
        other parameter is 0."""
        for groups, signs in _in_place_groupings(params):
            sign = np.array(signs, dtype=float).reshape(len(signs), len(signs[0]))
            values = np.zeros((len(signs), n, k))  # every sign pattern at once
            j = 0
            for rep, others in groups:
                total = values[:, :, column[rep]]
                total += samples[:, column[rep]]
                for p in others:
                    total += sign[:, j, None] * samples[:, column[p]]
                    j += 1
            for pattern, assignments in zip(signs, values):
                yield (groups, pattern), assignments

    pending = candidates()
    current, start = None, 0  # the candidate being streamed, and its next sample
    block = _block_size(probe)
    while True:
        owners: List[Tuple[tuple, int, int]] = []  # per candidate in the block: (candidate, first sample, count)
        parts: List[np.ndarray] = []
        filled = 0
        while filled < block:
            if current is None or start == n:
                current, start = next(pending, None), 0
                if current is None:
                    break
            candidate, values = current
            count = min(block - filled, n - start)
            owners.append((candidate, start, count))
            parts.append(values[start:start + count])
            start += count
            filled += count
        if not parts:
            raise AssertionError("identity reduction must pass; unreachable")
        images = _rows(circuit_unitary(c, np.concatenate(parts), states=probe))
        expected = originals[np.concatenate([np.arange(i, i + count) for _, i, count in owners])]
        ok, _, _ = proportionality_ratio(expected, images, tol)
        done = 0
        for (groups, pattern), i, count in owners:
            passed = ok[done:done + count].all()
            if passed and i + count == n:
                return BruteForceResult(len(groups), _in_place_map(params, groups, pattern), trivial)
            done += count
        if not passed:
            start = n  # the block's last candidate failed: leave its later samples out
