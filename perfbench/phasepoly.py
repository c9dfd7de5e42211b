"""Phase-polynomial circuits and their closed-form optimum.

A circuit of CNOT, X and ``rz(t)`` gates maps a basis state |x> to
e^{i f(x)} |Lx + c>.  Each parametrised gate contributes ``t * (p.x xor b)``
to the phase, where ``p`` is the linear parity of its wire at that point and
``b`` the wire's affine constant (Amy, Maslov & Mosca, arXiv 1303.2042).
Since ``1 - p.x`` only differs from ``p.x`` by a sign and a global phase, and
the parity functions of distinct nonzero ``p`` are linearly independent, the
minimal number of parameters is the number of distinct parities among the
parametrised gates.  Clifford layers around the polynomial do not change it.

Nothing here imports the optimiser: the count is computed by tracking wire
parities as integer bit masks, O(g) integer operations for g gates.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Tuple

from zxparam.circuits import Circuit, Gate, GateKind
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap


def phase_poly_circuit(rng: Random, n_qubits: int, n_gates: int, n_params: int,
                       wrap_gates: int = 0) -> Circuit:
    """CNOT/X/rz(t) circuit with ``n_params`` parameters among ``n_gates``
    gates, between two random Clifford layers of ``wrap_gates`` gates each.

    The polynomial part uses at most ``n_qubits`` CNOT-connected wires in a
    ring of random CNOTs and occasional X, so parities repeat often enough
    for fusion to matter.
    """
    if n_params > n_gates:
        raise ValueError("more parameters than gates")
    if n_qubits < 2:
        raise ValueError("phase polynomials need at least two qubits")
    body: List[Gate] = []
    for _ in range(n_gates - n_params):
        if rng.random() < 0.85:
            c, t = rng.sample(range(n_qubits), 2)
            body.append(Gate(GateKind.CX, (c, t)))
        else:
            body.append(Gate(GateKind.X, (rng.randrange(n_qubits),)))
    positions = sorted(rng.sample(range(n_gates), n_params))
    for i, pos in enumerate(positions):
        body.insert(pos, Gate(GateKind.RZ_PARAM, (rng.randrange(n_qubits),), param=f"t{i}"))
    gates = list(body)
    if wrap_gates:
        before = random_circuit(rng, n_qubits, wrap_gates, 0).gates
        after = random_circuit(rng, n_qubits, wrap_gates, 0).gates
        gates = before + body + after
    c = Circuit(n_qubits, gates)
    c.validate()
    return c


def param_parities(c: Circuit) -> Dict[str, Tuple[int, int]]:
    """For each parameter, the (parity mask, affine bit) of its wire.

    Only the polynomial part may carry parameters; the Clifford wraps are
    skipped because they hold none.  Raises ValueError on a parametrised
    circuit that is not of the wrapped phase-polynomial shape.
    """
    gates = c.gates
    param_at = [i for i, g in enumerate(gates) if g.kind is GateKind.RZ_PARAM]
    if not param_at:
        return {}
    # Parities are tracked from the first parametrised gate on: any earlier
    # starting point applies one invertible affine map to all of them, which
    # keeps distinct parities distinct and equal ones equal.
    lo, hi = param_at[0], param_at[-1]
    mask = [1 << q for q in range(c.n_qubits)]
    bit = [0] * c.n_qubits
    out: Dict[str, Tuple[int, int]] = {}
    for g in gates[lo:hi + 1]:
        if g.kind is GateKind.CX:
            ctl, tgt = g.qubits
            mask[tgt] ^= mask[ctl]
            bit[tgt] ^= bit[ctl]
        elif g.kind is GateKind.X:
            bit[g.qubits[0]] ^= 1
        elif g.kind is GateKind.RZ_PARAM:
            q = g.qubits[0]
            out[g.param] = (mask[q], bit[q])
        else:
            raise ValueError(f"gate {g.kind.value} inside the phase polynomial")
    return out


def closed_form_optimum(c: Circuit) -> int:
    """Number of distinct wire parities among parametrised gates.

    CNOTs keep the linear part invertible, so no parity is zero and every
    parameter is nontrivial."""
    return len({m for m, _ in param_parities(c).values()})


def optimal_reduction(c: Circuit) -> Tuple[Circuit, ReductionMap]:
    """The optimum built from the parities alone: per parity, the earliest
    gate survives as ``u<i>``; every other gate of that parity is deleted and
    enters its row with sign -1 when its affine bit differs from the
    survivor's."""
    parities = param_parities(c)
    groups: Dict[int, List[str]] = {}
    for p in c.params:
        groups.setdefault(parities[p][0], []).append(p)
    new_name: Dict[str, str] = {}
    rows = []
    for i, members in enumerate(groups.values()):
        rep = members[0]
        new_name[rep] = f"u{i}"
        rep_bit = parities[rep][1]
        rows.append(tuple((p, 1 if parities[p][1] == rep_bit else -1) for p in members))
    gates = []
    for g in c.gates:
        if g.kind is not GateKind.RZ_PARAM:
            gates.append(g)
        elif g.param in new_name:
            gates.append(Gate(GateKind.RZ_PARAM, g.qubits, param=new_name[g.param]))
    reduction = ReductionMap(tuple(c.params), tuple(f"u{i}" for i in range(len(rows))),
                             tuple(rows), tuple(0 for _ in rows))
    return Circuit(c.n_qubits, gates), reduction
