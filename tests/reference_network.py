"""Reference translation of a circuit into a spider network, one node per gate.

Every H and CZ gets a Hadamard box and every X and CX target an X spider,
so ``to_graph_like`` does the H-box absorption, colour change and fusion
that ``circuits.circuit_to_network`` does as it goes.  Tests compare the two
conversions vertex by vertex, ids included.
"""

from typing import List

from zxparam.circuits import Circuit, GateKind
from zxparam.diagram import NKind, SpiderNetwork
from zxparam.params import Phase


def reference_network(c: Circuit) -> SpiderNetwork:
    """Standard gate gadgets: CZ is a Hadamard edge, CX a Z-X plain edge."""
    c.validate()
    net = SpiderNetwork()
    frontier: List[int] = []
    for q in range(c.n_qubits):
        frontier.append(net.node(NKind.INPUT, position=q))

    def extend(q: int, kind: NKind, phase: Phase = Phase()) -> int:
        node = net.node(kind, phase)
        net.wire(frontier[q], node)
        frontier[q] = node
        return node

    for g in c.gates:
        if g.kind is GateKind.H:
            extend(g.qubits[0], NKind.HBOX)
        elif g.kind is GateKind.S:
            extend(g.qubits[0], NKind.Z, Phase(1))
        elif g.kind is GateKind.SDG:
            extend(g.qubits[0], NKind.Z, Phase(3))
        elif g.kind is GateKind.Z:
            extend(g.qubits[0], NKind.Z, Phase(2))
        elif g.kind is GateKind.X:
            extend(g.qubits[0], NKind.X, Phase(2))
        elif g.kind is GateKind.RZ_CLIFFORD:
            extend(g.qubits[0], NKind.Z, Phase(g.k))
        elif g.kind is GateKind.RZ_PARAM:
            extend(g.qubits[0], NKind.Z, Phase(0, ((g.param, 1),)))
        elif g.kind is GateKind.CZ:
            a = extend(g.qubits[0], NKind.Z)
            b = extend(g.qubits[1], NKind.Z)
            h = net.node(NKind.HBOX)
            net.wire(a, h)
            net.wire(h, b)
        elif g.kind is GateKind.CX:
            control = extend(g.qubits[0], NKind.Z)
            target = extend(g.qubits[1], NKind.X)
            net.wire(control, target)
        else:
            raise ValueError(f"unhandled gate {g}")

    for q in range(c.n_qubits):
        out = net.node(NKind.OUTPUT, position=q)
        net.wire(frontier[q], out)
    return net
