"""Circuit model, text format, unitary oracle and translation to diagrams.

The text format is line oriented with ``#`` comments:

    qreg <n>
    h <q> | s <q> | sdg <q> | z <q> | x <q> | cz <q1> <q2> | cx <control> <target>
    rz(<ident>) <q>      symbolic parameter, e.g. rz(t0) 0
    rz(<k>pi/2) <q>      Clifford constant, k integer

Numeric rz angles must be exact multiples of pi/2; symbolic parameters must
each occur on at most one gate; ``n`` is at most MAX_QUBITS.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .diagram import Diagram, NKind, SpiderNetwork, to_graph_like
from .errors import CircuitSyntaxError, NonCliffordConstant, RepeatedParameter, TooLarge
from .params import Phase


class GateKind(Enum):
    H = "h"
    S = "s"
    SDG = "sdg"
    Z = "z"
    X = "x"
    CZ = "cz"
    CX = "cx"
    RZ_CLIFFORD = "rz_clifford"
    RZ_PARAM = "rz_param"


# Reading a member off an Enum class, or hashing one, is a Python-level call
# on CPython 3.11 (~150 ns); the per-gate loops compare against these names.
_H, _S, _SDG, _Z, _X = GateKind.H, GateKind.S, GateKind.SDG, GateKind.Z, GateKind.X
_CZ, _CX, _RZ_CLIFFORD, _RZ_PARAM = GateKind.CZ, GateKind.CX, GateKind.RZ_CLIFFORD, GateKind.RZ_PARAM


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: Tuple[int, ...]
    k: int = 0  # rz_clifford angle in pi/2 units, mod 4
    param: Optional[str] = None  # rz_param identifier

    def __post_init__(self):
        if not 0 <= self.k < 4:
            object.__setattr__(self, "k", self.k % 4)
        n = 2 if self.kind is _CZ or self.kind is _CX else 1
        if len(self.qubits) != n:
            raise ValueError(f"{self.kind.value} takes {n} qubit(s)")


@dataclass
class Circuit:
    n_qubits: int
    gates: List[Gate] = field(default_factory=list)

    @property
    def params(self) -> List[str]:
        """Parameter ids in order of first appearance."""
        return list(dict.fromkeys(g.param for g in self.gates if g.kind is _RZ_PARAM))

    def validate(self) -> None:
        n, rz_param = self.n_qubits, _RZ_PARAM
        seen = set()
        for g in self.gates:
            qubits = g.qubits
            for q in qubits:
                if not 0 <= q < n:
                    raise ValueError(f"qubit index out of range in {g}")
            # Gate admits two qubits exactly for CZ and CX
            if len(qubits) == 2 and qubits[0] == qubits[1]:
                raise ValueError(f"two-qubit gate on a single qubit: {g}")
            if g.kind is rz_param:
                if g.param in seen:
                    raise RepeatedParameter(f"parameter {g.param!r} used on two gates")
                seen.add(g.param)

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.gates))


# -- parser / printer ---------------------------------------------------------

# Widest qreg parse_circuit accepts.  `zxparam optimize` on a two-gate circuit
# this wide takes 2.3 s at 203 MB peak RSS (2-core x86-64, CPython 3.11); the
# cost is linear in the width, and 10^6 qubits took 40 s and 2.6 GB.
MAX_QUBITS = 2 ** 16
_MAX_QUBITS_DIGITS = len(str(MAX_QUBITS))

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUM_PI = re.compile(r"^([+-]?[0-9]*\.?[0-9]+)pi(/2)?$")
_RZ_CALL = re.compile(r"^rz\((.*)\)$")
_ONE_QUBIT_GATES = {"h": _H, "s": _S, "sdg": _SDG, "z": _Z, "x": _X}
_TWO_QUBIT_GATES = {"cz": _CZ, "cx": _CX}


def _parse_rz_angle(arg: str, line_no: int, col: int) -> Gate | Tuple[str, int]:
    """Returns ('param', name) or ('clifford', k)."""
    arg = arg.strip()
    if _IDENT.match(arg):
        return ("param", arg)
    m = _NUM_PI.match(arg.replace(" ", ""))
    if not m:
        if re.match(r"^[+-]?[0-9]", arg):
            raise NonCliffordConstant(f"rz angle {arg!r} is not of the form <k>pi/2", line_no, col)
        raise CircuitSyntaxError(f"bad rz argument {arg!r}", line_no, col)
    value = float(m.group(1))
    halves = value * (1 if m.group(2) else 2)  # in units of pi/2
    if abs(halves - round(halves)) > 1e-12:
        raise NonCliffordConstant(f"rz angle {arg!r} is not an exact multiple of pi/2", line_no, col)
    return ("clifford", int(round(halves)))


def _decimal(token: str) -> int:
    """Value of a token of decimal digits; every value past MAX_QUBITS reads
    as MAX_QUBITS + 1, so int() never meets more digits than it accepts."""
    digits = token.lstrip("0")
    return int(digits or "0") if len(digits) <= _MAX_QUBITS_DIGITS else MAX_QUBITS + 1


def _qubit(token: str, n_qubits: int, line_no: int, col: int) -> int:
    if not token.isdecimal():
        raise CircuitSyntaxError(f"expected qubit index, got {token!r}", line_no, col)
    q = _decimal(token)
    if q >= n_qubits:
        raise CircuitSyntaxError(f"qubit {token} out of range (qreg {n_qubits})", line_no, col)
    return q


def parse_circuit(text: str) -> Circuit:
    """Parse circuit source; raises CircuitSyntaxError (also for a qreg wider
    than MAX_QUBITS), NonCliffordConstant or RepeatedParameter."""
    circuit: Optional[Circuit] = None
    seen_params = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if circuit is None:
            if head != "qreg":
                raise CircuitSyntaxError("first statement must be 'qreg <n>'", line_no)
            if len(tokens) != 2 or not tokens[1].isdecimal() or _decimal(tokens[1]) < 1:
                raise CircuitSyntaxError("qreg needs a positive qubit count", line_no, len(head) + 1)
            n = _decimal(tokens[1])
            if n > MAX_QUBITS:
                raise CircuitSyntaxError(f"qreg exceeds the limit of {MAX_QUBITS} qubits", line_no, len(head) + 1)
            circuit = Circuit(n)
            append = circuit.gates.append
            continue
        kind = _ONE_QUBIT_GATES.get(head)
        if kind is not None:
            if len(tokens) != 2:
                raise CircuitSyntaxError(f"{head} takes one qubit", line_no, len(head) + 1)
            append(Gate(kind, (_qubit(tokens[1], n, line_no, len(head) + 1),)))
        elif head in _TWO_QUBIT_GATES:
            if len(tokens) != 3:
                raise CircuitSyntaxError(f"{head} takes two qubits", line_no, len(head) + 1)
            q1 = _qubit(tokens[1], n, line_no, len(head) + 1)
            q2 = _qubit(tokens[2], n, line_no, len(head) + 3)
            if q1 == q2:
                raise CircuitSyntaxError(f"{head} qubits must differ", line_no, len(head) + 1)
            append(Gate(_TWO_QUBIT_GATES[head], (q1, q2)))
        elif head.startswith("rz"):
            m = _RZ_CALL.match(tokens[0])
            if not m or len(tokens) != 2:
                raise CircuitSyntaxError("rz syntax is rz(<angle>) <qubit>", line_no)
            angle_kind, value = _parse_rz_angle(m.group(1), line_no, 3)
            q = _qubit(tokens[1], n, line_no, len(tokens[0]) + 1)
            if angle_kind == "param":
                if value in seen_params:
                    raise RepeatedParameter(f"parameter {value!r} used on two gates (line {line_no})")
                seen_params.add(value)
                append(Gate(_RZ_PARAM, (q,), param=value))
            else:
                append(Gate(_RZ_CLIFFORD, (q,), k=value))
        elif head == "qreg":
            raise CircuitSyntaxError("duplicate qreg", line_no)
        else:
            raise CircuitSyntaxError(f"unknown gate {head!r}", line_no)
    if circuit is None:
        raise CircuitSyntaxError("empty source: missing qreg", 1)
    return circuit


def emit_circuit(c: Circuit) -> str:
    """Canonical source text; parse_circuit(emit_circuit(c)) == c."""
    lines = [f"qreg {c.n_qubits}"]
    for g in c.gates:
        kind = g.kind
        if kind is _RZ_PARAM:
            lines.append(f"rz({g.param}) {g.qubits[0]}")
        elif kind is _RZ_CLIFFORD:
            lines.append(f"rz({g.k}pi/2) {g.qubits[0]}")
        elif kind is _CX or kind is _CZ:  # _value_ is the name, without the value property
            lines.append(f"{kind._value_} {g.qubits[0]} {g.qubits[1]}")
        else:
            lines.append(f"{kind._value_} {g.qubits[0]}")
    return "\n".join(lines) + "\n"


# -- unitary oracle -----------------------------------------------------------

MAX_UNITARY_QUBITS = 10  # one 10-qubit unitary is 16 MB
MAX_PROBE_QUBITS = 16  # one 16-qubit probe state is 1 MB
_QUARTER_TURNS = (1, 1j, -1, -1j)  # exp(i k pi/2), exact
_SQRT_HALF = 1 / math.sqrt(2)


def _halves(u: np.ndarray, q: int, control: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Views of the stack ``u`` (S, 2^n, k) where output qubit ``q`` is 0
    and where it is 1, restricted to ``control`` = 1 if given (qubit 0 is
    the most significant bit)."""
    s = u.shape[0]
    if control is None:
        v = u.reshape(s, 2 ** q, 2, -1)
        return v[:, :, 0], v[:, :, 1]
    lo, hi = sorted((q, control))
    v = u.reshape(s, 2 ** lo, 2, 2 ** (hi - lo - 1), 2, -1)
    if control < q:
        v = v[:, :, 1]
        return v[:, :, :, 0], v[:, :, :, 1]
    v = v[:, :, :, :, 1]
    return v[:, :, 0], v[:, :, 1]


def circuit_unitary(c: Circuit, assignment: Mapping[str, float] | Sequence[Mapping[str, float]] | None = None,
                    states: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact 2^n x 2^n unitary of the circuit at one assignment (a mapping or
    None), or the (S, 2^n, 2^n) stack at a sequence of S assignments, built in
    one pass over the gates that updates all S in place.  Given ``states``, a
    (2^n, k) array, the unitary is applied to its columns instead: the result
    is (2^n, k), or (S, 2^n, k), at O(g 2^n k) rather than O(g 4^n).  Qubit 0
    is the most significant bit; independent of the diagram machinery.
    Raises TooLarge above MAX_UNITARY_QUBITS qubits, or MAX_PROBE_QUBITS with
    ``states``."""
    n = c.n_qubits
    if states is None:
        if n > MAX_UNITARY_QUBITS:
            raise TooLarge(f"{n} qubits exceeds the dense unitary limit {MAX_UNITARY_QUBITS}")
        columns = np.eye(2 ** n, dtype=complex)
    else:
        if n > MAX_PROBE_QUBITS:
            raise TooLarge(f"{n} qubits exceeds the probe state limit {MAX_PROBE_QUBITS}")
        columns = np.asarray(states, dtype=complex)
        if columns.ndim != 2 or columns.shape[0] != 2 ** n:
            raise ValueError(f"states of shape {columns.shape} do not have 2^{n} rows")
    single = assignment is None or isinstance(assignment, Mapping)
    assignments = [assignment or {}] if single else list(assignment)
    params = c.params
    missing = {p for a in assignments for p in params if p not in a}
    if missing:
        raise KeyError(f"no value for parameters {sorted(missing)}")
    phases = {p: np.exp(1j * np.array([a[p] for a in assignments], dtype=float))[:, None, None]
              for p in params}
    u = np.tile(columns, (len(assignments), 1, 1))
    for g in c.gates:
        kind = g.kind
        if kind is _CX or kind is _CZ:
            zero, one = _halves(u, g.qubits[1], control=g.qubits[0])
        else:
            zero, one = _halves(u, g.qubits[0])
        if kind is _H:
            diff = zero - one
            zero += one
            zero *= _SQRT_HALF
            np.multiply(diff, _SQRT_HALF, out=one)
        elif kind is _X or kind is _CX:
            tmp = zero.copy()
            zero[...] = one
            one[...] = tmp
        elif kind is _CZ:
            one *= -1
        elif kind is _RZ_PARAM:
            one *= phases[g.param]
        elif kind is _RZ_CLIFFORD:
            one *= _QUARTER_TURNS[g.k]
        elif kind is _S:
            one *= 1j
        elif kind is _SDG:
            one *= -1j
        elif kind is _Z:
            one *= -1
        else:
            raise ValueError(f"unhandled gate {g}")
    return u[0] if single else u


def flatten_unitary(u: np.ndarray, n: int) -> np.ndarray:
    """Flatten ⟨o|U|i⟩ to the tensor_eval wire convention (inputs then outputs)."""
    arr = u.reshape((2,) * (2 * n))
    arr = np.transpose(arr, list(range(n, 2 * n)) + list(range(n)))
    return np.ascontiguousarray(arr).reshape(-1)


# -- translation to diagrams --------------------------------------------------

def circuit_to_network(c: Circuit) -> SpiderNetwork:
    """The circuit as a network of Z spiders and boundaries only.

    Each qubit carries its current spider and the parity of the Hadamards
    pending after it.  H flips the parity.  A phase gate adds its phase to
    the current spider when the parity is even, and otherwise opens a new
    spider behind a Hadamard wire; X adds pi under a flipped parity
    (X = H Z(pi) H).  CZ is a Hadamard wire between the two current spiders,
    CX a Hadamard wire from the control's spider to the target's, taken under
    a flipped parity.  ``to_graph_like`` then only fuses, cancels and adds.

    The diagram equals, vertex ids included, that of the network with one
    node per gate (an H-box per H and CZ, an X spider per X and CX target).
    There a spider that follows two or more H-boxes becomes the
    representative of its class, so here such a gate opens a new spider,
    joined to the current one by a plain wire from the new spider.  There a
    wire through an H-box is added after all others, and the order of a
    spider's boundary wires decides the ids that a boundary pivot gives to
    the spiders it inserts; so here the input wire of a qubit whose first
    spider follows an H is added with the outputs, after the output wire
    when no H follows the last spider.
    """
    c.validate()
    net = SpiderNetwork()
    phases = net.phases
    n = c.n_qubits
    z_kind = NKind.Z
    current = [net.node(NKind.INPUT, position=q) for q in range(n)]  # node ids 0..n-1
    parity = [0] * n  # Hadamards pending after current[q], mod 2
    hadamards = [0] * n  # H gates since the last spider gate on q, up to 2
    deferred = {}  # qubit -> its input wire, if an H precedes the first spider

    def spider(q: int, flip: int) -> int:
        """The spider of a gate on ``q``, taken under ``flip`` extra Hadamards."""
        v, p, many = current[q], parity[q] ^ flip, hadamards[q] == 2
        if p or many or v < n:
            new = net.node(z_kind)
            wire = (new, v, p) if many else (v, new, p)
            if v < n and hadamards[q]:
                deferred[q] = wire
            else:
                net.wire(*wire)
            v = current[q] = new
        parity[q] = flip
        hadamards[q] = 0
        return v

    def add_clifford(q: int, flip: int, k: int) -> None:
        v = spider(q, flip)
        phases[v] = phases[v].add_clifford(k)

    for g in c.gates:
        kind, qubits = g.kind, g.qubits
        if kind is _H:
            q = qubits[0]
            parity[q] ^= 1
            if hadamards[q] < 2:
                hadamards[q] += 1
        elif kind is _CZ:
            net.wire(spider(qubits[0], 0), spider(qubits[1], 0), True)
        elif kind is _CX:
            net.wire(spider(qubits[0], 0), spider(qubits[1], 1), True)
        elif kind is _RZ_PARAM:
            v = spider(qubits[0], 0)
            phases[v] = phases[v] + Phase.of(g.param)
        elif kind is _RZ_CLIFFORD:
            add_clifford(qubits[0], 0, g.k)
        elif kind is _S:
            add_clifford(qubits[0], 0, 1)
        elif kind is _SDG:
            add_clifford(qubits[0], 0, 3)
        elif kind is _Z:
            add_clifford(qubits[0], 0, 2)
        elif kind is _X:
            add_clifford(qubits[0], 1, 2)
        else:
            raise ValueError(f"unhandled gate {g}")

    for q in range(n):
        out = (current[q], net.node(NKind.OUTPUT, position=q), parity[q])
        if q not in deferred:
            net.wire(*out)
        elif hadamards[q]:
            net.wire(*deferred[q])
            net.wire(*out)
        else:
            net.wire(*out)
            net.wire(*deferred[q])
    return net


def circuit_to_diagram(c: Circuit) -> Diagram:
    """Graph-like diagram tensor-proportional to the circuit's unitary."""
    return to_graph_like(circuit_to_network(c))


def circuit_state_diagram(c: Circuit) -> Diagram:
    """Graph-like diagram of the state  c |0...0> ; a phase-0 X-spider per
    qubit replaces the input wires."""
    net = circuit_to_network(c)
    for v, kind in list(net.kinds.items()):
        if kind is NKind.INPUT:
            net.kinds[v] = NKind.X
            net.positions.pop(v, None)
    return to_graph_like(net)
