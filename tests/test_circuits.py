import math
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import flatten_unitary
from zxparam.circuits import (MAX_ANGLE_DIGITS, MAX_PROBE_QUBITS, MAX_QUBITS, MAX_UNITARY_QUBITS, Circuit, Gate,
                              GateKind, circuit_to_diagram, circuit_unitary, emit_circuit, parse_circuit)
from zxparam.cli import main
from zxparam.errors import CircuitSyntaxError, NonCliffordConstant, RepeatedParameter, TooLarge
from zxparam.generate import random_circuit
from zxparam.tensor import proportionality_ratio, tensor_eval

SRC = Path(__file__).resolve().parent.parent / "src"


def test_parse_two_parameters():
    c = parse_circuit("qreg 1\nrz(t0) 0\nrz(t1) 0")
    assert c.n_qubits == 1
    assert c.params == ["t0", "t1"]


def test_parse_cx():
    c = parse_circuit("qreg 2\ncx 0 1")
    assert c.gates == [Gate(GateKind.CX, (0, 1))]


def test_parse_rejects_non_clifford_constant():
    with pytest.raises(NonCliffordConstant):
        parse_circuit("qreg 1\nrz(0.25pi) 0")


def test_parse_accepts_clifford_constants():
    c = parse_circuit("qreg 1\nrz(3pi/2) 0\nrz(1pi) 0\nrz(-1pi/2) 0")
    assert [g.k for g in c.gates] == [3, 2, 3]


def test_parse_pi_without_a_coefficient():
    # pi is the constant, not a parameter name; a missing coefficient is 1
    c = parse_circuit("qreg 1\nrz(pi) 0\nrz(PI) 0\nrz(-pi/2) 0\nrz(+pi/2) 0\nrz(pid) 0\nrz(t0) 0")
    assert [g.k for g in c.gates[:4]] == [2, 2, 3, 1]
    assert all(g.kind is GateKind.RZ_CLIFFORD for g in c.gates[:4])
    assert c.params == ["pid", "t0"]
    assert emit_circuit(c).splitlines()[1:5] == ["rz(2pi/2) 0", "rz(2pi/2) 0", "rz(3pi/2) 0", "rz(1pi/2) 0"]
    with pytest.raises(NonCliffordConstant):
        parse_circuit("qreg 1\nrz(pi/4) 0")


@pytest.mark.parametrize("angle, k", [
    ("1000000000000000000001pi/2", 1),  # past float precision
    ("99999999999999999999999999999pi/2", 3),
    ("1" * MAX_ANGLE_DIGITS + "pi", 2),
    ("-2.50pi", 3),
    ("0", 0), ("-0.0", 0), ("+.00", 0), ("0pi", 0),  # a bare signed zero is the identity
])
def test_parse_rz_constants_exactly(angle, k):
    c = parse_circuit(f"qreg 1\nrz({angle}) 0")
    assert c.gates == [Gate(GateKind.RZ_CLIFFORD, (0,), k=k)]
    assert parse_circuit(emit_circuit(c)) == c


@pytest.mark.parametrize("angle", ["0.0000000000001pi", "1.5pi/2", "0.25pi", "1", "-0.5"])
def test_parse_rejects_inexact_constants(angle):
    # near a multiple of pi/2 is not a multiple, and a bare numeral other than 0 is refused
    with pytest.raises(NonCliffordConstant):
        parse_circuit(f"qreg 1\nrz({angle}) 0")


def test_rz_argument_is_matched_in_linear_time():
    # a pattern that tries every split of a digit run took 5.8 s on this input
    start = time.perf_counter()
    with pytest.raises(NonCliffordConstant):
        parse_circuit(f"qreg 1\nrz({'1' * 20000}x) 0")
    assert time.perf_counter() - start < 1


def test_overlong_rz_constant_exits_1(tmp_path, capsys):
    # one parse-error line, in-process and as a process, and no traceback
    src = tmp_path / "long.zxc"
    src.write_text(f"qreg 1\nrz({'1' * 400}pi) 0\n")
    with pytest.raises(CircuitSyntaxError, match=f"more than {MAX_ANGLE_DIGITS} digits"):
        parse_circuit(src.read_text())
    assert main(["optimize", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "parse error: line 2, column 3" in err
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "zxparam.cli", "optimize", str(src)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1 and proc.stderr == err


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qreg 2\nh 0\nfrob 1\n")
    assert err.value.line == 3
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("h 0")  # missing qreg
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qreg 1\ncz 0 0")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qreg 1\nh 3")
    for token in ("\u00b2", "0" * 5000 + "1"):  # a digit int() does not read, more digits than it reads
        with pytest.raises(CircuitSyntaxError):
            parse_circuit(f"qreg 1\nh {token}")
    assert parse_circuit("qreg 2\nh 0001").gates[0].qubits == (1,)
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(f"# wide\nqreg {MAX_QUBITS + 1}\n")
    assert err.value.line == 2
    assert parse_circuit(f"qreg {MAX_QUBITS}\nh {MAX_QUBITS - 1}").n_qubits == MAX_QUBITS


@pytest.mark.parametrize("source, expected", [
    # zero-padded tokens, also past _MAX_QUBITS_DIGITS
    ("qreg 3\nh 02", (2,)), ("qreg 3\nrz(t0) 0002", (2,)), ("qreg 3\nh " + "0" * 9 + "1", (1,)),
    ("qreg 3\nh 007", "line 2, column 2: qubit 007 out of range (qreg 3)"),
    ("qreg 3\ncx 1 03", "line 2, column 5: qubit 03 out of range (qreg 3)"),
    # more digits than _MAX_QUBITS_DIGITS, and out of range
    ("qreg 3\nh 111111", "line 2, column 2: qubit 111111 out of range (qreg 3)"),
    ("qreg 3\ncx 0 999999", "line 2, column 5: qubit 999999 out of range (qreg 3)"),
    ("qreg 3\ncx 5 0", "line 2, column 3: qubit 5 out of range (qreg 3)"),
    ("qreg 3\nrz(t0) 3", "line 2, column 7: qubit 3 out of range (qreg 3)"),
    # decimal digits outside ASCII, and tokens that are not decimal
    ("qreg 3\nh \u0661", (1,)), ("qreg 3\ncx 0 \u0662", (0, 2)), ("qreg 3\nrz(t0) \uff11", (1,)),
    ("qreg 3\nh \u0663", "line 2, column 2: qubit \u0663 out of range (qreg 3)"),
    ("qreg 3\nh \u00b2", "line 2, column 2: expected qubit index, got '\u00b2'"),
    ("qreg 3\nh +1", "line 2, column 2: expected qubit index, got '+1'"),
    ("qreg 3\nh 1_0", "line 2, column 2: expected qubit index, got '1_0'"),
])
def test_qubit_tokens_outside_the_canonical_form(source, expected):
    """Every token but a qubit's plain decimal form takes the checked path,
    which keeps its value, message and column."""
    if isinstance(expected, tuple):
        assert parse_circuit(source).gates[0].qubits == expected
        return
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(source)
    assert str(err.value) == expected
    assert err.value.column == int(expected.split("column ")[1].split(":")[0])


@pytest.mark.parametrize("source, expected", [
    ("qreg 2\nrz(pi) 0", Gate(GateKind.RZ_CLIFFORD, (0,), k=2)),
    ("qreg 2\nrz(PI) 1", Gate(GateKind.RZ_CLIFFORD, (1,), k=2)),
    ("qreg 2\nrz(pid) 0", Gate(GateKind.RZ_PARAM, (0,), param="pid")),
    ("qreg 2\nrz(t0) 1", Gate(GateKind.RZ_PARAM, (1,), param="t0")),
    ("qreg 2\nrz(pi) 5", "line 2, column 7: qubit 5 out of range (qreg 2)"),
    ("qreg 2\nrz(PI) x", "line 2, column 7: expected qubit index, got 'x'"),
    ("qreg 2\nrz(pid) 5", "line 2, column 8: qubit 5 out of range (qreg 2)"),
    ("qreg 2\nrz(t0) 7", "line 2, column 7: qubit 7 out of range (qreg 2)"),
    ("qreg 2\nrz(pid/2) 0", "line 2, column 3: rz angle 'pid/2' is not of the form <k>pi/2"),
    ("qreg 2\nrz(t0) 0\nrz(t0) 1", "parameter 't0' used on two gates (line 3)"),
])
def test_rz_identifiers_and_pi(source, expected):
    """An identifier other than pi is a parameter without the angle pattern;
    errors and their columns are those of the angle path."""
    if isinstance(expected, Gate):
        assert parse_circuit(source).gates == [expected]
        return
    with pytest.raises((CircuitSyntaxError, RepeatedParameter)) as err:
        parse_circuit(source)
    assert str(err.value) == expected


def test_parsed_gates_equal_checked_gates():
    """The parser builds gates without Gate.__post_init__; each equals, field
    for field, the gate Gate(...) builds from the same fields."""
    from test_golden import CASES, verify_circuits
    circuits = [c for _, c in CASES + verify_circuits()]
    circuits += [random_circuit(Random(f"parsed/{i}"), 1 + i % 12, 10 * i, i) for i in range(40)]
    for c in circuits:
        parsed = parse_circuit(emit_circuit(c))
        assert parsed.gates == c.gates
        for g in parsed.gates:
            checked = Gate(g.kind, g.qubits, g.k, g.param)
            assert type(g) is Gate and vars(g) == vars(checked)


def test_parse_rz_in_any_case():
    # gate names are read without regard to case; parameter names keep theirs
    c = parse_circuit("QREG 1\nRZ(T0) 0\nRz(1pi/2) 0\nrZ(t0) 0")
    assert c.params == ["T0", "t0"]
    assert c.gates[1] == Gate(GateKind.RZ_CLIFFORD, (0,), k=1)
    assert emit_circuit(c).splitlines()[1:] == ["rz(T0) 0", "rz(1pi/2) 0", "rz(t0) 0"]


def test_parse_pi_in_any_case():
    c = parse_circuit("qreg 1\nRZ(1PI/2) 0\nrz(1Pi) 0\nrz(-3pI/2) 0")
    assert [g.k for g in c.gates] == [1, 2, 1]
    assert emit_circuit(c).splitlines()[1:] == ["rz(1pi/2) 0", "rz(2pi/2) 0", "rz(1pi/2) 0"]


def test_parse_rejects_repeated_parameter():
    with pytest.raises(RepeatedParameter):
        parse_circuit("qreg 2\nrz(t0) 0\nrz(t0) 1")


def test_comments_and_blank_lines():
    c = parse_circuit("# header\nqreg 2\n\nh 0  # apply h\ncx 0 1\n")
    assert len(c.gates) == 2


def test_round_trip_fusion_example():
    src = "qreg 1\nrz(t0) 0\nrz(t1) 0\n"
    c = parse_circuit(src)
    assert emit_circuit(c) == src
    assert parse_circuit(emit_circuit(c)) == c


def test_empty_circuit_emits_qreg_only():
    c = Circuit(3)
    assert emit_circuit(c) == "qreg 3\n"
    assert parse_circuit(emit_circuit(c)) == c


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_round_trip_random_circuits(seed):
    rng = Random(seed)
    n_gates = rng.randint(0, 25)
    c = random_circuit(rng, rng.randint(1, 6), n_gates, rng.randint(0, min(4, n_gates)))
    assert parse_circuit(emit_circuit(c)) == c


def test_h_gate_diagram_matches_hadamard():
    c = parse_circuit("qreg 1\nh 0")
    ok, _, _ = proportionality_ratio(
        tensor_eval(circuit_to_diagram(c)).amplitudes,
        flatten_unitary(circuit_unitary(c), 1), 1e-9)
    assert ok


def test_rz_diagram_at_sampled_angles():
    c = parse_circuit("qreg 1\nrz(a) 0")
    d = circuit_to_diagram(c)
    for alpha in (0.0, math.pi, math.pi / 3):
        ok, _, _ = proportionality_ratio(
            tensor_eval(d, {"a": alpha}).amplitudes,
            flatten_unitary(circuit_unitary(c, {"a": alpha}), 1), 1e-9)
        assert ok


def test_six_qubit_random_circuit_against_matrix_oracle():
    rng = Random(77)
    c = random_circuit(rng, 6, 20, 3)
    d = circuit_to_diagram(c)
    sampler = Random(78)
    for _ in range(3):
        assignment = {p: sampler.uniform(0, 2 * math.pi) for p in c.params}
        ok, _, dev = proportionality_ratio(
            tensor_eval(d, assignment).amplitudes,
            flatten_unitary(circuit_unitary(c, assignment), 6), 1e-9)
        assert ok, dev


def test_circuit_unitary_is_unitary():
    rng = Random(5)
    c = random_circuit(rng, 4, 15, 2)
    u = circuit_unitary(c, {p: 0.42 for p in c.params})
    assert np.allclose(u @ u.conj().T, np.eye(2 ** 4), atol=1e-12)


# -- reference unitary builder: one tensordot per gate, one sample per call ---

_H1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X1 = np.array([[0, 1], [1, 0]], dtype=complex)


def _rz(angle):
    return np.diag([1.0, np.exp(1j * angle)]).astype(complex)


def _apply_1q(state, gate, q, n):
    t = np.moveaxis(state.reshape((2,) * n + (-1,)), q, 0)
    t = np.moveaxis(np.tensordot(gate, t, axes=(1, 0)), 0, q)
    return t.reshape(state.shape)


def _apply_cz(state, q1, q2, n):
    t = state.reshape((2,) * n + (-1,)).copy()
    idx = [slice(None)] * (n + 1)
    idx[q1] = idx[q2] = 1
    t[tuple(idx)] *= -1
    return t.reshape(state.shape)


def _apply_cx(state, control, target, n):
    t = state.reshape((2,) * n + (-1,)).copy()
    idx0 = [slice(None)] * (n + 1)
    idx0[control] = 1
    idx1 = list(idx0)
    idx0[target], idx1[target] = 0, 1
    tmp = t[tuple(idx0)].copy()
    t[tuple(idx0)] = t[tuple(idx1)]
    t[tuple(idx1)] = tmp
    return t.reshape(state.shape)


def reference_unitary(c, assignment):
    n = c.n_qubits
    angles = {GateKind.S: math.pi / 2, GateKind.SDG: -math.pi / 2, GateKind.Z: math.pi}
    u = np.eye(2 ** n, dtype=complex)
    for g in c.gates:
        if g.kind is GateKind.H:
            u = _apply_1q(u, _H1, g.qubits[0], n)
        elif g.kind is GateKind.X:
            u = _apply_1q(u, _X1, g.qubits[0], n)
        elif g.kind in angles:
            u = _apply_1q(u, _rz(angles[g.kind]), g.qubits[0], n)
        elif g.kind is GateKind.RZ_CLIFFORD:
            u = _apply_1q(u, _rz(g.k * math.pi / 2), g.qubits[0], n)
        elif g.kind is GateKind.RZ_PARAM:
            u = _apply_1q(u, _rz(assignment[g.param]), g.qubits[0], n)
        elif g.kind is GateKind.CZ:
            u = _apply_cz(u, g.qubits[0], g.qubits[1], n)
        else:
            u = _apply_cx(u, g.qubits[0], g.qubits[1], n)
    return u


def every_kind_circuit(rng, n, n_random):
    """Every gate kind, two-qubit kinds in both qubit orders, then random gates."""
    gates = []
    for kind in GateKind:
        if kind in (GateKind.CZ, GateKind.CX):
            if n >= 2:
                a, b = sorted(rng.sample(range(n), 2))
                gates += [Gate(kind, (a, b)), Gate(kind, (b, a))]
        else:
            gates.append(Gate(kind, (rng.randrange(n),), k=rng.randrange(1, 4),
                              param=f"p{len(gates)}" if kind is GateKind.RZ_PARAM else None))
    one_qubit = [k for k in GateKind if k not in (GateKind.CZ, GateKind.CX)]
    for _ in range(n_random):
        if n >= 2 and rng.random() < 0.4:
            gates.append(Gate(rng.choice([GateKind.CZ, GateKind.CX]), tuple(rng.sample(range(n), 2))))
            continue
        kind = rng.choice(one_qubit)
        gates.append(Gate(kind, (rng.randrange(n),), k=rng.randrange(4),
                          param=f"p{len(gates)}" if kind is GateKind.RZ_PARAM else None))
    c = Circuit(n, gates)
    c.validate()
    return c


@pytest.mark.parametrize("n", range(1, 8))
def test_slice_kernels_match_tensordot_reference(n):
    rng = Random(900 + n)
    for _ in range(3):
        c = every_kind_circuit(rng, n, 30)
        samples = [{p: rng.uniform(0, 2 * math.pi) for p in c.params} for _ in range(3)]
        samples[0] = {p: 0.0 for p in c.params}
        stack = circuit_unitary(c, samples)
        assert stack.shape == (3, 2 ** n, 2 ** n)
        for sample, u in zip(samples, stack):
            ref = reference_unitary(c, sample)
            assert np.max(np.abs(u - ref)) <= 1e-12
            assert np.max(np.abs(circuit_unitary(c, sample) - ref)) <= 1e-12


def test_circuit_unitary_refuses_too_many_qubits():
    assert MAX_UNITARY_QUBITS == 10
    for n in (MAX_UNITARY_QUBITS + 1, 40):
        c = Circuit(n, [Gate(GateKind.H, (0,))])
        with pytest.raises(TooLarge):
            circuit_unitary(c)
        with pytest.raises(TooLarge):
            circuit_unitary(c, [{}, {}])


@pytest.mark.parametrize("n", [1, 3, 6])
def test_circuit_unitary_on_states_applies_the_unitary(n):
    rng = Random(930 + n)
    c = every_kind_circuit(rng, n, 30)
    samples = [{p: rng.uniform(0, 2 * math.pi) for p in c.params} for _ in range(3)]
    states = np.random.default_rng(n).standard_normal((2 ** n, 4)) + 0j
    stack = circuit_unitary(c, samples, states=states)
    assert stack.shape == (3, 2 ** n, 4)
    for sample, image in zip(samples, stack):
        dense = circuit_unitary(c, sample)
        assert np.max(np.abs(image - dense @ states)) <= 1e-12
        assert np.max(np.abs(circuit_unitary(c, sample, states=states[:, :1]) - dense @ states[:, :1])) <= 1e-12
    with pytest.raises(ValueError):
        circuit_unitary(c, samples, states=states[1:])


def test_circuit_unitary_on_states_refuses_too_many_qubits():
    assert MAX_PROBE_QUBITS == 16
    wide = Circuit(MAX_PROBE_QUBITS, [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, MAX_PROBE_QUBITS - 1))])
    state = np.zeros((2 ** MAX_PROBE_QUBITS, 1), dtype=complex)
    state[0] = 1
    image = circuit_unitary(wide, states=state).reshape(-1)
    # (|0> + |1>) |0...0> / sqrt 2, then qubit 0 copied onto the last qubit
    assert np.flatnonzero(image).tolist() == [0, 2 ** (MAX_PROBE_QUBITS - 1) + 1]
    assert image[0] == image[2 ** (MAX_PROBE_QUBITS - 1) + 1] == pytest.approx(math.sqrt(0.5))
    for n in (MAX_PROBE_QUBITS + 1, 40):
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(n, [Gate(GateKind.H, (0,))]), states=np.ones((1, 1)))
