"""Tests of the benchmark's own references, generators and tracing.

    python3 -m pytest perfbench

The closed-form optimum is the benchmark's reference for ``opt_phasepoly``
and for the verify and oracle jobs, so it is checked here against the
brute-force oracle, not against the optimiser.
"""

import json
from random import Random

import pytest

import zxparam.cli
import zxparam.rewrite
from zxparam.circuits import Circuit, Gate, GateKind, emit_circuit, parse_circuit
from zxparam.reduction import phase_teleport
from zxparam.verify import brute_force_min, check_reduction

from phasepoly import closed_form_optimum, optimal_reduction, param_parities, phase_poly_circuit
from run import percentile, tail_percentile
from spans import SPANS, Tracer
from workloads import MAX_DENSE_QUBITS, MAX_ORACLE_PARAMS, _fused_wrong, dense_guard, prepare

TINY = [(2 + i % 3, 8 + 2 * (i % 5), 2 + i % 4, i % 3) for i in range(24)]  # q, gates, params, wrap


@pytest.mark.parametrize("index", range(len(TINY)))
def test_closed_form_equals_brute_force(index):
    n, g, p, wrap = TINY[index]
    c = phase_poly_circuit(Random(f"tiny/{index}"), n, g, p, wrap)
    assert len(c.params) <= 5
    assert closed_form_optimum(c) == brute_force_min(c, max_params=5).count


@pytest.mark.parametrize("seed", range(6))
def test_known_answer_inputs(seed):
    c = phase_poly_circuit(Random(seed), 4, 30, 6, 6)
    good, good_map = optimal_reduction(c)
    assert len(good.params) == closed_form_optimum(c) == len(phase_teleport(c).circuit.params)
    assert check_reduction(c, good, good_map).holds
    if closed_form_optimum(c) >= 2:
        bad, bad_map = _fused_wrong(c)
        assert not check_reduction(c, bad, bad_map).holds


def test_parities_track_cnot_and_x():
    c = parse_circuit("qreg 2\nrz(a) 1\ncx 0 1\nx 1\nrz(b) 1\ncx 0 1\nrz(c) 1\n")
    assert param_parities(c) == {"a": (0b10, 0), "b": (0b11, 1), "c": (0b10, 1)}
    assert closed_form_optimum(c) == 2


def test_parities_refuse_clifford_gates_between_parameters():
    c = Circuit(2, [Gate(GateKind.RZ_PARAM, (0,), param="a"), Gate(GateKind.H, (0,)),
                    Gate(GateKind.RZ_PARAM, (0,), param="b")])
    with pytest.raises(ValueError):
        param_parities(c)


def test_dense_guard():
    dense_guard(phase_poly_circuit(Random(0), MAX_DENSE_QUBITS, 20, 4))
    with pytest.raises(ValueError):
        dense_guard(phase_poly_circuit(Random(0), MAX_DENSE_QUBITS + 1, 20, 4))
    with pytest.raises(ValueError):
        dense_guard(phase_poly_circuit(Random(0), 3, 20, MAX_ORACLE_PARAMS + 1), MAX_ORACLE_PARAMS)


def test_verify_dense_inputs_are_small_and_seeded(tmp_path):
    jobs = prepare("verify_dense", 3, tmp_path / "a")
    assert jobs == prepare("verify_dense", 3, tmp_path / "b")
    for job in jobs:
        assert job["qubits"] <= MAX_DENSE_QUBITS
        assert job["kind"] != "oracle" or job["params_in"] <= MAX_ORACLE_PARAMS
        for name in job["argv"]:
            if (tmp_path / "a" / name).is_file():
                assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    assert {job["case"] for job in jobs if job["kind"] == "verify"} == {"correct", "wrong_parity", "identity"}


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert tail_percentile(20) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    with pytest.raises(ValueError):
        tail_percentile(19)
    assert percentile([3.0, 1.0, 2.0, 4.0], 75) == 3.0


def test_tracer_restores_functions_and_changes_nothing(tmp_path, capsys):
    c = phase_poly_circuit(Random(1), 4, 30, 6, 4)
    (tmp_path / "c.zxc").write_text(emit_circuit(c))
    argv = ["optimize", str(tmp_path / "c.zxc"), "--report", str(tmp_path / "m.json")]
    originals = {name: getattr(*targets[0]) for name, targets in SPANS.items()}

    assert zxparam.cli.main(argv) == 0
    plain = (capsys.readouterr().out, (tmp_path / "m.json").read_text())
    tracer = Tracer()
    with tracer.active():
        assert zxparam.cli.main(argv) == 0
    assert (capsys.readouterr().out, (tmp_path / "m.json").read_text()) == plain

    assert {name: getattr(*targets[0]) for name, targets in SPANS.items()} == originals
    _, events = zxparam.rewrite.simplify(zxparam.circuits.circuit_to_diagram(c), seed=0)
    assert tracer.counts["rewrite.steps"] == len(events)
    assert sum(tracer.rule_histograms[0].values()) == len(events)
    assert tracer.calls["rewrite.simplify"] == 1
    assert tracer.inclusive["reduction.phase_teleport"] >= tracer.inclusive["rewrite.simplify"] > 0
    assert json.loads(plain[1])["params_out"] == [f"u{i}" for i in range(closed_form_optimum(c))]
