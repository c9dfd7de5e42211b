import json
from random import Random

import pytest

import zxparam.circuits
from zxparam.circuits import MAX_QUBITS, emit_circuit, parse_circuit
from zxparam.cli import main
from zxparam.diagram import NKind, SpiderNetwork
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap
from zxparam.rewrite import Rewriter
from zxparam.verify import MAX_ORACLE_PARAMS

FUSION = "qreg 1\nrz(t0) 0\nrz(t1) 0\n"
CLIFFORD_ONLY = "qreg 2\nh 0\ncx 0 1\ns 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_optimize(tmp_path, source):
    src = write(tmp_path, "in.zxc", source)
    out = tmp_path / "out.zxc"
    report = tmp_path / "map.json"
    code = main(["optimize", str(src), "--out", str(out), "--report", str(report)])
    return code, src, out, report


def test_optimize_fusion_example(tmp_path, capsys):
    code, src, out, report = run_optimize(tmp_path, FUSION)
    assert code == 0
    printed = capsys.readouterr().out
    assert "parameters 2 -> 1" in printed
    assert "u0 = t0 + t1" in printed
    optimised = parse_circuit(out.read_text())
    assert optimised.params == ["u0"]
    data = json.loads(report.read_text())
    assert data["rows"][0]["name"] == "u0"
    assert data["rows"][0]["terms"] == [["t0", 1], ["t1", 1]]
    assert data["rows"][0]["const_pi_over_2"] == 0


def test_optimize_clifford_only(tmp_path):
    code, src, out, report = run_optimize(tmp_path, CLIFFORD_ONLY)
    assert code == 0
    optimised = parse_circuit(out.read_text())
    original = parse_circuit(CLIFFORD_ONLY)
    assert optimised.params == []
    assert sorted(g.kind.value for g in optimised.gates) == sorted(g.kind.value for g in original.gates)


def test_optimize_malformed_file(tmp_path, capsys):
    src = write(tmp_path, "bad.zxc", "qreg 1\nbogus 0\n")
    assert main(["optimize", str(src)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_verify_round_trip(tmp_path):
    code, src, out, report = run_optimize(tmp_path, FUSION)
    assert main(["verify", str(src), str(out), str(report)]) == 0


def test_verify_flipped_sign_exits_3(tmp_path):
    code, src, out, report = run_optimize(tmp_path, FUSION)
    data = json.loads(report.read_text())
    data["rows"][0]["terms"][1][1] = -1
    bad = write(tmp_path, "bad_map.json", json.dumps(data))
    assert main(["verify", str(src), str(out), str(bad)]) == 3


def test_verify_mismatched_qubits_exits_1(tmp_path):
    code, src, out, report = run_optimize(tmp_path, FUSION)
    other = write(tmp_path, "other.zxc", "qreg 2\nrz(u0) 0\n")
    assert main(["verify", str(src), str(other), str(report)]) == 1


def test_oracle_fusion_example(tmp_path, capsys):
    src = write(tmp_path, "in.zxc", FUSION)
    assert main(["oracle", str(src)]) == 0
    assert "min = 1" in capsys.readouterr().out


def test_oracle_h_separated(tmp_path, capsys):
    src = write(tmp_path, "in.zxc", "qreg 1\nrz(t0) 0\nh 0\nrz(t1) 0\n")
    assert main(["oracle", str(src)]) == 0
    assert "min = 2" in capsys.readouterr().out


def test_oracle_zero_parameters(tmp_path, capsys):
    src = write(tmp_path, "in.zxc", CLIFFORD_ONLY)
    assert main(["oracle", str(src)]) == 0
    assert "min = 0" in capsys.readouterr().out


def test_oracle_too_many_params_exits_1(tmp_path):
    gates = "\n".join(f"rz(t{i}) 0" for i in range(5))
    src = write(tmp_path, "in.zxc", f"qreg 1\n{gates}\n")
    assert main(["oracle", str(src)]) == 1  # above default --oracle-max-params 4
    assert main(["oracle", str(src), "--oracle-max-params", "5"]) == 0


@pytest.mark.parametrize("bad", ["-3", "-1", "6", "8"])
def test_oracle_max_params_outside_limit_exits_1(tmp_path, capsys, bad):
    # above MAX_ORACLE_PARAMS the search runs for minutes, so it is refused
    # before any work, on the circuit that would otherwise be searched
    gates = "\n".join(f"rz(t{i}) 0" for i in range(8))
    src = write(tmp_path, "in.zxc", f"qreg 1\n{gates}\n")
    assert main(["oracle", str(src), "--oracle-max-params", bad]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bad configuration")
    assert f"between 0 and {MAX_ORACLE_PARAMS}, got {bad}" in err


def test_reports_byte_identical_across_runs(tmp_path):
    src = write(tmp_path, "in.zxc", "qreg 2\nrz(t0) 0\ncx 0 1\nrz(t1) 0\ncx 0 1\nh 1\nrz(t2) 1\n")
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}.zxc"
        report = tmp_path / f"map{run}.json"
        assert main(["optimize", str(src), "--seed", "9", "--out", str(out),
                     "--report", str(report)]) == 0
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_env_seed_fallback(tmp_path, monkeypatch):
    src = write(tmp_path, "in.zxc", FUSION)
    outs = []
    for run in range(2):
        monkeypatch.setenv("ZXPARAM_SEED", "17")
        out = tmp_path / f"env{run}.zxc"
        report = tmp_path / f"env{run}.json"
        assert main(["optimize", str(src), "--out", str(out), "--report", str(report)]) == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def test_bad_configuration_exits_1(tmp_path, capsys):
    src = write(tmp_path, "in.zxc", FUSION)
    assert main(["optimize", str(src), "--samples", "1"]) == 1
    assert main(["optimize", str(src), "--tol", "0"]) == 1
    assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-0.5"]],
                         ids=["seed-1", "tol-nan", "tol-inf", "tol-negative"])
def test_bad_seed_or_tolerance_exits_1(tmp_path, capsys, command, bad):
    assert main(cli_args(tmp_path, command) + bad) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bad configuration")


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
def test_negative_env_seed_exits_1(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("ZXPARAM_SEED", "-1")
    assert main(cli_args(tmp_path, command)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad configuration" in err and "-1" in err


def unreadable(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.zxc"
    if kind == "directory":
        (tmp_path / "dir.zxc").mkdir()
        return tmp_path / "dir.zxc"
    path = tmp_path / "latin1.zxc"
    path.write_bytes(b"qreg 1\n# caf\xe9\n")
    return path


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_input_exits_1(tmp_path, capsys, command, kind):
    args = cli_args(tmp_path, command)
    args[-1] = str(unreadable(tmp_path, kind))  # the circuit, or the map of verify
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{args[-1]}: cannot read" in err


def test_unreadable_input_leaves_other_inputs_optimised(tmp_path):
    good = write(tmp_path, "good.zxc", FUSION)
    assert main(["optimize", str(tmp_path / "missing.zxc"), str(good)]) == 1
    assert (tmp_path / "good.zxc.opt").exists()


@pytest.mark.parametrize("command, option", [("optimize", "--out"), ("optimize", "--report"),
                                             ("verify", "--report"), ("oracle", "--report")])
def test_unwritable_output_exits_1(tmp_path, capsys, command, option):
    target = tmp_path / "no_such_dir" / "out"
    assert main(cli_args(tmp_path, command) + [option, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{target}: cannot write" in err
    assert not list(tmp_path.glob("**/*.tmp"))


def test_optimize_multiple_inputs(tmp_path):
    a = write(tmp_path, "a.zxc", FUSION)
    b = write(tmp_path, "b.zxc", CLIFFORD_ONLY)
    assert main(["optimize", str(a), str(b)]) == 0
    assert (tmp_path / "a.zxc.opt").exists()
    assert (tmp_path / "b.zxc.opt").exists()
    assert parse_circuit((tmp_path / "a.zxc.opt").read_text()).params == ["u0"]
    assert json.loads((tmp_path / "a.zxc.map.json").read_text())["params_out"] == ["u0"]


def test_verify_report_file(tmp_path):
    code, src, out, report = run_optimize(tmp_path, FUSION)
    verify_report = tmp_path / "verify.json"
    assert main(["verify", str(src), str(out), str(report), "--report", str(verify_report)]) == 0
    payload = json.loads(verify_report.read_text())
    assert payload["proportionality"]["holds"] is True
    assert payload["certificate"]["passed"] is True


def test_verify_rejects_unoptimised_output(tmp_path, capsys):
    # the identity map keeps both parameters; the certificate proves one suffices
    src = write(tmp_path, "in.zxc", FUSION)
    identity = write(tmp_path, "id.json", ReductionMap.identity(["t0", "t1"]).to_text())
    assert main(["verify", str(src), str(src), str(identity)]) == 3
    assert "FAILED optimality" in capsys.readouterr().out


def test_verify_names_first_failing_sample(tmp_path, capsys):
    # t0 and t1 sit on different parities: fusing them fails at the sample t1 = pi
    src = write(tmp_path, "in.zxc", "qreg 2\nrz(t0) 0\ncx 0 1\nrz(t1) 1\n")
    fused = write(tmp_path, "fused.zxc", "qreg 2\nrz(u0) 0\ncx 0 1\n")
    mapping = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,))
    bad = write(tmp_path, "fused.json", mapping.to_text())
    verify_report = tmp_path / "verify.json"
    assert main(["verify", str(src), str(fused), str(bad), "--report", str(verify_report)]) == 3
    assert "first failing sample 2 " in capsys.readouterr().out
    deviations = json.loads(verify_report.read_text())["proportionality"]["deviations"]
    assert deviations[:2] == [0.0, 0.0] and deviations[2] > 1e-9


def wide(n):
    return f"qreg {n}\nh 0\nrz(t0) 0\ncx 0 {n - 1}\nrz(t1) {n - 1}\n"


def test_verify_too_many_qubits_exits_1(tmp_path, capsys):
    identity = write(tmp_path, "id.json", ReductionMap.identity(["t0", "t1"]).to_text())
    for n in (40, 17):  # the probe state limit is 16 qubits
        src = write(tmp_path, "wide.zxc", wide(n))
        assert main(["verify", str(src), str(src), str(identity)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{n} qubits" in err


def test_oracle_too_many_qubits_exits_1(tmp_path, capsys):
    for n in (40, 17):
        src = write(tmp_path, "wide.zxc", wide(n))
        assert main(["oracle", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{n} qubits" in err


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
@pytest.mark.parametrize("width", [str(MAX_QUBITS + 1), "9" * 5000])  # int() refuses 5000 digits
def test_qreg_above_max_qubits_exits_1(tmp_path, capsys, command, width):
    src = write(tmp_path, "wide.zxc", f"qreg {width}\nh 0\nrz(t0) 0\n")
    argv = [command, str(src)]
    if command == "verify":
        argv += [str(src), str(write(tmp_path, "id.json", ReductionMap.identity(["t0"]).to_text()))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"line 1, column 5: qreg exceeds the limit of {MAX_QUBITS} qubits" in err


def test_verify_past_the_dense_limit(tmp_path, capsys):
    # 12 qubits: a dense unitary check was refused, the probe check takes well under a second
    code, src, out, report = run_optimize(tmp_path, emit_circuit(random_circuit(Random(12), 12, 300, 60)))
    assert code == 0
    assert main(["verify", str(src), str(out), str(report)]) == 0
    assert "verify: OK (66 samples" in capsys.readouterr().out


def test_non_integer_env_seed_exits_1(tmp_path, monkeypatch, capsys):
    src = write(tmp_path, "in.zxc", FUSION)
    monkeypatch.setenv("ZXPARAM_SEED", "abc")
    assert main(["optimize", str(src)]) == 1
    assert "ZXPARAM_SEED" in capsys.readouterr().err


def cli_args(tmp_path, command):
    src = write(tmp_path, "in.zxc", FUSION)
    if command == "verify":
        opt = write(tmp_path, "out.zxc", "qreg 1\nrz(u0) 0\n")
        mapping = write(tmp_path, "map.json", ReductionMap(
            ("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,)).to_text())
        return ["verify", str(src), str(opt), str(mapping)]
    return [command, str(src)]


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
def test_safety_cap_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(Rewriter, "step", lambda self: [])  # never reaches a fixpoint
    assert main(cli_args(tmp_path, command)) == 2
    assert "safety cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
def test_conversion_failure_exits_2(tmp_path, monkeypatch, capsys, command):
    def broken_network(c):
        net = SpiderNetwork()
        net.wire(net.node(NKind.INPUT, position=0), net.node(NKind.HBOX))
        return net

    monkeypatch.setattr(zxparam.circuits, "circuit_to_network", broken_network)
    assert main(cli_args(tmp_path, command)) == 2
    assert "Hadamard box" in capsys.readouterr().err
