import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import zxparam.circuits
from zxparam.circuits import MAX_QUBITS, emit_circuit, parse_circuit
from zxparam.cli import main
from zxparam.diagram import Diagram, NKind, SpiderNetwork
from zxparam.errors import NotTerminalForm
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap
from zxparam.rewrite import Rewriter
from zxparam.verify import MAX_ORACLE_PARAMS, MAX_SAMPLES

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


def test_optimize_and_verify_copy_no_diagram(tmp_path, monkeypatch):
    # both commands simplify a diagram they have just built, so in place
    code, src, out, report = run_optimize(tmp_path, FUSION)
    copies = []
    real = Diagram.copy

    def counting(d):
        copies.append(d)
        return real(d)

    monkeypatch.setattr(Diagram, "copy", counting)
    assert main(["verify", str(src), str(out), str(report)]) == 0
    assert run_optimize(tmp_path, FUSION)[0] == 0
    assert copies == []


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


@pytest.mark.parametrize("command", ["oracle"])
def test_samples_above_the_cap_exit_1(tmp_path, capsys, command):
    # every sample costs time, and the oracle keeps one image per sample;
    # verify takes no samples (see MALFORMED)
    assert main(cli_args(tmp_path, command) + ["--samples", str(MAX_SAMPLES)]) == 0
    capsys.readouterr()
    for bad in (MAX_SAMPLES + 1, 100_000_000):
        assert main(cli_args(tmp_path, command) + ["--samples", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("bad configuration")
        assert f"between 2 and {MAX_SAMPLES}, got {bad}" in err


MALFORMED = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "optimize-no-path": ["optimize"],
    "seed-not-integer": ["optimize", "{src}", "--seed", "abc"],
    "optimize-samples": ["optimize", "{src}", "--samples", "5"],
    "optimize-tol": ["optimize", "{src}", "--tol", "1e-9"],
    "optimize-oracle-max-params": ["optimize", "{src}", "--oracle-max-params", "4"],
    "verify-oracle-max-params": ["verify", "{src}", "{opt}", "{map}", "--oracle-max-params", "4"],
    "verify-samples": ["verify", "{src}", "{opt}", "{map}", "--samples", "5"],
    "verify-tol": ["verify", "{src}", "{opt}", "{map}", "--tol", "1e-9"],
    "verify-two-paths": ["verify", "{src}", "{opt}"],
    "verify-four-paths": ["verify", "{src}", "{opt}", "{map}", "{src}"],
    "oracle-two-paths": ["oracle", "{src}", "{opt}"],
    "optimize-several-out": ["optimize", "{src}", "{opt}", "--out", "{new}"],
    "optimize-several-report": ["optimize", "{src}", "{opt}", "--report", "{new}"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_command_line_exits_1(tmp_path, capsys, argv):
    # argparse's own errors would exit 2, the code of an internal invariant violation
    _, src, opt, mapping = cli_args(tmp_path, "verify")
    before = sorted(tmp_path.iterdir())
    paths = {"src": src, "opt": opt, "map": mapping, "new": tmp_path / "new"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("bad configuration: ")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["optimize", "verify", "oracle"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: zxparam {command}")


@pytest.mark.parametrize("text, field", [
    ("[]", "the map"), ('"x"', "the map"), ('{"params_in": 5, "rows": []}', "params_in"),
    ('{"params_in": ["t0", "t1"], "rows": null}', "rows"),
    ('{"params_in": ["t0", "t1"], "rows": [{"name": "u0", "terms": 7, "const_pi_over_2": 0}]}',
     "rows[0].terms")], ids=["list", "string", "params_in", "rows", "terms"])
def test_verify_malformed_map_exits_1(tmp_path, capsys, text, field):
    args = cli_args(tmp_path, "verify")
    args[-1] = str(write(tmp_path, "bad.json", text))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"verify: cannot load inputs: {field} must be ")


def test_verify_inconsistent_map_exits_1(tmp_path, capsys):
    # the rows keep t0, which the map also lists as eliminated, and params_out names another row
    args = cli_args(tmp_path, "verify")
    row = {"name": "u0", "terms": [["t0", 1]], "const_pi_over_2": 0}
    for extra, reason in [({"params_out": ["zz"]}, 'params_out ["zz"] does not match the row names ["u0"]'),
                          ({}, "eliminated parameter 't0' appears in row u0")]:
        args[-1] = str(write(tmp_path, "bad.json", json.dumps(
            {"params_in": ["t0", "t1"], **extra, "rows": [row], "eliminated": ["t0"]})))
        assert main(args) == 1
        assert capsys.readouterr().err == f"verify: cannot load inputs: {reason}\n"


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


def test_outputs_take_the_umask_mode(tmp_path):
    # every output is made as open() would make it, not with a temporary file's 0600
    old = os.umask(0o022)
    try:
        code, src, out, report = run_optimize(tmp_path, FUSION)
        assert main(["optimize", str(src)]) == 0
        verify_report = tmp_path / "verify.json"
        assert main(["verify", str(src), str(out), str(report), "--report", str(verify_report)]) == 0
        plain = write(tmp_path, "plain.txt", "")
    finally:
        os.umask(old)
    outputs = [out, report, tmp_path / "in.zxc.opt", tmp_path / "in.zxc.map.json", verify_report]
    assert {stat.S_IMODE(path.stat().st_mode) for path in outputs} == {stat.S_IMODE(plain.stat().st_mode)}
    assert not list(tmp_path.glob("*.tmp"))


SRC = Path(__file__).resolve().parent.parent / "src"
# main() in a new interpreter: stdout is main's, stderr's last line the exit
# code and whether numpy was imported
FRESH_MAIN = """
import sys
from zxparam.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


def fresh_main(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    code, numpy_loaded = proc.stderr.splitlines()[-1].split()
    return int(code), numpy_loaded == "True", proc.stdout


def test_cold_start_loads_numpy_only_to_simulate(tmp_path, capsys):
    # importing the package, optimising and verifying (zxparam.frame and the
    # certificate) never import numpy; oracle simulates, so it imports numpy
    # on first use; both behave as in this process
    src = write(tmp_path, "in.zxc", "qreg 2\nrz(t0) 0\ncx 0 1\nrz(t1) 0\ncx 0 1\nh 1\nrz(t2) 1\n")
    assert fresh_main(["optimize", str(src)])[:2] == (0, False)
    opt, mapping = tmp_path / "in.zxc.opt", tmp_path / "in.zxc.map.json"
    for argv, simulates in ((["verify", str(src), str(opt), str(mapping)], False), (["oracle", str(src)], True)):
        capsys.readouterr()
        code = main(argv)
        assert fresh_main(argv) == (code, simulates, capsys.readouterr().out)


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
    assert payload["exact"] == {"holds": True, "failure": None}
    assert payload["merge_bound"] == 1
    assert payload["certificate"]["passed"] is True


def test_verify_rejects_unoptimised_output(tmp_path, capsys):
    # the identity map keeps both parameters; the certificate proves one suffices
    src = write(tmp_path, "in.zxc", FUSION)
    identity = write(tmp_path, "id.json", ReductionMap.identity(["t0", "t1"]).to_text())
    assert main(["verify", str(src), str(src), str(identity)]) == 3
    assert "FAILED optimality" in capsys.readouterr().out


def test_verify_names_the_failed_condition(tmp_path, capsys):
    # t0 and t1 sit on different parities: fused, t1 turns from Z0 Z1 into Z0
    verify_report = tmp_path / "verify.json"
    assert main(wrong_fusion_args(tmp_path) + ["--report", str(verify_report)]) == 3
    reason = "condition (ii): t1 acts on different Paulis in the two circuits"
    assert capsys.readouterr().out == f"verify: FAILED exact check, {reason}\n"
    assert json.loads(verify_report.read_text())["exact"] == {"holds": False, "failure": reason}


def wide(n):
    return f"qreg {n}\nh 0\nrz(t0) 0\ncx 0 {n - 1}\nrz(t1) {n - 1}\n"


def test_verify_decides_past_the_probe_limit(tmp_path, capsys):
    # the exact check keeps no state vector, so the 16-qubit probe limit of
    # check_reduction does not apply: a correct map passes, a wrong fusion fails
    fused = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,))
    mapping = write(tmp_path, "fused.json", fused.to_text())
    for n in (40, 17):
        code, src, out, report = run_optimize(tmp_path, wide(n))
        assert code == 0
        assert main(["verify", str(src), str(out), str(report)]) == 0
        assert "verify: OK (exact check passed, merge bound 2;" in capsys.readouterr().out
        wrong = write(tmp_path, "fused.zxc", f"qreg {n}\nh 0\nrz(u0) 0\ncx 0 {n - 1}\n")
        assert main(["verify", str(src), str(wrong), str(mapping)]) == 3
        assert capsys.readouterr().out == \
            "verify: FAILED exact check, condition (ii): t1 acts on different Paulis in the two circuits\n"


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
    # 12 qubits: a dense unitary check was refused, the exact check takes milliseconds
    code, src, out, report = run_optimize(tmp_path, emit_circuit(random_circuit(Random(12), 12, 300, 60)))
    assert code == 0
    count = len(parse_circuit(out.read_text()).params)
    assert main(["verify", str(src), str(out), str(report)]) == 0
    assert capsys.readouterr().out.endswith(
        f"verify: OK (exact check passed, merge bound {count}; certificate passed, {count} parameters)\n")


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


def wrong_fusion_args(tmp_path):
    """verify on a map that fuses t0 and t1, which sit on different parities:
    the exact check fails condition (ii) at t1."""
    src = write(tmp_path, "in.zxc", "qreg 2\nrz(t0) 0\ncx 0 1\nrz(t1) 1\n")
    fused = write(tmp_path, "fused.zxc", "qreg 2\nrz(u0) 0\ncx 0 1\n")
    mapping = ReductionMap(("t0", "t1"), ("u0",), ((("t0", 1), ("t1", 1)),), (0,))
    return ["verify", str(src), str(fused), str(write(tmp_path, "fused.json", mapping.to_text()))]


WRONG_FUSION_LINE = "verify: FAILED exact check, condition (ii): t1 acts on different Paulis in the two circuits\n"


def test_failed_ratio_check_skips_the_certificate(tmp_path, monkeypatch, capsys):
    # the certificate is not read after a failed exact check, so simplify
    # never runs: not even a simplify that would fail turns exit 3 into 2
    def refuse(*args, **kwargs):
        raise NotTerminalForm("simplify must not run")

    monkeypatch.setattr(zxparam.cli, "simplify", refuse)
    assert main(wrong_fusion_args(tmp_path)) == 3
    out, err = capsys.readouterr()
    assert out == WRONG_FUSION_LINE and err == ""


def test_failed_ratio_check_reports_the_certificate(tmp_path, monkeypatch, capsys):
    calls = []
    real = zxparam.cli.simplify

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zxparam.cli, "simplify", counting)
    verify_report = tmp_path / "verify.json"
    assert main(wrong_fusion_args(tmp_path) + ["--report", str(verify_report)]) == 3
    assert capsys.readouterr().out == WRONG_FUSION_LINE
    assert len(calls) == 1
    payload = json.loads(verify_report.read_text())
    assert list(payload) == ["exact", "merge_bound", "certificate"]
    assert json.dumps(payload["certificate"]) == \
        '{"passed": true, "failures": [], "n_parameters": 2, "n_gadgets": 0}'


def test_failed_ratio_check_with_report_still_exits_2_on_a_failed_simplify(tmp_path, monkeypatch, capsys):
    # --report needs the certificate, so a simplify failure still decides the exit code
    def refuse(*args, **kwargs):
        raise NotTerminalForm("no terminal form")

    monkeypatch.setattr(zxparam.cli, "simplify", refuse)
    verify_report = tmp_path / "verify.json"
    assert main(wrong_fusion_args(tmp_path) + ["--report", str(verify_report)]) == 2
    assert "no terminal form" in capsys.readouterr().err
    assert not verify_report.exists()
