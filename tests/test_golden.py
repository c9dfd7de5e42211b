"""Byte-identical command output on fixed-seed circuits.

Each ``GOLDEN`` entry pins the SHA-256 of the emitted circuit and of the
``.map.json`` report that ``zxparam optimize --seed 0`` writes for one
circuit.  Those digests were recorded before the incremental rewrite driver
and the union-find graph-like conversion replaced the rescanning ones, so any
change to the rewrite picks, the conversion or the extraction shows up here.

Each ``GOLDEN_VERIFY`` entry pins the exit code, stdout and ``--report`` JSON
of ``zxparam verify`` on one circuit and one map (the optimiser's own, one
that fuses two different parities, and the identity on the unoptimised
circuit), run with and without ``--report``; each ``GOLDEN_ORACLE`` entry pins
the same for ``zxparam oracle``.  The oracle digests were recorded before
the sample dicts of ``brute_force_min`` became one array.  The verify
digests were recorded again when ``verify`` replaced the sampled ratio check
with the exact Pauli-frame check and the merge bound, and the certificate
stopped reporting one defect twice; every case kept its exit code and its
OK or FAILED verdict.  Ratios and deviations differ in their last bits
between numpy builds and CPUs (most deviations of a passing check are
rounding noise near 1e-16), so every float in the output is rounded to 9
decimals before hashing; the exit code, the verdicts, the counts and all
other text are hashed as they are.

Regenerate (only after a deliberate change of the output):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from pathlib import Path
from random import Random
from typing import Dict, List, Tuple

import pytest

from zxparam.circuits import Circuit, Gate, GateKind, emit_circuit, parse_circuit
from zxparam.cli import main
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap, phase_teleport

# (qubits, gates, params, circuits)
RANDOM_LADDER = [(6, 60, 12, 3), (8, 120, 24, 2), (10, 200, 40, 2), (12, 300, 60, 2)]
# (qubits, gates, params, Clifford gates on each side, circuits)
PHASEPOLY_LADDER = [(5, 48, 10, 8, 3), (6, 80, 16, 12, 2), (7, 100, 20, 14, 2), (8, 120, 24, 16, 2)]


def phase_poly_circuit(rng: Random, n: int, n_gates: int, n_params: int, wrap: int) -> Circuit:
    """CNOT/X/rz(t) body between two random Clifford layers."""
    body: List[Gate] = []
    for _ in range(n_gates - n_params):
        if rng.random() < 0.85:
            body.append(Gate(GateKind.CX, tuple(rng.sample(range(n), 2))))
        else:
            body.append(Gate(GateKind.X, (rng.randrange(n),)))
    for i, pos in enumerate(sorted(rng.sample(range(n_gates), n_params))):
        body.insert(pos, Gate(GateKind.RZ_PARAM, (rng.randrange(n),), param=f"t{i}"))
    before = random_circuit(rng, n, wrap, 0).gates
    after = random_circuit(rng, n, wrap, 0).gates
    return Circuit(n, before + body + after)


def ladder() -> List[Tuple[str, Circuit]]:
    out = []
    for n, g, p, count in RANDOM_LADDER:
        for i in range(count):
            out.append((f"r{n}q{g}g-{i}", random_circuit(Random(f"golden/r{n}/{i}"), n, g, p)))
    for n, g, p, wrap, count in PHASEPOLY_LADDER:
        for i in range(count):
            out.append((f"p{n}q{g}g-{i}", phase_poly_circuit(Random(f"golden/p{n}/{i}"), n, g, p, wrap)))
    return out


def digest(directory: Path, name: str, c: Circuit) -> str:
    src = directory / f"{name}.zxc"
    src.write_text(emit_circuit(c))
    out, report = directory / f"{name}.opt", directory / f"{name}.map.json"
    code = main(["optimize", str(src), "--out", str(out), "--report", str(report), "--seed", "0"])
    assert code == 0
    h = hashlib.sha256()
    h.update(out.read_bytes())
    h.update(b"\0")
    h.update(report.read_bytes())
    return h.hexdigest()


GOLDEN: Dict[str, str] = {
    "r6q60g-0": "bd4d40c436d26b70e1fa788596b85b7a813a7ab32b3208e7caee7f69eec15f35",
    "r6q60g-1": "e075fa04946ec03e1d9fe787ac10ae1fa246005c15870b83c941203ee6bcac0c",
    "r6q60g-2": "c0bac9ff9867508c237db7ad214398dfcc315ab481352ccd8ec740db9dc93f1d",
    "r8q120g-0": "7b3677ccbbdb833debf016047bd17cb275c5cc50fbd1eadcb2e165a085b9b9d1",
    "r8q120g-1": "e75ed8d7a67c45febf1f3414502200589e1488a7ab57387020edfc28269799b5",
    "r10q200g-0": "7c69ec82c2a67d78a449463ba4a76e640e81b65863c0c3a1a598f55235e3ac33",
    "r10q200g-1": "453529ebfdf053c136b396c6329aba647fd431827a66dbcf5003d4070a954e19",
    "r12q300g-0": "c871728b538544f6f16004747efe0143395cdf02e88f13a2f3ffd188deda7ec5",
    "r12q300g-1": "ae11b6a0b423f769338c569bbb4b47982b0d536ebd184cfe6e29607fe75c2214",
    "p5q48g-0": "65bcb12c5c8e18eb5806fd90fa31cdfe08953979e8c30e86caf57a479389888c",
    "p5q48g-1": "9a7657dab4db1d15d7df1d0e2a4a2dcb86078be510bb46585e3de45a0f403577",
    "p5q48g-2": "9c346c7fe9c649fd75c5421da4c5338731bb174278cb5a993d792098c7f5ab00",
    "p6q80g-0": "1606abb73818bb7e3804c1ff3ce8b23e419bffb260f381877807ad7e2327fa4f",
    "p6q80g-1": "90085d4c66c360a50fdbf292a390605daf5095e029f5aa6b0e2c3d536bdb03ba",
    "p7q100g-0": "f7a3e2c2264ff79f6865c2f127c939834253993864ef39ad5ab074e3177e2262",
    "p7q100g-1": "aead964421c537e635d53deaa44647ba632e05dc2c86f7cf045a3b1484073cf4",
    "p8q120g-0": "76027fa540d30383d9994ddbc8aaf18a7cb020617a1fee0186c9a49cdf929937",
    "p8q120g-1": "c9ed39615dee7190aa2326268fb514d99ada5b54ffa4b9e73685546d2030db43",
}

CASES = ladder()


@pytest.mark.parametrize("name,circuit", CASES, ids=[name for name, _ in CASES])
def test_optimize_output_is_byte_identical(tmp_path, capsys, name, circuit):
    assert digest(tmp_path, name, circuit) == GOLDEN[name]


# (qubits, gates, params, circuits): random circuits, then phase polynomials
# with (qubits, gates, params, Clifford gates on each side, circuits)
VERIFY_RANDOM = [(2, 12, 0, 1), (3, 20, 4, 2), (4, 30, 6, 2), (6, 60, 10, 2)]
VERIFY_PHASEPOLY = [(5, 40, 6, 10, 2), (6, 60, 10, 10, 2)]
ORACLE_RANDOM = [(1, 6, 2, 1), (2, 12, 3, 2), (3, 16, 4, 2), (4, 24, 3, 2)]
ORACLE_PHASEPOLY = [(3, 20, 4, 4, 2), (4, 24, 4, 6, 2)]


def verify_circuits() -> List[Tuple[str, Circuit]]:
    out = []
    for n, g, p, count in VERIFY_RANDOM:
        for i in range(count):
            out.append((f"vr{n}q{g}g-{i}", random_circuit(Random(f"golden/vr{n}/{i}"), n, g, p)))
    for n, g, p, wrap, count in VERIFY_PHASEPOLY:
        for i in range(count):
            out.append((f"vp{n}q{g}g-{i}", phase_poly_circuit(Random(f"golden/vp{n}/{i}"), n, g, p, wrap)))
    return out


def verify_maps(c: Circuit) -> List[Tuple[str, Circuit, ReductionMap]]:
    """(case, optimised circuit, map): the optimiser's output, that output
    with its first two parameters fused (when it has two), and the identity
    on ``c`` itself."""
    res = phase_teleport(c)
    red = res.reduction
    cases = [("correct", res.circuit, red)]
    if len(red.rows) >= 2:
        rows = (red.rows[0] + red.rows[1],) + red.rows[2:]
        names = (red.new_param_names[0],) + red.new_param_names[2:]
        gates = [g for g in res.circuit.gates
                 if not (g.kind is GateKind.RZ_PARAM and g.param == red.new_param_names[1])]
        cases.append(("wrong_parity", Circuit(c.n_qubits, gates),
                      ReductionMap(red.params_in, names, rows, (0,) * len(rows))))
    cases.append(("identity", c, ReductionMap.identity(c.params)))
    return cases


FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")


def rounded_floats(text: str) -> bytes:
    """``text`` with each float literal written to 9 decimals, ``-0`` as ``0``."""
    return FLOAT.sub(lambda m: f"{round(float(m.group()), 9) + 0.0:.9f}", text).encode()


def run_cli(argv: List[str]) -> bytes:
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return rounded_floats(f"{code}\n{out.getvalue()}")


def command_digest(directory: Path, argv: List[str]) -> str:
    """SHA-256 of ``argv`` run without ``--report``, then with it, and of the
    report that the second run writes."""
    report = directory / "report.json"
    report.unlink(missing_ok=True)
    h = hashlib.sha256()
    h.update(run_cli(argv))
    h.update(b"\0")
    h.update(run_cli(argv + ["--report", str(report)]))
    h.update(b"\0")
    h.update(rounded_floats(report.read_text()) if report.exists() else b"no report")
    return h.hexdigest()


def verify_cases() -> List[Tuple[str, Circuit, Circuit, ReductionMap, int]]:
    """(name, original, optimised, map, seed) for every verify digest."""
    return [(f"{name}.{case}", c, out, red, i % 2)
            for i, (name, c) in enumerate(verify_circuits()) for case, out, red in verify_maps(c)]


def oracle_cases() -> List[Tuple[str, Circuit, int]]:
    """(name, circuit, seed) for every oracle digest."""
    return ([(f"or{n}q{g}g-{i}", random_circuit(Random(f"golden/or{n}/{i}"), n, g, p), i)
             for n, g, p, count in ORACLE_RANDOM for i in range(count)]
            + [(f"op{n}q{g}g-{i}", phase_poly_circuit(Random(f"golden/op{n}/{i}"), n, g, p, wrap), i)
               for n, g, p, wrap, count in ORACLE_PHASEPOLY for i in range(count)]
            + [("sign-flip", parse_circuit("qreg 1\nrz(t0) 0\nx 0\nrz(t1) 0\nx 0\n"), 0)])


def verify_digest(directory: Path, original: Circuit, optimised: Circuit, reduction: ReductionMap,
                  seed: int) -> str:
    src, opt, mapping = directory / "in.zxc", directory / "out.zxc", directory / "map.json"
    src.write_text(emit_circuit(original))
    opt.write_text(emit_circuit(optimised))
    mapping.write_text(reduction.to_text())
    return command_digest(directory, ["verify", str(src), str(opt), str(mapping), "--seed", str(seed)])


def oracle_digest(directory: Path, c: Circuit, seed: int) -> str:
    src = directory / "in.zxc"
    src.write_text(emit_circuit(c))
    return command_digest(directory, ["oracle", str(src), "--seed", str(seed)])


GOLDEN_VERIFY: Dict[str, str] = {
    "vr2q12g-0.correct": "7a497bde0125cc0d25a5c2267495459b37236f2bad89449b415827db41255e61",
    "vr2q12g-0.identity": "7a497bde0125cc0d25a5c2267495459b37236f2bad89449b415827db41255e61",
    "vr3q20g-0.correct": "4ab14ad29be2be4abbbc421f20f38f2a2752844c0b8537b670d38b0741393b38",
    "vr3q20g-0.wrong_parity": "65a201a986938ab0da0e37edf170a141d7ef67cd47c039ea2e7152916757a457",
    "vr3q20g-0.identity": "d4942da7b8ef04164a7ed1b8c9e5fc8038b39157f312ceb9e56fe1e3fe7c3f4e",
    "vr3q20g-1.correct": "a90d13bdf3b5088069327aed99e592a52fa1a837c2eace38bc720c3ea6517a1b",
    "vr3q20g-1.wrong_parity": "0d5dfbf4bf25c04d317bcdc8e4ff87ce8029dff7fec2fce82f993856b9a63b8e",
    "vr3q20g-1.identity": "a90d13bdf3b5088069327aed99e592a52fa1a837c2eace38bc720c3ea6517a1b",
    "vr4q30g-0.correct": "3547031aa4a35917ada88ca3536714fae5620383510e45c75793b742269e560e",
    "vr4q30g-0.wrong_parity": "e310bc38be0d9dd3d1ec411d03117ea637ba784d90b4909f491d98ad8272a71c",
    "vr4q30g-0.identity": "0b7c8f02731912172ca01bd00f69806d2fab40f9d495698e79eddbfc2a635fc7",
    "vr4q30g-1.correct": "656dcc9fee1c21014d58f313bc7fd068f39c267a190bed06b0ee5dd9cce221ff",
    "vr4q30g-1.wrong_parity": "8512bde988edf32372fc3ebb592c710278f06703b92ef80be618be7b8592ea92",
    "vr4q30g-1.identity": "cb11b205a8741ba71c573efbf1c389e6fa3d9bf916510d3b1a73a43d50e3f7a3",
    "vr6q60g-0.correct": "b2440e766e7d610c765f7b24fd6a73ac79301a25820938976e13eceac16c7129",
    "vr6q60g-0.wrong_parity": "f0acb143196ae419a344c86f21f6afc3bf186c8587a70c4d2eddcb66d6cd4d84",
    "vr6q60g-0.identity": "b5ff51787c6c9c28c28cb3ab24aef1d97ecb67919f3a2597bc893bacfbde3685",
    "vr6q60g-1.correct": "a325bf7163ea81d245f3688337164121a428b23350c40ddfa5ce92c0d7793740",
    "vr6q60g-1.wrong_parity": "de02150e26cebeb8150963874e80b96f34fd5e403bcaa0459fa4c2052b0b5a7e",
    "vr6q60g-1.identity": "fdb96e39388951489a862ba4019918725d5acd211b73d7c2adce67e39f400875",
    "vp5q40g-0.correct": "4ab14ad29be2be4abbbc421f20f38f2a2752844c0b8537b670d38b0741393b38",
    "vp5q40g-0.wrong_parity": "bde6bdb4e47e31c00006e486f0d064a51996efdbbe1e492581bea5e265c64cdc",
    "vp5q40g-0.identity": "7e78de605244b553978480c099999da4b09fa7791c79cc70ad26b684288d61b8",
    "vp5q40g-1.correct": "a2ae0ae7514fa969362dad11e51a2d790b4a6a0c3a44201090e004b2029cc35a",
    "vp5q40g-1.wrong_parity": "9a4e235dafac33cbfe7bf46a2ca826e1ce007443e86fecdbd3cd07e1f16d5283",
    "vp5q40g-1.identity": "a2ae0ae7514fa969362dad11e51a2d790b4a6a0c3a44201090e004b2029cc35a",
    "vp6q60g-0.correct": "5b6b4d7b664113316aa487091b58822d0c3dacfd4cc053d47988adbec6088761",
    "vp6q60g-0.wrong_parity": "34083769df963d1988bf6c2dae1eacc04acae71b341eeba0d9e10fea9b5426d0",
    "vp6q60g-0.identity": "9b62971b258035d61a10d3b380071779eecd897150aec1e7b9085dc7c11bf5cd",
    "vp6q60g-1.correct": "525afafcf3fae360c700b1fb85acf19d7b0349912ce98682ddd7d9472ce3ac43",
    "vp6q60g-1.wrong_parity": "9944f0dfd8122625dfeb784c2cd1142d185448b2217fcd8c5d8af76441634061",
    "vp6q60g-1.identity": "629db137e7615de8c0b5075c14b6bca9daef15b0626f6b9960e9e94c84b21642",
}

GOLDEN_ORACLE: Dict[str, str] = {
    "or1q6g-0": "80ac4bf023ac76d3c39d6769de2297d53aeaab198766ca6bb7b1e70663d3ee11",
    "or2q12g-0": "79f85d39d683b22eeef82de8337c13531ff1cd1595d1875dc41b35475bdd4962",
    "or2q12g-1": "79f85d39d683b22eeef82de8337c13531ff1cd1595d1875dc41b35475bdd4962",
    "or3q16g-0": "292b4fbcbce1c00514d76ae7c97b7da4f581f5643cb3ca9b7a1eaee6a96caa34",
    "or3q16g-1": "4f0a8221ea46f7c40a210110874fddfe85dee08c14e2f2e284691ca119ee0791",
    "or4q24g-0": "712209204adecf37f2e47e3a50b37cf1ef05971434f24cd26a9686c81756d184",
    "or4q24g-1": "712209204adecf37f2e47e3a50b37cf1ef05971434f24cd26a9686c81756d184",
    "op3q20g-0": "292b4fbcbce1c00514d76ae7c97b7da4f581f5643cb3ca9b7a1eaee6a96caa34",
    "op3q20g-1": "fda893ded3ab53e47d052785161582f0a4dd83d9e89bbcef01373ddf65309e9b",
    "op4q24g-0": "ed4ed35b03cd12fae0a7d576f5020a5a2ec8fe7295750f581475e13d62d17cb6",
    "op4q24g-1": "ed4ed35b03cd12fae0a7d576f5020a5a2ec8fe7295750f581475e13d62d17cb6",
    "sign-flip": "74821f111e17d8c12a44693f84b5cc3a458fc5ec87e7b487cc14f7ab24e175d8",
}

VERIFY_CASES = verify_cases()
ORACLE_CASES = oracle_cases()


@pytest.mark.parametrize("name,original,optimised,reduction,seed", VERIFY_CASES,
                         ids=[case[0] for case in VERIFY_CASES])
def test_verify_output_is_byte_identical(tmp_path, name, original, optimised, reduction, seed):
    assert verify_digest(tmp_path, original, optimised, reduction, seed) == GOLDEN_VERIFY[name]


@pytest.mark.parametrize("name,circuit,seed", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES])
def test_oracle_output_is_byte_identical(tmp_path, name, circuit, seed):
    assert oracle_digest(tmp_path, circuit, seed) == GOLDEN_ORACLE[name]


def print_digests(title: str, digests: Dict[str, str]) -> None:
    print(f"{title}: Dict[str, str] = {{")
    for name, value in digests.items():
        print(f'    "{name}": "{value}",')
    print("}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        directory = Path(tmp)
        digests = {name: digest(directory, name, c) for name, c in CASES}
        verify = {name: verify_digest(directory, *rest) for name, *rest in VERIFY_CASES}
        oracle = {name: oracle_digest(directory, c, seed) for name, c, seed in ORACLE_CASES}
    print_digests("GOLDEN", digests)
    print_digests("GOLDEN_VERIFY", verify)
    print_digests("GOLDEN_ORACLE", oracle)
