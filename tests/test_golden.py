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
the same for ``zxparam oracle``.  They were recorded before the sample dicts
of ``check_reduction`` and ``brute_force_min`` became one array, and before
``verify`` skipped the certificate after a failed ratio check.  Ratios and
deviations differ in their last bits between numpy builds and CPUs (most
deviations of a passing check are rounding noise near 1e-16), so every float
in the output is rounded to 9 decimals before hashing; the exit code, the
verdicts, the counts and all other text are hashed as they are.

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
    "vr2q12g-0.correct": "7bcd7a81b3d066f848284f2ea5221f7ffb1de8ae7ea528f54a94c10a13b59b11",
    "vr2q12g-0.identity": "7bcd7a81b3d066f848284f2ea5221f7ffb1de8ae7ea528f54a94c10a13b59b11",
    "vr3q20g-0.correct": "c1ec11fd5557b8d1435e10bd856ac21dba5b8d8788b2d5b3619f07d4eacad526",
    "vr3q20g-0.wrong_parity": "a99d70cfb7013adea63b88563b9587d78240c434e1c6a8750d1d66ba0fb283cb",
    "vr3q20g-0.identity": "ccf787ecb34d9390a1735bd6e1c16dd711f26e64416e4dfb48e73fa3faaaa01c",
    "vr3q20g-1.correct": "91a098fb10adaa2da90810af191126ea6b6cd617bff58ce6cc4bbde8e01be76b",
    "vr3q20g-1.wrong_parity": "249f16807c6c2172eea75d8748e7715397c87ce7204520b6938d4754cb8e35b4",
    "vr3q20g-1.identity": "91a098fb10adaa2da90810af191126ea6b6cd617bff58ce6cc4bbde8e01be76b",
    "vr4q30g-0.correct": "0b464750246c50e746e49450842c7dadfbfc2710504cebd928c1ffdea72b0b6b",
    "vr4q30g-0.wrong_parity": "280765c5722b6925d083e540bdc9a9ced6296e40feadee381c2e78fb62f2c9fd",
    "vr4q30g-0.identity": "0e1f36e4a49050c394ed68c788e311805974bf60e505cd48c5fb8151d97dba96",
    "vr4q30g-1.correct": "647bee22a1e82e2ed4813058c604b69b4f435099e87e08404d980e25c74d9b74",
    "vr4q30g-1.wrong_parity": "161f1b80ebe32b9854ea1d3caf798178888579dc14e311c95ea4e703bf643608",
    "vr4q30g-1.identity": "b998b595e6dd1bdbc0474b456278777970968b1efeda77f70656ae02ac118087",
    "vr6q60g-0.correct": "5c72fefab7c9092ef787508d4d6d6c3d54770c3e9ab518544a44df603c24e9a8",
    "vr6q60g-0.wrong_parity": "362daa95d1da5fc5550a2ecd61e9ad8dfc70a23bc6a7776d76f72bfb0217598e",
    "vr6q60g-0.identity": "ba968532ebe4ba378c830e20cc88e829a0e4d174fffe2dcb72990a5b0eb39c92",
    "vr6q60g-1.correct": "aa3724b6d09b8de3f2054ff674a172e619c50d9727442c96290d9dcac411d38b",
    "vr6q60g-1.wrong_parity": "a62d68e6e73c6ecdeb456fb88329c3913ef10291af11bc4a9a06c42c504f3ad4",
    "vr6q60g-1.identity": "e78c57b9be72f283b28a456dccc5cc730727c58016da7e5bc6620592dd6f6869",
    "vp5q40g-0.correct": "b39beac7241a39156382c0a05c13771ff1adf54606fdb4c7e1e0dae66e8ceae6",
    "vp5q40g-0.wrong_parity": "801da1fc288e00f901bd1a70aa68a089a481bf0f4cf62d6f37cda58da8da2760",
    "vp5q40g-0.identity": "f6ecbc16d9f03aa793c375382378a6c329f78f1b3f818a320321c9e9785bd577",
    "vp5q40g-1.correct": "6ddc1f08e20a6e1af9677e9a0a2e56a577f0df15501762a2ac745120dfc71bc1",
    "vp5q40g-1.wrong_parity": "069fe23a86e1833495881337773fa1e67bae262cbf89255e7f74ac716bd54e38",
    "vp5q40g-1.identity": "6ddc1f08e20a6e1af9677e9a0a2e56a577f0df15501762a2ac745120dfc71bc1",
    "vp6q60g-0.correct": "b4b79a237c944385bc35feec08cdcd109622aa49d133f39a603389fc9802dad0",
    "vp6q60g-0.wrong_parity": "2dee301613acb1fae49c48403db9724140baf986c37e8d095d9563764b2dae62",
    "vp6q60g-0.identity": "723752e5c51b7d9ba60a8965175028762c8d5993071ec0b2aa7a599188933a96",
    "vp6q60g-1.correct": "afbacacb99839eb97446935ac0f1ebd4cb36d79ce5188ef69a553b2bcb78b445",
    "vp6q60g-1.wrong_parity": "257b1b4fd3be04b2c64b0441df5f96ba17c63115ee71fb3edc3f2cebbc745dd6",
    "vp6q60g-1.identity": "19464d1c86ae464b3f65efc10bb56b82e2d960615d48cd17b5f24b8af4cfcc68",
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
