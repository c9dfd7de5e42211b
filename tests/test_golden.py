"""Byte-identical optimiser output on a fixed-seed ladder.

Each entry pins the SHA-256 of the emitted circuit and of the ``.map.json``
report that ``zxparam optimize --seed 0`` writes for one circuit.  The
digests were recorded before the incremental rewrite driver and the
union-find graph-like conversion replaced the rescanning ones, so any change
to the rewrite picks, the conversion or the extraction shows up here.

Regenerate (only after a deliberate change of the picks):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from random import Random
from typing import Dict, List, Tuple

import pytest

from zxparam.circuits import Circuit, Gate, GateKind, emit_circuit
from zxparam.cli import main
from zxparam.generate import random_circuit

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


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = {name: digest(Path(tmp), name, c) for name, c in CASES}
    print("GOLDEN: Dict[str, str] = {")
    for name, value in digests.items():
        print(f'    "{name}": "{value}",')
    print("}")
