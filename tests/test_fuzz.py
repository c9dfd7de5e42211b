"""Seeded fuzz of the command line: mutated golden circuits, outputs and maps.

Every case runs ``cli.main`` in process on the golden verify circuits, their
optimised outputs and their maps, with one or two edits applied to one of
the files.  It must end on a documented exit code (0-4), never on
exit 2 (an internal invariant violation) or an exception, and a nonzero exit
names its failure in one line: on stderr, or on stdout for the verdict of a
failed verification (exit 3).  A failing case reports its seed and inputs;
``run(fuzz_case(seed, directory)[0])`` runs one case alone.
"""

from __future__ import annotations

import contextlib
import io
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import List, Tuple

from test_golden import verify_circuits
from zxparam.circuits import emit_circuit
from zxparam.cli import main
from zxparam.reduction import phase_teleport

CASES = 1000
TOKENS = ["qreg 70000\n", "qreg 0\n", "rz(t0) 0\n", "rz(u0) 1\n", "cx 0 0\n", "h -1\n", "rz(pi/3) 0\n",
          "rz(3pi/2) 2\n", "9" * 30, "null", "[]", "{}", '"u0"', '"t1"', "-1", "2", "1e309", "NaN", " # ",
          "\r\n", "\x00", "π", '"terms": [["t0", 2]]', '"const_pi_over_2": 7']
CHARS = "0123456789-+()[]{}:,\" \n\tabcdehlqrstuxzé"


@lru_cache(maxsize=None)
def golden_inputs() -> List[Tuple[str, str, str]]:
    """(circuit, optimised circuit, map) texts of each golden verify circuit."""
    out = []
    for _, c in verify_circuits():
        result = phase_teleport(c)
        out.append((emit_circuit(c), emit_circuit(result.circuit), result.reduction.to_text()))
    return out


def mutate(rng: Random, text: str) -> str:
    """``text`` after one or two edits: most keep the file's syntax, by moving,
    repeating or dropping whole lines; others change characters or tokens,
    cut the text short or put another input file in its place."""
    for _ in range(rng.randint(1, 2)):
        lines = text.splitlines(keepends=True) or [""]
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(8)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[j])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = lines[j]
        if op < 4:
            text = "".join(lines)
        elif op == 4:
            text = text[:at] + rng.choice(CHARS) + text[at + 1:]
        elif op == 5:
            text = text[:at] + rng.choice(TOKENS) + text[at:]
        elif op == 6:
            text = text[:at]
        else:
            text = rng.choice(rng.choice(golden_inputs()))
    return text


def fuzz_case(seed: int, directory: Path) -> Tuple[List[str], List[str]]:
    """Write the inputs of case ``seed`` into ``directory``; its argv and the
    texts of the files it reads."""
    rng = Random(f"fuzz/{seed}")
    texts = list(rng.choice(golden_inputs()))
    command = rng.choice(["optimize", "verify", "verify", "oracle"])
    target = rng.randrange(3) if command == "verify" else 0
    texts[target] = mutate(rng, texts[target])
    paths = [directory / name for name in ("in.zxc", "out.zxc", "map.json")]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode())
    if command == "verify":
        return ["verify", *map(str, paths)], texts
    if command == "optimize":
        return ["optimize", str(paths[0]), "--out", str(directory / "opt.zxc"),
                "--report", str(directory / "opt.json")], texts[:1]
    return ["oracle", str(paths[0])], texts[:1]


def run(argv: List[str]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def test_mutated_inputs_end_on_a_documented_exit_code(tmp_path):
    for seed in range(CASES):
        argv, texts = fuzz_case(seed, tmp_path)
        case = f"fuzz case {seed}\nargv: {argv}\ninputs: {texts!r}"
        try:
            code, out, err = run(argv)
        except Exception as exc:  # a traceback: the case fails, reported with its inputs
            raise AssertionError(f"{case}\nraised {exc!r}") from exc
        if code == 3:
            named = not err and out.startswith("verify: FAILED") and out.count("\n") == 1
        else:
            named = code == 0 or err.count("\n") == 1 and err.endswith("\n")
        assert code in (0, 1, 3, 4) and named, f"{case}\nexit {code}\nstdout: {out!r}\nstderr: {err!r}"
