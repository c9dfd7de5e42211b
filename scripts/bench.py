"""Write a BENCH file: the benchmark's end-to-end metrics plus the size ladder.

Example:
    python scripts/bench.py --out BENCH_11.json
    python scripts/bench.py --seconds 5 --rungs 2 --repeats 1 --out bench.json

The file records
- the ``--trace 0`` metrics of ``perfbench/run.py --workload all`` for every
  workload that ``BENCHMARK.json`` declares;
- the ladder: wall time of ``phase_teleport`` and of ``check_reduction`` (the
  circuit against its optimised form, 5 random samples) on
  ``random_circuit(Random(1), qubits, gates, params)``, the median of
  ``--repeats`` runs per rung, each rung in a fresh process, with the
  median time of perfbench's fixed reference task (1 ms at reference speed)
  taken right before each run, so that a rung that slowed with the machine
  can be told from one that did not;
- the verify stage on the same rungs as ``phase_teleport``: wall time of
  ``exact_check`` of the circuit against ``phase_teleport``'s output
  (``exact_s``) and of ``merge_bound`` on the circuit (``merge_s``), their
  sum (``seconds``), the reference time taken before the exact check, the
  verdict (``holds``) and M (``merge_bound``) beside the optimiser's count;
- the phase-polynomial ladder: wall time of ``phase_teleport`` with its
  parameter count, and of ``merge_bound`` with M, on 60 qubits of seeded
  ``cx a b; rz(t) b; cx a b`` blocks (``phase_polynomial``), where the
  optimiser runs many more gadget pivots per parameter than on the random
  ladder;
- the cold start: wall time of a fresh ``python -c "import zxparam"`` and of
  a fresh ``python -m zxparam.cli optimize`` on the smallest ``phase_teleport``
  rung's circuit, the median of ``--repeats`` processes each, with the
  median reference time beside it;
- the code size: the line count of each ``src/zxparam/*.py`` module, and
  their total;
- the environment line that ``perfbench/run.py`` prints first: platform,
  nproc, the Python and numpy versions, and the seed.

It exits 1, after writing the file, if a workload, a metric, a ladder key, a
cold-start key or the code size is missing, or if the benchmark reports a
wrong result.
``--rungs N`` keeps the N smallest rungs of each ladder.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from reference import reference_seconds  # noqa: E402
from zxparam.circuits import Circuit, Gate, GateKind, emit_circuit  # noqa: E402
from zxparam.frame import exact_check, merge_bound  # noqa: E402
from zxparam.generate import random_circuit  # noqa: E402
from zxparam.reduction import phase_teleport  # noqa: E402
from zxparam.verify import check_reduction  # noqa: E402

# (qubits, gates, params), smallest first
TELEPORT_LADDER = [(20, 1200, 240), (20, 5000, 1000), (40, 10000, 2000), (60, 20000, 4000)]
CHECK_LADDER = [(4, 1000, 500), (4, 2000, 1000), (12, 2000, 400), (16, 300, 60)]
# (qubits, blocks), smallest first
PHASEPOLY_LADDER = [(60, 1000), (60, 2000), (60, 4000)]
STAGE_KEYS = {"phase_teleport": ("seconds", "reference_s", "params_out"),
              "check_reduction": ("seconds", "reference_s", "holds"),
              "verify": ("seconds", "reference_s", "holds", "merge_bound"),
              "phase_polynomial": ("seconds", "reference_s", "params_out", "merge_s", "merge_bound")}
LADDERS = {"phase_teleport": TELEPORT_LADDER, "check_reduction": CHECK_LADDER, "verify": TELEPORT_LADDER,
           "phase_polynomial": PHASEPOLY_LADDER}
COLD_START_KEYS = ("import", "optimize")
SEED = 1


def run_perfbench(seconds: float) -> Tuple[str, dict]:
    """The environment line and the combined result line of
    ``perfbench/run.py --workload all``."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    return lines[0], json.loads(lines[-1])


def by_workload(result: dict) -> Dict[str, Dict[str, float]]:
    """``{"opt_random.gates_per_s": {"value": v, ...}}`` as
    ``{"opt_random": {"gates_per_s": v}}``."""
    workloads: Dict[str, Dict[str, float]] = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        workloads.setdefault(workload, {})[name] = metric["value"]
    return workloads


def timed(fn: Callable[[], object], repeats: int) -> Tuple[Dict[str, float], object]:
    """Median wall time of ``repeats`` calls and median reference time, and
    the last call's result."""
    times, references = [], []
    for _ in range(repeats):
        references.append(reference_seconds())
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return {"seconds": statistics.median(times), "reference_s": statistics.median(references)}, result


def teleport_rung(rung: Tuple[int, int, int], repeats: int) -> dict:
    q, g, p = rung
    c = random_circuit(Random(1), q, g, p)
    times, result = timed(lambda: phase_teleport(c), repeats)
    return {"qubits": q, "gates": g, "params": p, **times, "params_out": len(result.circuit.params)}


def check_rung(rung: Tuple[int, int, int], repeats: int) -> dict:
    q, g, p = rung
    c = random_circuit(Random(1), q, g, p)
    optimised = phase_teleport(c)
    import numpy  # noqa: F401  (loaded on first use: keep its import out of the first timed call)
    times, report = timed(lambda: check_reduction(c, optimised.circuit, optimised.reduction), repeats)
    return {"qubits": q, "gates": g, "params": p, **times, "holds": report.holds}


def verify_rung(rung: Tuple[int, int, int], repeats: int) -> dict:
    q, g, p = rung
    c = random_circuit(Random(1), q, g, p)
    optimised = phase_teleport(c)
    check, failure = timed(lambda: exact_check(c, optimised.circuit, optimised.reduction), repeats)
    merge, bound = timed(lambda: merge_bound(c), repeats)
    return {"qubits": q, "gates": g, "params": p, "seconds": check["seconds"] + merge["seconds"],
            "reference_s": check["reference_s"], "exact_s": check["seconds"], "merge_s": merge["seconds"],
            "holds": failure is None, "merge_bound": bound, "params_out": len(optimised.circuit.params)}


def phase_polynomial(rng: Random, qubits: int, blocks: int) -> Circuit:
    """``blocks`` blocks ``cx a b; rz(t) b; cx a b`` on random pairs of
    distinct qubits: one parameter per block, one per distinct pair after
    fusion."""
    gates = []
    for i in range(blocks):
        a, b = rng.sample(range(qubits), 2)
        gates += [Gate(GateKind.CX, (a, b)), Gate(GateKind.RZ_PARAM, (b,), param=f"t{i}"),
                  Gate(GateKind.CX, (a, b))]
    return Circuit(qubits, gates)


def phasepoly_rung(rung: Tuple[int, int], repeats: int) -> dict:
    q, blocks = rung
    c = phase_polynomial(Random(1), q, blocks)
    times, result = timed(lambda: phase_teleport(c), repeats)
    merge, bound = timed(lambda: merge_bound(c), repeats)
    return {"qubits": q, "blocks": blocks, "params": len(c.params), **times,
            "params_out": len(result.circuit.params), "merge_s": merge["seconds"], "merge_bound": bound}


def in_fresh_process(fn: Callable[..., dict], *args) -> dict:
    """``fn(*args)`` in a new process: in a shared one a rung's time depends
    on the rungs run before it.  A worker that dies raises BrokenProcessPool."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def ladder(rungs: int, repeats: int) -> Dict[str, List[dict]]:
    return {"phase_teleport": [in_fresh_process(teleport_rung, r, repeats) for r in TELEPORT_LADDER[:rungs]],
            "check_reduction": [in_fresh_process(check_rung, r, repeats) for r in CHECK_LADDER[:rungs]],
            "verify": [in_fresh_process(verify_rung, r, repeats) for r in TELEPORT_LADDER[:rungs]],
            "phase_polynomial": [in_fresh_process(phasepoly_rung, r, repeats) for r in PHASEPOLY_LADDER[:rungs]]}


def cold_start(repeats: int) -> dict:
    """Wall times of fresh interpreters that import the package, and that
    optimise the smallest ``phase_teleport`` rung's circuit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")]))}
    q, g, p = TELEPORT_LADDER[0]
    with tempfile.TemporaryDirectory() as tmp:
        circuit = Path(tmp) / "ladder.zxc"
        circuit.write_text(emit_circuit(random_circuit(Random(1), q, g, p)))
        commands = {"import": ["-c", "import zxparam"],
                    "optimize": ["-m", "zxparam.cli", "optimize", str(circuit)]}
        times = {name: timed(lambda: subprocess.run([sys.executable, *argv], env=env, check=True,
                                                    stdout=subprocess.DEVNULL), repeats)[0]
                 for name, argv in commands.items()}
    return {"circuit": f"random_circuit(Random(1), {q}, {g}, {p})", "repeats": repeats, **times}


def code_size() -> dict:
    """Line count of each module of the package, and their total."""
    modules = {path.name: len(path.read_text().splitlines())
               for path in sorted((ROOT / "src" / "zxparam").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def problems(bench: dict, rungs: int) -> List[str]:
    """Missing workloads, metrics, ladder keys and code sizes, and wrong results."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = []
    perf = bench["perfbench"]
    if perf["correct"] is not True or perf["failed"]:
        found.append(f"perfbench: correct={perf['correct']} failed={perf['failed']}")
    for workload in declared["workloads"]:
        metrics = perf["workloads"].get(workload["name"])
        if metrics is None:
            found.append(f"workload {workload['name']} is missing")
            continue
        found += [f"{workload['name']}.{m['name']} is missing" for m in declared["end_to_end"]
                  if m["name"] not in metrics]
    for stage, keys in STAGE_KEYS.items():
        entries = bench["ladder"].get(stage, [])
        expected = min(rungs, len(LADDERS[stage]))
        if len(entries) != expected:
            found.append(f"ladder {stage} has {len(entries)} rungs, expected {expected}")
        found += [f"ladder {stage} rung {i} lacks {key}" for i, entry in enumerate(entries)
                  for key in keys if key not in entry]
        found += [f"ladder {stage} rung {i} does not hold" for i, entry in enumerate(entries)
                  if entry.get("holds") is False]
    found += [f"cold_start lacks {name}.{key}" for name in COLD_START_KEYS
              for key in ("seconds", "reference_s") if key not in bench["cold_start"].get(name, {})]
    code = bench.get("code", {})
    if not code.get("modules") or code.get("total") != sum(code["modules"].values()):
        found.append("code lacks the module line counts or their total")
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--rungs", type=int, default=len(CHECK_LADDER), choices=range(1, len(CHECK_LADDER) + 1))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    environment, result = run_perfbench(args.seconds)
    bench = {
        "environment": environment,
        "perfbench": {"command": f"perfbench/run.py --workload all --seed {SEED} "
                                 f"--seconds {args.seconds:g} --trace 0",
                      "correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "workloads": by_workload(result)},
        "ladder": {"circuit": "random_circuit(Random(1), qubits, gates, params)",
                   "phase_polynomial_circuit": "phase_polynomial(Random(1), qubits, blocks)", "repeats": args.repeats,
                   **ladder(args.rungs, args.repeats)},
        "cold_start": cold_start(args.repeats),
        "code": code_size(),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    found = problems(bench, args.rungs)
    for problem in found:
        print(f"bench: {problem}", file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
