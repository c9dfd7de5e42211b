"""Seeded workload inputs: circuit files plus the answers a correct program
gives on them.

``prepare(workload, seed, directory)`` writes the circuit files and returns
the job list (the manifest).  Each job is one ``zxparam`` command line on one
circuit, with the facts the benchmark checks afterwards: expected exit code,
the closed-form optimum where it is known, and whether the dense reduction
check is affordable.  The manifest depends only on the workload and the seed.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from random import Random
from typing import List

from zxparam.circuits import Circuit, GateKind, emit_circuit
from zxparam.generate import random_circuit
from zxparam.reduction import ReductionMap

from phasepoly import closed_form_optimum, optimal_reduction, phase_poly_circuit

# Dense oracles build 2^n x 2^n unitaries: check_reduction on a 12-qubit
# circuit ran for more than 10 minutes and used more than 1 GB.
MAX_DENSE_QUBITS = 8
MAX_ORACLE_PARAMS = 5

# Every pass has 58-80 jobs of 5-100 ms, so that ten lie beyond p75, a pass
# averages over many circuits, and a 30-s run repeats each job five times or
# more.  Counts put the median and p75 jobs inside blocks of 24 or more jobs
# of similar size, away from the edges between blocks, where a percentile
# would jump between two job sizes.

# (qubits, gates, params, circuits per pass).  Small circuits, where the
# graph-like conversion costs most, up to 12-qubit ones, where simplify's
# share grows.  The median and p75 jobs both lie in the 10-qubit rung, at a
# third and three quarters of it.  Only the 6-qubit rung is small enough for
# the dense reduction check: at 8 qubits it takes 3-5 s per circuit.
OPT_RANDOM = [(6, 60, 12, 18), (10, 200, 40, 36), (12, 300, 60, 6)]
# (qubits, gates, params, Clifford gates on each side, circuits per pass)
OPT_PHASEPOLY = [(5, 48, 10, 8, 28), (6, 80, 16, 12, 24), (8, 120, 24, 16, 28)]
# Known-answer verify inputs: each circuit gives three jobs (correct map,
# map fusing two parities, identity map on the unoptimised circuit).
# (qubits, gates, params, Clifford gates on each side, optimum, circuits per
# pass).  Each rung fixes the optimum at its most frequent value, so that the
# certified counts are the same from seed to seed.
VERIFY = [(5, 40, 6, 10, 5, 6), (6, 60, 10, 10, 8, 8)]
# Brute force searches reduction sizes up to the optimum, so every oracle
# circuit has the same parameter count and optimum: the jobs do comparable
# work.
ORACLE = [(3, 20, 3, 4, 8), (4, 24, 3, 6, 8)]
ORACLE_OPTIMUM = 2

WORKLOADS = ("opt_random", "opt_phasepoly", "verify_dense")


def dense_guard(c: Circuit, params_limit: int | None = None) -> None:
    """Refuse a circuit that a dense-oracle job could not afford."""
    if c.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds the dense-oracle limit {MAX_DENSE_QUBITS}")
    if params_limit is not None and len(c.params) > params_limit:
        raise ValueError(f"{len(c.params)} parameters exceeds the oracle limit {params_limit}")


def _interleave(jobs: List[dict]) -> List[dict]:
    """Spread every rung evenly over the pass, so that a slow stretch of the
    machine falls on all rungs alike."""
    per_rung = Counter(job["rung"] for job in jobs)
    seen: Counter = Counter()

    def position(job: dict) -> float:
        seen[job["rung"]] += 1
        return (seen[job["rung"]] - 0.5) / per_rung[job["rung"]]

    return sorted(jobs, key=position)


def _write(directory: Path, name: str, text: str) -> str:
    (directory / name).write_text(text)
    return name


def _optimize_job(directory: Path, name: str, rung: str, c: Circuit, optimum, dense_check: bool) -> dict:
    src = _write(directory, f"{name}.zxc", emit_circuit(c))
    return {"name": name, "rung": rung, "kind": "optimize",
            "argv": ["optimize", src, "--out", f"{name}.opt", "--report", f"{name}.map.json", "--seed", "0"],
            "source": src, "out": f"{name}.opt", "report": f"{name}.map.json",
            "qubits": c.n_qubits, "gates": len(c.gates), "params_in": len(c.params),
            "optimum": optimum, "check_reduction": dense_check, "expect_exit": 0}


def _fused_wrong(c: Circuit) -> tuple:
    """The optimal output with rows u0 and u1 merged: two different parities
    share one parameter, which no correct reduction does."""
    out, red = optimal_reduction(c)
    rows = list(red.rows)
    rows[0] = rows[0] + rows[1]
    del rows[1]
    names = (red.new_param_names[0],) + red.new_param_names[2:]
    gates = [g for g in out.gates if not (g.kind is GateKind.RZ_PARAM and g.param == red.new_param_names[1])]
    return Circuit(c.n_qubits, gates), ReductionMap(red.params_in, names, tuple(rows), tuple(0 for _ in rows))


def _verify_jobs(directory: Path, name: str, rung: str, c: Circuit) -> List[dict]:
    dense_guard(c)
    src = _write(directory, f"{name}.zxc", emit_circuit(c))
    good, good_map = optimal_reduction(c)
    bad, bad_map = _fused_wrong(c)
    cases = [
        ("correct", _write(directory, f"{name}.good.opt", emit_circuit(good)),
         _write(directory, f"{name}.good.map.json", good_map.to_text()), 0),
        ("wrong_parity", _write(directory, f"{name}.bad.opt", emit_circuit(bad)),
         _write(directory, f"{name}.bad.map.json", bad_map.to_text()), 3),
        ("identity", src,
         _write(directory, f"{name}.id.map.json", ReductionMap.identity(c.params).to_text()), 3),
    ]
    return [{"name": f"{name}.{case}", "rung": f"{rung}.{case}", "kind": "verify", "case": case,
             "argv": ["verify", src, opt, mapping, "--seed", "0"],
             "qubits": c.n_qubits, "gates": len(c.gates), "params_in": len(c.params),
             "expect_exit": code}
            for case, opt, mapping, code in cases]


def _oracle_job(directory: Path, name: str, rung: str, c: Circuit) -> dict:
    dense_guard(c, MAX_ORACLE_PARAMS)
    src = _write(directory, f"{name}.zxc", emit_circuit(c))
    return {"name": name, "rung": rung, "kind": "oracle",
            "argv": ["oracle", src, "--oracle-max-params", str(MAX_ORACLE_PARAMS), "--seed", "0"],
            "qubits": c.n_qubits, "gates": len(c.gates), "params_in": len(c.params),
            "optimum": closed_form_optimum(c), "expect_exit": 0}


def _phase_poly_where(rng: Random, accept, *shape) -> Circuit:
    """The first seeded phase polynomial whose optimum passes ``accept``."""
    while True:
        c = phase_poly_circuit(rng, *shape)
        if accept(closed_form_optimum(c)):
            return c


def prepare(workload: str, seed: int, directory: Path) -> List[dict]:
    """Write the inputs of one pass of ``workload`` into ``directory`` and
    return its jobs in execution order.  File names in ``argv`` are relative
    to ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs: List[dict] = []
    if workload == "opt_random":
        for n, g, p, count in OPT_RANDOM:
            rung = f"r{n}q{g}g"
            for i in range(count):
                c = random_circuit(Random(f"{seed}/{rung}/{i}"), n, g, p)
                jobs.append(_optimize_job(directory, f"{rung}-{i}", rung, c, None,
                                          n <= MAX_DENSE_QUBITS))
    elif workload == "opt_phasepoly":
        for n, g, p, wrap, count in OPT_PHASEPOLY:
            rung = f"p{n}q{g}g"
            for i in range(count):
                c = phase_poly_circuit(Random(f"{seed}/{rung}/{i}"), n, g, p, wrap)
                jobs.append(_optimize_job(directory, f"{rung}-{i}", rung, c,
                                          closed_form_optimum(c), False))
    elif workload == "verify_dense":
        for n, g, p, wrap, optimum, count in VERIFY:
            rung = f"v{n}q{g}g"
            for i in range(count):
                c = _phase_poly_where(Random(f"{seed}/{rung}/{i}"), lambda k: k == optimum, n, g, p, wrap)
                jobs.extend(_verify_jobs(directory, f"{rung}-{i}", rung, c))
        for n, g, p, wrap, count in ORACLE:
            rung = f"o{n}q{g}g"
            for i in range(count):
                c = _phase_poly_where(Random(f"{seed}/{rung}/{i}"), lambda k: k == ORACLE_OPTIMUM,
                                      n, g, p, wrap)
                jobs.append(_oracle_job(directory, f"{rung}-{i}", rung, c))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _interleave(jobs)
