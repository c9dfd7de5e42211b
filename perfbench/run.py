"""zxparam benchmark: seeded circuit files through the ``zxparam`` command line.

    python3 perfbench/run.py --workload opt_random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every job is one in-process ``zxparam.cli.main([...])`` call on one circuit
file, which is what a user runs; its exit code and printed output are the
result.  Jobs run one after another in a single process (a closed loop with
one client), and each passes a single input, so the optimiser's thread pool
never starts, and numpy's BLAS is held to one thread.  A run prepares one
pass of inputs from the seed, then repeats the whole pass while another one
is expected to end within ``--seconds`` (at least three times; once with
``--trace 1``).

Times are scaled to reference speed (``reference.py``): a fixed task is timed
right before every job and on both sides of every set-up, and each time is
multiplied by ``REFERENCE_S / reference``.  A job's time is the median of its scaled
executions.  The unscaled fastest times are printed alongside.
Correctness checks run afterwards, outside the timed region.
``--workload all`` runs every workload in its own process.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each job
untraced, then traced (optimise jobs a second time, to check determinism),
and prints per-layer metrics: time per job in each traced function, counts
read off their results, and the tracing overhead.  The last line of output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``correct`` is false when an output of the optimiser is wrong (parameter
count, certificate, re-parse, reduction check, determinism, oracle minimum)
or a job crashed.  ``failed`` counts every job execution with a wrong exit
code or output, including wrong verdicts of ``zxparam verify`` on the
known-answer inputs; those show in ``ok_share`` without voiding the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

# One thread per job on a 2-core machine: BLAS must not start a pool of its
# own.  Set before numpy is first imported, and inherited by prepare.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checkout import ROOT, use_checkout_sources  # noqa: E402

use_checkout_sources()

import numpy as np  # noqa: E402

import zxparam.cli  # noqa: E402
from zxparam.circuits import circuit_to_diagram, parse_circuit  # noqa: E402
from zxparam.reduction import ReductionMap  # noqa: E402
from zxparam.rewrite import simplify  # noqa: E402
from zxparam.verify import check_reduction, optimality_certificate  # noqa: E402

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from spans import RULES, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_PASSES = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

END_TO_END_UNITS = {"setup_s": "s", "gates_per_s": "gates/s", "job_s_p50": "s",
                    "job_s_tail": "s", "params_ratio": "ratio", "ok_share": "share",
                    "peak_rss_mb": "MB"}
COUNTS = ("diagram.spiders", "diagram.edges", "rewrite.steps", "rewrite.terminal_spiders",
          "reduction.params_out", "verify.samples") + tuple(f"rewrite.rule.{r}" for r in RULES)


@dataclass
class Execution:
    job: int
    code: Optional[int]  # None: the call raised
    seconds: float
    output: str
    reference_s: float = REFERENCE_S  # the reference task, timed right before
    report: str = ""
    histograms: List[Dict[str, int]] = field(default_factory=list)


def tail_percentile(pass_size: int) -> int:
    """Highest percentile with at least ten jobs of one pass beyond it."""
    for p in TAIL_PERCENTILES:
        if pass_size - math.ceil(p / 100 * pass_size) >= 10:
            return p
    raise ValueError(f"a pass of {pass_size} jobs is too small for a tail percentile")


def percentile(values: List[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def call_cli(index: int, argv: List[str], main: Callable = zxparam.cli.main) -> Execution:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return Execution(index, code, seconds, out.getvalue())


def timed_call(index: int, argv: List[str]) -> Execution:
    reference_s = reference_seconds()
    e = call_cli(index, argv)
    e.reference_s = reference_s
    return e


def scaled(e: Execution) -> float:
    """An execution's time at reference speed."""
    return e.seconds * REFERENCE_S / e.reference_s


def traced_call(index: int, job: dict, tracer: Tracer) -> Execution:
    first_histogram = len(tracer.rule_histograms)
    with tracer.active():
        e = call_cli(index, job["argv"], tracer.span("cli.main", zxparam.cli.main))
    if job["kind"] == "optimize" and e.code == 0:
        e.report = Path(job["report"]).read_text()
    e.histograms = tracer.rule_histograms[first_histogram:]
    return e


def prepare_inputs(workload: str, seed: int, work: Path) -> tuple:
    """Set the workload up SETUP_REPEATS times from scratch, each in a fresh
    interpreter; return the jobs, the directory holding them, and the median
    set-up time at reference speed."""
    times, manifests = [], []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        before = reference_seconds()
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(target)], check=True, timeout=150)
        elapsed = perf_counter() - start
        # a set-up lasts a few hundred ms: scale by the machine's speed on both sides of it
        times.append(elapsed * REFERENCE_S / ((before + reference_seconds()) / 2))
        manifests.append((target / "manifest.json").read_text())
    if len(set(manifests)) != 1:
        raise RuntimeError("the same seed gave different inputs")
    return json.loads(manifests[0]), work / "setup0", statistics.median(times)


def check_optimize(job: dict, output: str) -> List[str]:
    problems = []
    source = parse_circuit(Path(job["source"]).read_text())
    out = parse_circuit(Path(job["out"]).read_text())
    reduction = ReductionMap.from_text(Path(job["report"]).read_text())
    params_out = len(out.params)
    claimed = re.search(r"parameters (\d+) -> (\d+)", output)
    if not claimed or (int(claimed[1]), int(claimed[2])) != (job["params_in"], params_out):
        problems.append(f"printed counts {claimed and claimed[0]!r} do not match the files")
    if len(reduction.new_param_names) != params_out:
        problems.append("report and emitted circuit disagree on the parameter count")
    terminal, _ = simplify(circuit_to_diagram(source), seed=0)
    certificate = optimality_certificate(terminal)
    if not certificate.passed or certificate.n_parameters != params_out:
        problems.append(f"certificate {certificate.passed} for {certificate.n_parameters} "
                        f"parameters, output has {params_out}")
    if job["optimum"] is not None and params_out != job["optimum"]:
        problems.append(f"{params_out} parameters, closed-form optimum {job['optimum']}")
    if job["check_reduction"] and not check_reduction(source, out, reduction).holds:
        problems.append("check_reduction fails")
    return problems


def check_job(job: dict, first: Execution) -> List[str]:
    """What is wrong with a job's first execution; empty when it is right."""
    if first.code is None:
        return ["raised " + (first.output.strip().splitlines() or ["?"])[-1]]
    if first.code != job["expect_exit"]:
        return [f"exit {first.code}, expected {job['expect_exit']}"]
    if job["kind"] == "optimize":
        return check_optimize(job, first.output)
    if job["kind"] == "oracle":
        found = re.search(r"^min = (\d+)$", first.output, re.M)
        if not found or int(found[1]) != job["optimum"]:
            return [f"oracle printed {found and found[0]!r}, closed-form optimum {job['optimum']}"]
        return []
    verdict = "verify: OK" if job["expect_exit"] == 0 else "verify: FAILED"
    return [] if verdict in first.output else [f"output lacks {verdict!r}"]


def run_passes(jobs: List[dict], seconds: float, execute, at_least: int) -> List[List[Execution]]:
    """Whole passes over the jobs: ``at_least`` of them, then more while the
    next is expected to end within ``seconds``."""
    passes = []
    start = perf_counter()
    while len(passes) < at_least or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append([execute(i, job) for i, job in enumerate(jobs)])
    return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, job_dir, setup_s = prepare_inputs(workload, seed, work)
        os.chdir(job_dir)
        try:
            return measure(workload, jobs, seconds, trace, setup_s)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: str, jobs: List[dict], seconds: float, trace: bool, setup_s: float) -> dict:
    tracer = Tracer()
    plain: List[Execution] = []
    nondeterministic = set()

    def with_trace(i, job):
        plain.append(call_cli(i, job["argv"]))
        first = traced_call(i, job, tracer)
        if job["kind"] == "optimize":
            again = traced_call(i, job, Tracer())
            if (again.output, again.report, again.histograms) != (first.output, first.report, first.histograms):
                nondeterministic.add(i)
        return first

    start = perf_counter()
    if trace:
        passes = run_passes(jobs, seconds, with_trace, 1)
    else:
        passes = run_passes(jobs, seconds, lambda i, job: timed_call(i, job["argv"]), MIN_PASSES)
    executions = [e for p in passes for e in p]
    measured_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # correctness, outside the timed region; passes[0] holds each job's first execution
    problems: List[List[str]] = []
    for i, (job, e) in enumerate(zip(jobs, passes[0])):
        try:
            problems.append(check_job(job, e))
        except Exception as exc:
            problems.append([f"check raised {exc!r}"])
        if i in nondeterministic:
            problems[i].append("report or rule histogram changed on the second traced run")
    failed_runs = [e for e in executions if problems[e.job] or e.code != jobs[e.job]["expect_exit"]
                   or e.output != passes[0][e.job].output]
    correct = not any(e.code is None or jobs[e.job]["kind"] != "verify" for e in failed_runs)
    checks_s = perf_counter() - start - measured_s
    for job, found in zip(jobs, problems):
        if found:
            print(f"FAILED {job['name']}: {'; '.join(found)}")

    print(f"{workload}: {len(passes)} passes of {len(jobs)} jobs in {measured_s:.1f} s, "
          f"checks {checks_s:.1f} s")
    if trace:
        metrics = layer_metrics(tracer, executions, plain)
    else:
        p_tail = tail_percentile(len(jobs))
        print(f"{workload}: job_s_tail is p{p_tail} of {len(jobs)} jobs")
        job_s = [statistics.median(scaled(p[i]) for p in passes) for i in range(len(jobs))]
        fastest = [min(p[i].seconds for p in passes) for i in range(len(jobs))]
        references = sorted(e.reference_s for e in executions)
        print(f"{workload}: unscaled fastest executions: {sum(job['gates'] for job in jobs) / sum(fastest):.6g} "
              f"gates/s, p50 {statistics.median(fastest):.6g} s, p{p_tail} {percentile(fastest, p_tail):.6g} s; "
              f"reference task {1e3 * references[0]:.4g}-{1e3 * references[-1]:.4g} ms, "
              f"median {1e3 * statistics.median(references):.4g} ms, at reference speed {1e3 * REFERENCE_S:g} ms")
        counted = [(job["params_in"], out) for job, out in
                   ((job, params_out(job, e)) for job, e in zip(jobs, passes[0])) if out is not None]
        metrics = {
            "setup_s": setup_s,
            "gates_per_s": sum(job["gates"] for job in jobs) / sum(job_s),
            "job_s_p50": statistics.median(job_s),
            "job_s_tail": percentile(job_s, p_tail),
            "params_ratio": sum(o for _, o in counted) / sum(i for i, _ in counted),
            "ok_share": 1 - len(failed_runs) / len(executions),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {**END_TO_END_UNITS, **layer_units()}
    return {"correct": correct, "attempted": len(executions), "failed": len(failed_runs),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def params_out(job: dict, e: Execution) -> Optional[int]:
    """The parameter count a job reports: the optimised output, the oracle
    minimum, or the count certified by verify on a correct input."""
    if e.code != 0:
        return None
    if job["kind"] == "optimize":
        return len(parse_circuit(Path(job["out"]).read_text()).params)
    if job["kind"] == "oracle":
        found = re.search(r"^min = (\d+)$", e.output, re.M)
    else:  # verify prints the certified optimum of the original circuit
        found = job["case"] == "correct" and re.search(r"certificate passed, (\d+) parameters", e.output)
    return int(found[1]) if found else None


def layer_units() -> Dict[str, str]:
    units = {f"{name}_s": "s/job" for name in list(SPANS) + ["cli.main"]}
    units.update({name: "1/job" for name in COUNTS})
    units.update({"cli.self_s": "s/job", "circuits.circuit_unitary_calls": "1/job",
                  "rewrite.us_per_step": "us", "trace.overhead_pct": "%"})
    return units


def layer_metrics(tracer: Tracer, traced: List[Execution], plain: List[Execution]) -> Dict[str, float]:
    """Per traced job: inclusive time of every span, counts, and the cost of
    tracing as the traced jobs' time over the same jobs run untraced."""
    n = len(traced)
    metrics = {f"{name}_s": tracer.inclusive[name] / n for name in list(SPANS) + ["cli.main"]}
    metrics["cli.self_s"] = tracer.self_time["cli.main"] / n
    metrics.update({name: tracer.counts[name] / n for name in COUNTS})
    metrics["circuits.circuit_unitary_calls"] = tracer.calls["circuits.circuit_unitary"] / n
    steps = tracer.counts["rewrite.steps"]
    metrics["rewrite.us_per_step"] = 1e6 * tracer.inclusive["rewrite.simplify"] / steps if steps else 0.0
    metrics["trace.overhead_pct"] = 100 * (sum(e.seconds for e in traced) / sum(e.seconds for e in plain) - 1)
    return metrics


def environment(seed: int) -> str:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"platform={platform.platform()} nproc={nproc} python={platform.python_version()} "
            f"numpy={np.__version__} seed={seed}")


def print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:14s} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[1:-1]))  # without its environment line and result object
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(environment(args.seed))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
