"""Batch command line: optimize, verify and oracle subcommands.

Exit codes: 0 success, 1 parse/usage errors (including a qreg wider than
circuits.MAX_QUBITS, oracle refusals, a bad seed, tolerance or
--oracle-max-params, and files that cannot be read or written), 2 internal
invariant violation, 3 verification failure, 4 the brute-force
oracle beat the optimiser (impossible unless the optimiser is buggy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from .circuits import parse_circuit, emit_circuit
from .errors import DimensionMismatch, TooLarge, TooManyParams, ZXParamError
from .reduction import ReductionMap, phase_teleport
from .rewrite import simplify
from .circuits import circuit_to_diagram
from .verify import MAX_ORACLE_PARAMS, brute_force_min, check_reduction, optimality_certificate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_VERIFY = 3
EXIT_ORACLE_BEATS = 4


@dataclass
class RunConfig:
    command: str
    inputs: List[Path]
    seed: int = 0
    samples: int = 5
    tolerance: float = 1e-9
    report: Optional[Path] = None
    out: Optional[Path] = None
    oracle_max_params: int = 4
    emit_report: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if not 0 <= self.oracle_max_params <= MAX_ORACLE_PARAMS:
            raise ValueError(f"oracle-max-params must be between 0 and {MAX_ORACLE_PARAMS}, "
                             f"got {self.oracle_max_params}")


class FileAccessError(Exception):
    """An input file that cannot be read as text, or an output file that
    cannot be written; the command exits 1 with one line naming the path."""


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise FileAccessError(f"{path}: cannot read: {reason}") from exc


def _atomic_write(path: Path, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _optimize_one(cfg: RunConfig, path: Path) -> int:
    try:
        circuit = parse_circuit(_read(path))
    except ZXParamError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = phase_teleport(circuit, seed=cfg.seed)
        before, after = len(circuit.params), len(result.circuit.params)
        out_path = cfg.out if (cfg.out and len(cfg.inputs) == 1) else path.with_suffix(path.suffix + ".opt")
        _atomic_write(out_path, emit_circuit(result.circuit))
        report_path = cfg.report if (cfg.report and len(cfg.inputs) == 1) else path.with_suffix(path.suffix + ".map.json")
        if cfg.emit_report:
            _atomic_write(report_path, result.reduction.to_text())
        print(f"{path}: parameters {before} -> {after}")
        for i in range(len(result.reduction.new_param_names)):
            print(f"  {result.reduction.row_string(i)}")
        if result.reduction.eliminated:
            print(f"  eliminated: {', '.join(result.reduction.eliminated)}")
        return EXIT_OK
    except ZXParamError as exc:
        print(f"{path}: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def cmd_optimize(cfg: RunConfig) -> int:
    codes = []
    for path in cfg.inputs:
        try:
            codes.append(_optimize_one(cfg, path))
        except FileAccessError as exc:
            print(f"optimize: {exc}", file=sys.stderr)
            codes.append(EXIT_USAGE)
    return max(codes) if codes else EXIT_USAGE


def cmd_verify(cfg: RunConfig) -> int:
    if len(cfg.inputs) != 3:
        print("verify needs exactly: <original> <optimised> <map.json>", file=sys.stderr)
        return EXIT_USAGE
    original_path, optimised_path, map_path = cfg.inputs
    try:
        original = parse_circuit(_read(original_path))
        optimised = parse_circuit(_read(optimised_path))
        reduction = ReductionMap.from_text(_read(map_path))
    except (ZXParamError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"verify: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = check_reduction(original, optimised, reduction,
                                 n_samples=cfg.samples, tol=cfg.tolerance, seed=cfg.seed)
    except (DimensionMismatch, TooLarge) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        terminal, _ = simplify(circuit_to_diagram(original), seed=cfg.seed)
        certificate = optimality_certificate(terminal)
    except ZXParamError as exc:
        print(f"verify: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    payload = {
        "proportionality": report.to_dict(),
        "certificate": certificate.to_dict(),
    }
    if cfg.report:
        _atomic_write(cfg.report, json.dumps(payload, indent=2) + "\n")
    if not report.holds:
        first_bad = next(i for i, dev in enumerate(report.deviations) if not dev <= cfg.tolerance)
        print(f"verify: FAILED proportionality, max deviation {report.max_deviation:.3e}, "
              f"first failing sample {first_bad} (deviation {report.deviations[first_bad]:.3e})")
        return EXIT_VERIFY
    if not certificate.passed:
        print("verify: FAILED certificate: " + "; ".join(certificate.failures))
        return EXIT_VERIFY
    if len(optimised.params) > certificate.n_parameters:
        print(f"verify: FAILED optimality: the optimised circuit has {len(optimised.params)} "
              f"parameters, the certificate proves {certificate.n_parameters} suffice")
        return EXIT_VERIFY
    print(f"verify: OK ({len(report.ratios)} samples, max deviation {report.max_deviation:.3e}; "
          f"certificate passed, {certificate.n_parameters} parameters)")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    if len(cfg.inputs) != 1:
        print("oracle takes exactly one circuit file", file=sys.stderr)
        return EXIT_USAGE
    path = cfg.inputs[0]
    try:
        circuit = parse_circuit(_read(path))
    except ZXParamError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = brute_force_min(circuit, tol=cfg.tolerance,
                                 max_params=cfg.oracle_max_params,
                                 n_samples=cfg.samples, seed=cfg.seed)
    except (TooManyParams, TooLarge) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        optimised = phase_teleport(circuit, seed=cfg.seed)
    except ZXParamError as exc:
        print(f"oracle: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"min = {result.count}")
    for i in range(len(result.witness.new_param_names)):
        print(f"  {result.witness.row_string(i)}")
    if result.trivial:
        print(f"  trivial parameters: {', '.join(result.trivial)}")
    if cfg.report:
        _atomic_write(cfg.report, json.dumps({
            "min": result.count,
            "witness": result.witness.to_dict(),
            "optimizer_count": len(optimised.circuit.params),
            "trivial": list(result.trivial),
        }, indent=2) + "\n")
    if result.count < len(optimised.circuit.params):
        print(f"oracle: BUG — oracle found {result.count} < optimiser "
              f"{len(optimised.circuit.params)}", file=sys.stderr)
        return EXIT_ORACLE_BEATS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zxparam",
                                     description="Parameter-count optimisation for Clifford+phase circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [("optimize", "optimise circuits via phase teleportation"),
                            ("verify", "check an optimised circuit against its map"),
                            ("oracle", "brute-force minimal parameter count")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("inputs", nargs="+", type=Path)
        p.add_argument("--seed", type=int, default=None,
                       help="deterministic seed (default: ZXPARAM_SEED or 0)")
        p.add_argument("--samples", type=int, default=5,
                       help="random samples on top of the structured set")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--report", type=Path, default=None)
        p.add_argument("--oracle-max-params", type=int, default=4)
        if name == "optimize":
            p.add_argument("--out", type=Path, default=None,
                           help="output circuit path (single input only)")
    return parser


PARSER = build_parser()  # built once: main runs many times in one process


def main(argv: Optional[List[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("ZXPARAM_SEED", "0"))
        except ValueError:
            print(f"bad configuration: ZXPARAM_SEED={os.environ['ZXPARAM_SEED']!r} is not an integer",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        cfg = RunConfig(command=args.command, inputs=list(args.inputs), seed=seed,
                        samples=args.samples, tolerance=args.tol, report=args.report,
                        out=getattr(args, "out", None),
                        oracle_max_params=args.oracle_max_params)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"optimize": cmd_optimize, "verify": cmd_verify, "oracle": cmd_oracle}
    try:
        return handlers[cfg.command](cfg)
    except FileAccessError as exc:
        print(f"{cfg.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
