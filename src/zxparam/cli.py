"""Batch command line: optimize, verify and oracle subcommands.

Exit codes: 0 success, 1 a malformed command line or ``ZXPARAM_SEED``
(one stderr line starting ``bad configuration:``), a parse error (including
a qreg wider than circuits.MAX_QUBITS), an oracle refusal, or a file that
cannot be read or written, 2 internal invariant violation, 3 verification
failure, 4 the brute-force oracle beat the optimiser (impossible unless the
optimiser is buggy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, List, NoReturn, Optional

from .circuits import circuit_to_diagram, emit_circuit, parse_circuit
from .errors import DimensionMismatch, TooLarge, TooManyParams, ZXParamError
from .reduction import ReductionMap, phase_teleport, simplify
from .verify import MAX_ORACLE_PARAMS, MAX_SAMPLES, brute_force_min, optimality_certificate
from .verify import check_reduction  # noqa: F401  unused here; perfbench/spans.py wraps this name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_VERIFY = 3
EXIT_ORACLE_BEATS = 4


class BadConfiguration(Exception):
    """A command line or ``ZXPARAM_SEED`` that cannot run; the command exits
    1 with one line naming it."""


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
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``.  The new file is made with mode 0666 less the umask, as
    ``open`` would make ``path`` itself."""
    try:
        tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _optimize_one(args: argparse.Namespace, path: Path) -> int:
    try:
        circuit = parse_circuit(_read(path))
    except ZXParamError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = phase_teleport(circuit, seed=args.seed)
        before, after = len(circuit.params), len(result.circuit.params)
        _atomic_write(args.out or path.with_suffix(path.suffix + ".opt"), emit_circuit(result.circuit))
        _atomic_write(args.report or path.with_suffix(path.suffix + ".map.json"), result.reduction.to_text())
        print(f"{path}: parameters {before} -> {after}")
        for i in range(len(result.reduction.new_param_names)):
            print(f"  {result.reduction.row_string(i)}")
        if result.reduction.eliminated:
            print(f"  eliminated: {', '.join(result.reduction.eliminated)}")
        return EXIT_OK
    except ZXParamError as exc:
        print(f"{path}: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def cmd_optimize(args: argparse.Namespace) -> int:
    if len(args.inputs) > 1 and (args.out or args.report):
        raise BadConfiguration("--out and --report take a single input")
    codes = []
    for path in args.inputs:
        try:
            codes.append(_optimize_one(args, path))
        except FileAccessError as exc:
            print(f"optimize: {exc}", file=sys.stderr)
            codes.append(EXIT_USAGE)
    return max(codes)


def cmd_verify(args: argparse.Namespace) -> int:
    """Decide whether ``optimised`` and the map reproduce ``original`` at
    every angle (``exact_check``), screen the output's count against the
    original's merge bound M, then certify the original's optimal count.
    The certificate (simplify and ``optimality_certificate`` on the
    original) runs only when its result is read: after both checks pass, or
    for the ``--report`` payload.  So a failed check without ``--report``
    exits 3 even where simplify would fail on the original."""
    try:
        original = parse_circuit(_read(args.original))
        optimised = parse_circuit(_read(args.optimised))
        reduction = ReductionMap.from_text(_read(args.map))
    except (ZXParamError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"verify: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from .frame import exact_check, merge_bound  # imported here: optimize's cold start never compiles it
    try:
        failure = exact_check(original, optimised, reduction)
    except DimensionMismatch as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = None if failure is None else f"verify: FAILED exact check, {failure}"
    if verdict is None or args.report:
        bound = merge_bound(original)
        if verdict is None and len(optimised.params) > bound:
            verdict = (f"verify: FAILED optimality: the optimised circuit has {len(optimised.params)} "
                       f"parameters, rotation merging shows {bound} suffice")
    if verdict is None or args.report:
        try:
            terminal, _ = simplify(circuit_to_diagram(original), seed=args.seed)
            certificate = optimality_certificate(terminal)
        except ZXParamError as exc:
            print(f"verify: internal invariant violation: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
    if args.report:
        payload = {
            "exact": {"holds": failure is None, "failure": failure},
            "merge_bound": bound,
            "certificate": certificate.to_dict(),
        }
        _atomic_write(args.report, json.dumps(payload, indent=2) + "\n")
    if verdict is not None:
        print(verdict)
        return EXIT_VERIFY
    if not certificate.passed:
        print("verify: FAILED certificate: " + "; ".join(certificate.failures))
        return EXIT_VERIFY
    if len(optimised.params) > certificate.n_parameters:
        print(f"verify: FAILED optimality: the optimised circuit has {len(optimised.params)} "
              f"parameters, the certificate proves {certificate.n_parameters} suffice")
        return EXIT_VERIFY
    print(f"verify: OK (exact check passed, merge bound {bound}; "
          f"certificate passed, {certificate.n_parameters} parameters)")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    path = args.circuit
    try:
        circuit = parse_circuit(_read(path))
    except ZXParamError as exc:
        print(f"{path}: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = brute_force_min(circuit, tol=args.tol,
                                 max_params=args.oracle_max_params,
                                 n_samples=args.samples, seed=args.seed)
    except (TooManyParams, TooLarge) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        optimised = phase_teleport(circuit, seed=args.seed)
    except ZXParamError as exc:
        print(f"oracle: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"min = {result.count}")
    for i in range(len(result.witness.new_param_names)):
        print(f"  {result.witness.row_string(i)}")
    if result.trivial:
        print(f"  trivial parameters: {', '.join(result.trivial)}")
    if args.report:
        _atomic_write(args.report, json.dumps({
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


class _Parser(argparse.ArgumentParser):
    """Raises BadConfiguration where argparse would print usage and exit 2;
    subparsers are made of the same class."""

    def error(self, message: str) -> NoReturn:
        raise BadConfiguration(message)


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], expected: str) -> Callable[[str], Any]:
    """An argparse ``type``: ``convert(text)`` if ``ok`` accepts it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
        return value
    return parse


def _int_between(low: int, high: int) -> Callable[[str], int]:
    return _checked(int, lambda v: low <= v <= high, f"an integer between {low} and {high}")


_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zxparam", description="Parameter-count optimisation for Clifford+phase circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    optimize = sub.add_parser("optimize", help="optimise circuits via phase teleportation")
    optimize.add_argument("inputs", nargs="+", type=Path)
    optimize.add_argument("--out", type=Path, help="output circuit path (single input only)")
    verify = sub.add_parser("verify", help="check an optimised circuit against its map")
    for name in ("original", "optimised", "map"):
        verify.add_argument(name, type=Path)
    oracle = sub.add_parser("oracle", help="brute-force minimal parameter count")
    oracle.add_argument("circuit", type=Path)
    oracle.add_argument("--oracle-max-params", type=_int_between(0, MAX_ORACLE_PARAMS), default=4)
    for p in (optimize, verify, oracle):
        p.add_argument("--seed", type=_seed, help="deterministic seed (default: ZXPARAM_SEED or 0)")
        p.add_argument("--report", type=Path)
    oracle.add_argument("--samples", type=_int_between(2, MAX_SAMPLES), default=5,
                        help=f"random samples on top of the structured set (2 to {MAX_SAMPLES})")
    oracle.add_argument("--tol", type=_checked(float, lambda v: v > 0 and math.isfinite(v),
                                               "a positive finite number"), default=1e-9)
    return parser


PARSER = build_parser()  # built once: main runs many times in one process
HANDLERS = {"optimize": cmd_optimize, "verify": cmd_verify, "oracle": cmd_oracle}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        if args.seed is None:
            env = os.environ.get("ZXPARAM_SEED", "0")
            try:
                args.seed = _seed(env)
            except argparse.ArgumentTypeError as exc:
                raise BadConfiguration(f"ZXPARAM_SEED {exc}") from None
        return HANDLERS[args.command](args)
    except BadConfiguration as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileAccessError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
