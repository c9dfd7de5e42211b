"""Spans around zxparam's layer boundaries, installed from outside the package.

Each traced name is replaced, for the duration of one ``with tracer.active():``
block, by a wrapper that times the call and reads counts off its result.
Times are kept per span name as inclusive time (the whole call) and self time
(minus the traced calls it made).  Reading counts happens after the clock is
stopped and is subtracted from every enclosing span, so the counts cost the
spans nothing.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import zxparam.circuits
import zxparam.cli
import zxparam.reduction
import zxparam.rewrite
import zxparam.tensor
import zxparam.verify

# span name -> every module attribute through which the CLI reaches it
SPANS: Dict[str, Tuple[Tuple[object, str], ...]] = {
    "circuits.parse_circuit": ((zxparam.cli, "parse_circuit"),),
    "circuits.emit_circuit": ((zxparam.cli, "emit_circuit"),),
    "circuits.circuit_to_network": ((zxparam.circuits, "circuit_to_network"),),
    "diagram.to_graph_like": ((zxparam.circuits, "to_graph_like"),),
    "rewrite.simplify": ((zxparam.cli, "simplify"), (zxparam.reduction, "simplify")),
    "reduction.extract_reduction": ((zxparam.reduction, "extract_reduction"),),
    "reduction.phase_teleport": ((zxparam.cli, "phase_teleport"),),
    "circuits.circuit_unitary": ((zxparam.verify, "circuit_unitary"),),
    "tensor.proportionality_ratio": ((zxparam.verify, "proportionality_ratio"),
                                     (zxparam.tensor, "proportionality_ratio")),
    "tensor.tensor_eval": ((zxparam.tensor, "tensor_eval"),),
    "verify.check_reduction": ((zxparam.cli, "check_reduction"),),
    "verify.optimality_certificate": ((zxparam.cli, "optimality_certificate"),),
    "verify.brute_force_min": ((zxparam.cli, "brute_force_min"),),
}

RULES = tuple(rule.value for rule in zxparam.rewrite.Rule)


class Tracer:
    """Accumulates span times and counts over any number of traced calls."""

    def __init__(self):
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.rule_histograms: List[Dict[str, int]] = []  # one per simplify call
        self._children: List[float] = []  # per open span: traced time of its children
        self._excluded = 0.0  # time spent reading counts, hidden from all spans

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            excluded_before = self._excluded
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (self._excluded - excluded_before)
                children = self._children.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed
            if observe is not None:
                start = perf_counter()
                observe(result)
                self._excluded += perf_counter() - start
            return result
        return traced

    def _observe_graph_like(self, d) -> None:
        self.counts["diagram.spiders"] += len(d.spiders())
        self.counts["diagram.edges"] += sum(1 for _ in d.edges())

    def _observe_simplify(self, result) -> None:
        terminal, events = result
        histogram = Counter(ev.rule.value for ev in events)
        self.rule_histograms.append({rule: histogram[rule] for rule in RULES})
        self.counts.update({f"rewrite.rule.{rule}": n for rule, n in histogram.items()})
        self.counts["rewrite.steps"] += len(events)
        self.counts["rewrite.terminal_spiders"] += len(terminal.spiders())

    def _observe_teleport(self, result) -> None:
        self.counts["reduction.params_out"] += len(result.circuit.params)

    def _observe_check(self, report) -> None:
        self.counts["verify.samples"] += len(report.ratios)

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers; restore the original functions on exit."""
        observers = {"diagram.to_graph_like": self._observe_graph_like,
                     "rewrite.simplify": self._observe_simplify,
                     "reduction.phase_teleport": self._observe_teleport,
                     "verify.check_reduction": self._observe_check}
        saved = []
        for name, targets in SPANS.items():
            original = getattr(*targets[0])
            wrapper = self.span(name, original, observers.get(name))
            for module, attr in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
