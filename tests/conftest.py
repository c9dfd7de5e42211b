"""Shared helpers: the rule soundness check."""

from typing import Callable, Dict

import numpy as np

from helpers import structured_samples
from zxparam.diagram import Diagram
from zxparam.rewrite import RewriteEvent
from zxparam.tensor import proportionality_ratio, tensor_eval


def dropped_factor(event: RewriteEvent, assignment: Dict[str, float]) -> complex:
    if event.dropped is None:
        return 1.0 + 0j
    return complex(np.exp(1j * event.dropped.angle(assignment)))


ZERO_FLOOR = 1e-12  # well below any nonzero amplitude at test sizes


class ZeroInstance(Exception):
    """The generated diagram denotes the zero map; nothing to test."""


def assert_rule_sound(diagram: Diagram, apply_rule: Callable[[Diagram], RewriteEvent],
                      tol: float = 1e-9) -> RewriteEvent:
    """tensor(before) must equal a single constant times e^{i dropped(a)}
    times tensor(after) across all parameter samples.

    Samples where the state itself vanishes are vacuous and skipped (random
    non-unitary diagrams may hit them); a diagram that vanishes everywhere
    raises ZeroInstance so the caller can regenerate.
    """
    params = sorted(diagram.param_registry)
    before = diagram.copy()
    after = diagram.copy()
    event = apply_rule(after)
    evaluated = []
    for sample in structured_samples(params, n_random=2, seed=7):
        tb = tensor_eval(before, sample).amplitudes
        ta = tensor_eval(after, sample).amplitudes * dropped_factor(event, sample)
        evaluated.append((tb, ta))
    scale = max(max(np.max(np.abs(tb)), np.max(np.abs(ta))) for tb, ta in evaluated)
    if scale < ZERO_FLOOR:
        raise ZeroInstance
    floor = max(tol * scale, ZERO_FLOOR)
    ratios = []
    for tb, ta in evaluated:
        nb, na = np.max(np.abs(tb)), np.max(np.abs(ta))
        if nb < floor and na < floor:
            continue
        assert nb >= floor and na >= floor, "one side vanished alone"
        ok, lam, dev = proportionality_ratio(tb, ta, tol)
        assert ok, f"tensors not proportional (deviation {dev:.3e})"
        ratios.append(lam)
    if not ratios:
        raise ZeroInstance
    spread = max(abs(r - ratios[0]) for r in ratios)
    assert spread <= 1e-8 * max(abs(ratios[0]), 1.0), f"ratio varies across samples: {ratios}"
    return event
