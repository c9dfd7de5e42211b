"""A fixed reference task that measures how fast the machine runs right now.

On a shared machine the speed available to one process changes by 20-40%
within seconds and between minutes, and the fastest of a job's executions
does not remove that: there are stretches of tens of seconds in which no
execution runs at full speed.  The benchmark therefore times this task right
before every job and scales the job's time by ``REFERENCE_S / reference``:
a job time becomes the time it would take on a machine where the task takes
exactly ``REFERENCE_S``.  Both are interpreter-bound Python, so a slow
stretch lengthens them alike and the ratio stays put.

The task never calls zxparam: a change to the program cannot move it, so
every change in a scaled time is the program's.  Its inputs are fixed, not
taken from the workload seed.
"""

from __future__ import annotations

from random import Random
from time import perf_counter
from typing import Tuple

REFERENCE_S = 1e-3  # the scale: seconds the task takes at reference speed
REPEATS = 3  # the fastest of three back-to-back runs, about 5 ms in all

_N = 300
_rng = Random(20240123)
_EDGES = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(900)]
_ROWS = [_rng.getrandbits(64) for _ in range(120)]


def task() -> Tuple[int, int]:
    """Breadth-first search over a fixed random graph held in dicts and sets,
    then Gaussian elimination over GF(2) on fixed 64-bit rows: the kinds of
    work zxparam's diagram and reduction code does.  Returns (vertices
    reached, rank)."""
    adjacent = {v: set() for v in range(_N)}
    for a, b in _EDGES:
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    depth = {0: 0}
    frontier = [0]
    while frontier:
        following = []
        for v in frontier:
            for w in adjacent[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    following.append(w)
        frontier = following
    rows = list(_ROWS)
    rank = 0
    for bit in range(64):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return len(depth), rank


EXPECTED = task()


def reference_seconds() -> float:
    """Time of the task now: the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        result = task()
        best = min(best, perf_counter() - start)
    if result != EXPECTED:
        raise RuntimeError(f"reference task gave {result}, expected {EXPECTED}")
    return best
