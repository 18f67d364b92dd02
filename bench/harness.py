"""Closed-loop timing of a workload's ops, and the statistics reported.

A workload is an object with ``labels`` (one per op of a pass), ``run(i)``
(run op ``i`` and return its output) and ``check(records)``.  One caller
thread runs the ops of a pass in order, each op starting after the previous
one ends, and repeats whole passes until the requested time is used up.
Each pass's outputs are checked after the pass, outside the timed window.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpError:
    """Stands in for the output of an op that raised."""

    kind: str
    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "OpError":
        return cls(type(exc).__name__, str(exc))


@dataclass
class Check:
    """Outcome of a workload's correctness check over a list of records."""

    failed: int
    messages: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass
class Phase:
    """The timings of consecutive whole passes, and the checks of their outputs.

    Per-op timings are kept as a running minimum and one float32 row of
    ratios per pass, so memory barely grows with the number of passes.
    """

    best_latency: np.ndarray | None = None  # each op's fastest latency (s)
    ratios: list = field(default_factory=list)  # per pass: op latency / reference time
    pass_walls: list = field(default_factory=list)  # wall time (s) of each pass
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)  # each check stat, averaged over passes
    last_outputs: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.attempted

    @property
    def wall(self) -> float:
        return sum(self.pass_walls)


def reference_kernel() -> float:
    """A fixed piece of scalar Python of the kind ``biholo`` runs: complex
    arithmetic, ``math`` calls, tuples and attribute lookups."""
    total = 0.0
    z = complex(0.3, 0.4)
    for k in range(300):
        w = complex(k * 1e-3, 0.5 + k * 1e-4)
        pair = (z - w, z * w.conjugate())
        total += abs(pair[0]) / (1.0 + abs(pair[1])) + math.log1p(w.imag) + cmath.sqrt(w).real
    return total


def _probe(clock) -> float:
    """Seconds the reference kernel takes now: the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        reference_kernel()
        best = min(best, clock() - t0)
    return best


PROBE_EVERY_S = 0.02


def run_passes(workload, seconds: float, run=None, min_passes: int = 2) -> Phase:
    """Run whole passes until ``seconds`` of timed wall time have been spent,
    and at least ``min_passes``, so that every op has a repeat.

    Each pass's outputs are checked right after the pass, outside the timed
    window, and then dropped, so that memory does not grow with the number
    of passes.  ``run`` replaces ``workload.run`` (the traced run).

    Between ops, whenever ``PROBE_EVERY_S`` of op time has passed, the
    reference kernel is timed; each op is paired with the mean of the
    probes just before and just after it.
    """
    run = run or workload.run
    n = len(workload.labels)
    clock = time.perf_counter
    phase = Phase()
    spent = 0.0
    while spent < seconds or len(phase.pass_walls) < min_passes:
        lat = [0.0] * n
        ref = [0.0] * n
        outs = [None] * n
        start = clock()
        before = _probe(clock)
        pending, since = [], 0.0
        for i in range(n):
            t0 = clock()
            try:
                out = run(i)
            except Exception as exc:  # an op that raises counts as failed
                out = OpError.of(exc)
            lat[i] = clock() - t0
            outs[i] = out
            pending.append(i)
            since += lat[i]
            if since >= PROBE_EVERY_S or i == n - 1:
                after = _probe(clock)
                for j in pending:
                    ref[j] = 0.5 * (before + after)
                before, pending, since = after, [], 0.0
        wall = clock() - start
        lat = np.asarray(lat)
        best = phase.best_latency
        phase.best_latency = lat if best is None else np.minimum(best, lat)
        phase.ratios.append((lat / np.asarray(ref)).astype(np.float32))
        phase.pass_walls.append(wall)
        spent += wall
        check = workload.check(list(enumerate(outs)))
        phase.attempted += n
        phase.failed += check.failed
        phase.messages += check.messages[: max(10 - len(phase.messages), 0)]
        passes = len(phase.pass_walls)
        for key, value in check.stats.items():
            phase.stats[key] = phase.stats.get(key, 0.0) + (value - phase.stats.get(key, 0.0)) / passes
        phase.last_outputs = outs
    return phase


def throughput(phase: Phase) -> float:
    """Ops per second of a pass in which every op takes its fastest latency."""
    return len(phase.best_latency) / float(phase.best_latency.sum())


def cost_in_reference_units(phase: Phase) -> float:
    """Mean over a pass's ops of each op's median latency-to-reference ratio
    across passes.

    The machine's speed drifts by up to 2x over minutes from load outside
    this process.  An op and the reference kernel it is paired with run
    within milliseconds of each other, so the drift shows in both and
    cancels in the ratio, where a wall-clock rate would follow it.
    """
    return float(np.median(np.stack(phase.ratios).astype(np.float64), axis=0).mean())


def latency_percentiles(phase: Phase, qs=(50.0, 99.0)) -> list[float]:
    """Percentiles (s) over the ops of a pass of each op's fastest latency."""
    return [float(np.percentile(phase.best_latency, q)) for q in qs]
