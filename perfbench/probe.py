"""A fixed slice of work that measures how fast the machine runs now.

On a shared host the same op can take 1.5x longer in one minute than in
the next, with no steal time reported: the CPU itself runs slower. The
benchmark runs this probe between ops (never during one) and divides each
op's time by the probes on either side. The work mixes what embedscale's
ops spend their time on, in two halves of about equal time: float parsing
and formatting, JSON, exp/log and exactly rounded sums in pure Python; and
numpy calls on small arrays (products, solves, exp), which is what the
fitting engine and the planner do. Over eight minutes of fit, plan, eval-ce
and load_matrix ops on a shared 2-core VM, 25 s medians of op time over
probe time varied by 0.08 (standard deviation over mean) with both halves,
by 0.10 with the pure-Python half alone, and by 0.13 unscaled. A half of
large-array work would track a little better still, but its memory would
count towards the embed worker's peak RSS.

A *reference second* is a second at the speed where the probe takes REF_S.
RefClock scales work that lasts seconds step by step, with a probe between
steps.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

ROUNDS = 30
WARM_ROUNDS = 8
REF_S = 0.05      # about the probe's time on the 2-core VM the benchmark was sized on
_TEXT = json.dumps([{"id": f"q{i}", "scores": [0.1 + i * 1e-3 + j * 1e-4 for j in range(16)]}
                    for i in range(40)])
_RNG = np.random.default_rng(0)
_MATS = [_RNG.standard_normal((8, 8)) for _ in range(40)]   # numpy half ~ Python half
_VEC = _RNG.standard_normal(2000)
_EYE = np.eye(8)


def _work(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        for record in json.loads(_TEXT):
            scores = [float(repr(s)) for s in record["scores"]]
            total += math.log(math.fsum(math.exp(s) for s in scores))
        for m in _MATS:
            total += float(np.linalg.solve(m.T @ m + _EYE, m[0])[0])
            total += float(np.exp(_VEC * 1e-3).sum())
    return total


def probe() -> float:
    """Seconds this process takes for the fixed slice of work.

    A short untimed round first warms the caches that the op before it
    left cold.
    """
    _work(WARM_ROUNDS)
    start = time.perf_counter()
    _work(ROUNDS)
    return time.perf_counter() - start


class RefClock:
    """Wall and CPU time, plain and in reference seconds, cut into steps.

    split() ends a step and runs a probe. Each step is scaled by REF_S over
    the mean of the probes on either side of it; the probes' own time is
    left out. Within work that lasts seconds the machine's speed swings
    widely, so one scale for all of it would not do. CPU time is this
    process's own.
    """

    def __init__(self, probe_s: float):
        """probe_s: a probe run just before the first step."""
        self.probe_s = probe_s
        self.wall = self.cpu = self.ref_wall = self.ref_cpu = 0.0
        self._start()

    def _start(self):
        self.start, self.start_cpu = time.perf_counter(), time.process_time()

    def split(self, probe_s: float | None = None):
        """End the step; probe_s, when given, is a probe already run after it."""
        wall = time.perf_counter() - self.start
        cpu = time.process_time() - self.start_cpu
        probe_s = probe_s or probe()
        scale = REF_S * 2 / (self.probe_s + probe_s)
        self.wall += wall
        self.cpu += cpu
        self.ref_wall += wall * scale
        self.ref_cpu += cpu * scale
        self.probe_s = probe_s
        self._start()
