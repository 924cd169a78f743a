"""Spans and counts at embedscale's layer boundaries, taken from outside.

The tracer rebinds every public function of every embedscale module, in each
module namespace that holds it (its home module and every module that
imports it). Functions are found by module, not from a list, so a renamed
or removed function drops its metric instead of failing the run.

A traced op runs twice. In the timing pass each function becomes a span
(name, parent span, start, end); in the counting pass each call is
counted and attributed to the innermost function still open, which gives
ratios such as evaluations per planner call. Functions too cheap to time
(mean call under COUNT_BELOW_S in a calibration op, where timing would add
more than about 5 % to each call) are left unwrapped in the timing pass, so
their cost lands in the caller's self time and the spans are not inflated
by counting. A function called fewer than HOT_MIN_CALLS times in that op is
always timed, since its spans cost little in total. Spans and counts stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
from collections import Counter

COUNT_BELOW_S = 20e-6
HOT_MIN_CALLS = 100


def discover(package):
    """(module, attribute, function) for each public embedscale function binding."""
    prefix = package.__name__ + "."
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(prefix + info.name)
        for attr, value in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__.startswith(prefix)):
                yield module, attr, value


def span_name(fn) -> str:
    """Home module and function name, e.g. "metrics.parse_score_records"."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self, package):
        self.bindings = list(discover(package))
        self.hot = set()           # names counted but never timed
        self.spans = []            # [name, parent index or -1, start, end]
        self.stack = []            # indices of open spans
        self.values = Counter()    # quantities read from arguments and results
        self.calls = Counter()     # name -> calls, from the counting pass
        self.nested = Counter()    # (innermost open function, hot name) -> calls
        self._open = []            # names of open functions in the counting pass

    def calibrate(self, op):
        """Time every function over one op; mark those too cheap to time."""
        self.hot = set()
        with self.timing():
            op()
        total, calls = Counter(), Counter()
        for name, _, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
        self.hot = {name for name, n in calls.items()
                    if n >= HOT_MIN_CALLS and total[name] / n < COUNT_BELOW_S}
        for container in (self.spans, self.stack, self.values):
            container.clear()

    def timing(self):
        """Context in which calls of all but the hot functions become spans."""
        return self._installed(lambda fn: None if span_name(fn) in self.hot
                               else self._timed(fn))

    def counting(self):
        """Context in which every call is counted."""
        return self._installed(self._counted)

    def self_times(self) -> Counter:
        """Span duration minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    @contextlib.contextmanager
    def _installed(self, make):
        for module, attr, fn in self.bindings:
            wrapper = make(fn)
            if wrapper is not None:
                setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn in self.bindings:
                setattr(module, attr, fn)

    def _timed(self, fn):
        name = span_name(fn)
        spans, stack, clock, observe = self.spans, self.stack, time.perf_counter, self._observe

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            observe(name, args, result)
            return result
        return timed

    def _counted(self, fn):
        name = span_name(fn)
        calls, nested, open_ = self.calls, self.nested, self._open
        if name in self.hot:
            def hot(*args, **kwargs):
                calls[name] += 1
                if open_:
                    nested[open_[-1], name] += 1
                return fn(*args, **kwargs)
            return hot

        def cold(*args, **kwargs):
            calls[name] += 1
            open_.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
        return cold

    def _observe(self, name, args, result):
        """Work counts read by shape from a timed call's arguments and result."""
        values = self.values
        if isinstance(result, list) and result and hasattr(result[0], "negatives"):
            values[name + ".scores"] += sum(len(r.positives) + len(r.negatives)
                                            for r in result)
        elif hasattr(result, "model_names"):
            values[name + ".rows"] += len(result)
        elif isinstance(result, tuple):
            for item in result:
                if hasattr(item, "n_starts") and hasattr(item, "iterations"):
                    values[name + ".starts"] += item.n_starts
                    values[name + ".winner_iterations"] += item.iterations
        elif getattr(result, "ndim", 0) == 2 and len(args) >= 2 and all(
                hasattr(a, "rows") and hasattr(a, "dim") for a in args[:2]):
            values[name + ".flops"] += 2 * args[0].rows * args[1].rows * args[0].dim
        if args and isinstance(args[0], (list, tuple)) and args[0] and hasattr(
                args[0][0], "positives"):
            values[name + ".positives_in"] += sum(len(r.positives) for r in args[0])
