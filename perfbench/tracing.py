"""Spans and counters around shadowspec's public calls, kept in memory.

Spans are recorded from outside the library: ``instrument`` replaces the
public functions that ``runner`` and ``reporting`` import with timed
wrappers, and wraps ``QuadraticNumber.__init__`` and each system family's
``apply``/``distance`` with plain counters.  Everything is restored on exit.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Modules whose imported public functions get spans.  specification's own
# ``shadow`` is included so that specification_point's self time is net of it.
_SPANNED_MODULES = ("runner", "reporting")
_EXTRA_SPANS = (("specification", "shadow"),)
_SYSTEM_CLASSES = ("ShiftSpace", "ToralAutomorphism", "CircleRotation",
                   "PermutationSystem")

# Counts read off a span's result: {span name: (counter, size of result)}.
_RESULT_COUNTS = {
    "pseudo_orbits.perturbed_orbit": ("pseudo_orbits.points",
                                      lambda po: len(po.points)),
    "covers.build_cover": ("covers.cells", len),
}


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._open = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        sized = _RESULT_COUNTS.get(name)
        if sized is not None:
            self.counts[sized[0]] += sized[1](result)
        return result

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, first: int, last: int, duration) -> dict:
        """Calls, total and self time per span name over spans[first:last].

        ``duration(start, end)`` gives a span's time.
        """
        spans = self.spans[first:last]
        own = [duration(start, end) for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= first:
                child_time[parent - first] += own[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, _, _, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += own[i]
            entry["self_s"] += own[i] - child_time[i]
        return dict(out)

    def write(self, path, first_id: int) -> None:
        """Append all spans as JSON lines, each carrying the run id.

        Spans are numbered from ``first_id`` on; ``parent`` is the number of
        the enclosing span, or -1.
        """
        with open(path, "a") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": first_id + i, "name": name,
                    "start": start, "end": end,
                    "parent": first_id + parent if parent >= 0 else -1,
                }) + "\n")


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@contextmanager
def instrument(tracer: Tracer, package):
    """Patch ``package``'s modules to report into ``tracer`` until exit."""
    patched = []

    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    prefix = package.__name__ + "."
    try:
        for mod_name in _SPANNED_MODULES:
            module = getattr(package, mod_name)
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__.startswith(prefix)
                        and value.__module__ != module.__name__):
                    patch(module, attr, tracer.spanned(_span_name(value), value))
        for mod_name, attr in _EXTRA_SPANS:
            module = getattr(package, mod_name)
            fn = getattr(module, attr)
            patch(module, attr, tracer.spanned(_span_name(fn), fn))
        qn = package.scalars.QuadraticNumber
        patch(qn, "__init__", tracer.counted("scalars.quadratic_new",
                                             qn.__init__))
        for cls_name in _SYSTEM_CLASSES:
            cls = getattr(package.systems, cls_name)
            patch(cls, "apply", tracer.counted("systems.apply_calls", cls.apply))
            patch(cls, "distance", tracer.counted("systems.distance_calls",
                                                  cls.distance))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
