"""In-memory span tracer that wraps the program's public functions.

A Target names a function by the module attribute its caller looks it
up under (``lgi_echo.stationarity.linear_inversion`` is the binding
stationarity calls, ``lgi_echo.tomography.linear_inversion`` the one
inside tomography), so every call site is caught exactly once.  While
installed, each call records a span: name, start, end, parent span,
the round it belongs to, and counts taken from its arguments and
result.  Spans stay in memory until the caller writes them out.

A target whose module or attribute no longer exists is skipped and
reported in ``absent``; its metrics then read as 0 calls.
"""

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One binding to wrap.

    span: span name, or a callable (args, kwargs) -> name for functions
        whose span is named after an argument.
    counts: optional callable (args, kwargs, result) -> {name: number}.
    """

    module: str
    attr: str
    span: object
    counts: Optional[Callable] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: Optional[int]
    counts: dict


class Tracer:
    def __init__(self, targets, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans = []
        self.absent = []
        self.round = None
        self._installed = []
        self._stack = []

    # -- installation -----------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            setattr(module, target.attr, self._wrap(original, target))
            self._installed.append((module, target.attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def record(self, name):
        """Span around a block; yields the Span, whose end is set on exit."""
        stack = self._stack
        span = Span(name, self.clock(), 0.0, stack[-1] if stack else None,
                    self.round, {})
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()

    def _wrap(self, fn, target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.span(args, kwargs) if callable(target.span) else target.span
            with tracer.record(name) as span:
                result = fn(*args, **kwargs)
            if target.counts is not None:
                span.counts.update(target.counts(args, kwargs, result))
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its children."""
        out = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end - span.start
        return out

    def summary(self):
        """{span name: {"calls", "total_s", "self_s", count totals...}}."""
        out = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += self_s
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def to_records(self):
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "round": s.round, "counts": s.counts}
            for i, s in enumerate(self.spans)
        ]
