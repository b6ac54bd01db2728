"""In-memory spans around colexvec's public functions, installed from outside.

The tracer replaces a function at the name its callers look up (for example
``colexvec.cli.infer_network`` or ``colexvec.prone.factorize``) with a
wrapper that records a span: name, start, end, parent span and run id.
Nothing in the package changes; ``restore`` puts every original back.

Functions called hundreds of thousands of times per run (provider scores,
logistic gradients) get counters instead of spans, and provider scores are
timed on a sample of calls only, so the trace stays small and its overhead
stays low.
"""

from __future__ import annotations

import functools
import itertools
import logging
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<module>.<what>", the module being the layer it is charged to
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    run: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self.epoch_marks: list = []
        self._stack: list = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patches: list = []
        self._tickets: list = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; spans from other threads are dropped."""
        if threading.get_ident() != self._main:
            yield None
            return
        s = Span(name, time.perf_counter(), float("nan"),
                 self._stack[-1] if self._stack else -1, self.run_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `after(span, args, kwargs, result)` may add counts to the span's info
        and may return a replacement result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if after is not None and s is not None:
                replaced = after(s, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        self.patch(owner, attr, traced)

    def wrap_counted(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr (main thread only) into counters[name]."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counting(*args, **kwargs):
            self.counters[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counting)

    def sampled(self, fn, name: str, every: int = 64):
        """fn, counting every call and timing one call in `every`.

        Safe from pool threads: the call ticket comes from itertools.count,
        and only the sampled calls take the lock. Calls land in
        counters[name + ".calls"] at restore(); sampled time in name + ".s".
        """
        ticket = itertools.count()
        self._tickets.append((name, ticket))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if next(ticket) % every:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.counters[name + ".sampled"] += 1
                    self.counters[name + ".s"] += dt
        return wrapper

    @contextmanager
    def epoch_log(self, logger_name: str):
        """Timestamp every DEBUG record of `logger_name` while the block runs."""
        marks = self.epoch_marks

        class Mark(logging.Handler):
            def emit(self, record):
                marks.append(time.perf_counter())

        log = logging.getLogger(logger_name)
        handler, level = Mark(logging.DEBUG), log.level
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        try:
            yield
        finally:
            log.removeHandler(handler)
            log.setLevel(level)

    def restore(self) -> None:
        for name, ticket in self._tickets:
            self.counters[name + ".calls"] += next(ticket)
        self._tickets.clear()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reductions -------------------------------------------------------

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.spans if s.name == name), 0.0)

    def select(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Counter:
        """Self time per module: each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out = Counter()
        for s, covered in zip(self.spans, child):
            out[s.name.split(".", 1)[0]] += s.duration - covered
        return out

    def top_level_time(self) -> float:
        return sum((s.duration for s in self.spans if s.parent < 0), 0.0)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, "info": s.info}
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }
