"""Span tracing of library calls, installed from outside the library.

:meth:`Tracer.wrap` replaces a function or method of ``timekge`` with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span. A module-level function is replaced in every
``timekge`` module that holds it, so calls through ``from .x import f``
bindings are seen as well. Spans stay in memory until :meth:`Tracer.write`.
A target that no longer exists is recorded in :attr:`Tracer.missing`, so a
metric built on it can be reported as missing rather than as zero.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "timekge"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, name: str, fn, on_return):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result
        return traced

    # -- installing ----------------------------------------------------

    def wrap(self, name: str, module: str, qualname: str, on_return=None) -> None:
        """Trace ``module.qualname`` as span ``name``.

        ``on_return(counts, args, kwargs, result)`` may add to
        :attr:`counts` after each call; it runs outside the span.
        """
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(name)
            return
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self._wrapper(name, original.__func__, on_return))
        else:
            replacement = self._wrapper(name, original, on_return)
        if path:
            owners = [owner]
        else:
            owners = [m for key, m in list(sys.modules.items())
                      if (key == PACKAGE or key.startswith(PACKAGE + "."))
                      and vars(m).get(attr) is original]
        for holder in owners:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- reading -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (duration minus children) and calls."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
            calls[name] += 1
        return dict(totals), calls

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
