"""Spans recorded from outside the program, by wrapping module attributes.

A wrapped function is replaced in the module where its caller looks it
up, so no file under ``src/`` changes. :class:`Patches` makes and undoes
such replacements; :meth:`Tracer.wrapper` builds the recording wrapper.
Each call records a span (name, start, end, parent, round) plus optional
counts; spans stay in memory until :meth:`Tracer.dump`. Span wrappers are
installed for a traced round only and removed afterwards.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "counts")

    def __init__(self, name, start, parent, round_index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_index
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patches:
    """Module attributes replaced for a while, then restored in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``module.attr`` to ``make(original)``."""
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._saved.append((module, attr, original))

    def restore_all(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.round = 0
        self._open: List[int] = []

    def wrapper(self, name: str,
                count: Optional[Callable[[tuple, object], Dict[str, float]]] = None):
        """A ``make`` for :meth:`Patches.replace` that records spans named ``name``.

        ``count(args, result)`` returns counts attached to the span.
        """
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else None
                span = Span(name, 0.0, parent, self.round)
                self.spans.append(span)
                self._open.append(index)
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._open.pop()
                if count is not None:
                    span.counts.update(count(args, result))
                return result

            return wrapper

        return make

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are single-threaded, so children of one span never overlap.
        """
        selfs = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                selfs[s.parent] -= s.duration
        return selfs

    def round_summary(self, round_index: int) -> "RoundSummary":
        selfs = self.self_times()
        picked = [(s, selfs[i]) for i, s in enumerate(self.spans) if s.round == round_index]
        return RoundSummary(picked)

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "round": s.round, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


class RoundSummary:
    """Totals over the spans of one traced round."""

    def __init__(self, picked) -> None:
        self._picked = picked

    def total(self, name: str) -> float:
        return sum(s.duration for s, _ in self._picked if s.name == name)

    def self_total(self, prefix: str) -> float:
        return sum(own for s, own in self._picked if s.name.startswith(prefix))

    def calls(self, name: str) -> int:
        return sum(1 for s, _ in self._picked if s.name == name)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s, _ in self._picked if s.name == name)

    def p50(self, name: str) -> float:
        durations = [s.duration for s, _ in self._picked if s.name == name]
        return statistics.median(durations) if durations else 0.0
