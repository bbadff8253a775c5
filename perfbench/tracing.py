"""In-memory spans and counters recorded around calls into the program.

The program itself is not edited: spans come from wrappers that the
benchmark installs on module attributes (see Patcher) and from the
benchmark's own calls. Each span has a name, start, end, parent span and
the id of the pass it belongs to. A span's self time is its duration minus
the time its child spans cover, so the self times of all spans in a pass add
up to the pass's own span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or None, pass id)
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents before children
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        """fn wrapped in a span; counter(args, kwargs, result) -> {key: n}
        is evaluated after the span has ended."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[self.pass_id][key] += n
            return result

        return traced

    def self_times(self, pass_ids: set[str]) -> dict[str, float]:
        """Total self time per span name over the given passes."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid in pass_ids:
                totals[name] += (end - start) - covered[i]
        return totals

    def count_totals(self, pass_ids: set[str]) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for pid in pass_ids:
            for key, n in self.counts.get(pid, {}).items():
                totals[key] += n
        return totals

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]


class Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)
