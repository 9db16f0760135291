"""In-memory span recorder for the traced pass of the benchmark.

Spans are recorded from outside the program: around the benchmark's own
calls into a layer (:meth:`SpanRecorder.span`) and around public methods of
the live objects a workload drives (:meth:`SpanRecorder.wrap`, which
shadows the bound method with a timed instance attribute — or a module's
public function with a timed one — and is undone by
:meth:`SpanRecorder.unwrap_all`).  Nothing under ``src/`` changes.

A span is ``{name, start, end, parent, round, count}``: ``parent`` is the
index of the enclosing span (-1 for a root), ``round`` the round it belongs
to (-1 = set-up), ``count`` an optional work count taken at the same
boundary (rows returned).  Spans stay in memory until :meth:`write_jsonl`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, ROUND, COUNT = range(6)
_ABSENT = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.round = -1
        self._stack: List[int] = []
        self._wrapped: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.round, None])

    def end(self, count: Optional[int] = None) -> None:
        now = perf_counter()
        span = self.spans[self._stack.pop()]
        span[END] = now
        span[COUNT] = count

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.start(name)
        try:
            yield
        finally:
            self.end()

    def wrap(
        self,
        obj: object,
        attribute: str,
        name: str,
        count: Optional[Callable[[object], int]] = None,
    ) -> None:
        """Time every ``obj.attribute(...)`` call as a span called ``name``."""
        inner = getattr(obj, attribute)

        def timed(*args, **kwargs):
            self.start(name)
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                self.end(count(result) if count and result is not None else None)

        # An instance has no attribute of its own to put back (the class's
        # method shows again); a module does.
        self._wrapped.append((obj, attribute, vars(obj).get(attribute, _ABSENT)))
        setattr(obj, attribute, timed)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`."""
        for obj, attribute, own in reversed(self._wrapped):
            if own is _ABSENT:
                delattr(obj, attribute)
            else:
                setattr(obj, attribute, own)
        self._wrapped.clear()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def durations(self, name: str, rounds: Optional[range] = None) -> List[float]:
        """Seconds of every finished span called ``name`` (within ``rounds``)."""
        return [
            span[END] - span[START]
            for span in self.spans
            if span[NAME] == name and (rounds is None or span[ROUND] in rounds)
        ]

    def per_round(self, name: str, rounds: range) -> List[float]:
        """Total seconds of ``name`` spans in each round of ``rounds``."""
        totals: Dict[int, float] = dict.fromkeys(rounds, 0.0)
        for span in self.spans:
            if span[NAME] == name and span[ROUND] in totals:
                totals[span[ROUND]] += span[END] - span[START]
        return list(totals.values())

    def counts(self, name: str, rounds: range) -> int:
        return sum(
            span[COUNT] or 0
            for span in self.spans
            if span[NAME] == name and span[ROUND] in rounds
        )

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        result = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                result[span[PARENT]] -= span[END] - span[START]
        return result

    def problems(self) -> List[str]:
        """Structural defects: open spans, children outside parents,
        negative self time, rounds without exactly one root."""
        found: List[str] = []
        roots: Dict[int, int] = {}
        for index, span in enumerate(self.spans):
            if span[END] is None:
                found.append(f"span {index} {span[NAME]} never ended")
                continue
            if span[PARENT] < 0:
                if span[ROUND] >= 0:
                    roots[span[ROUND]] = roots.get(span[ROUND], 0) + 1
                continue
            parent = self.spans[span[PARENT]]
            if not (parent[START] <= span[START] and span[END] <= parent[END]):
                found.append(f"span {index} {span[NAME]} lies outside its parent")
            if parent[ROUND] != span[ROUND]:
                found.append(f"span {index} {span[NAME]} crosses rounds")
        found.extend(
            f"round {number} has {n} root spans" for number, n in roots.items() if n != 1
        )
        if not any(span[END] is None for span in self.spans):
            found.extend(
                f"span {index} has negative self time"
                for index, value in enumerate(self.self_times())
                if value < 0
            )
        return found

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "round", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
