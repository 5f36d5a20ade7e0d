"""In-memory spans around the benchmark's calls into each layer.

A span is (id, name, start_ns, end_ns, parent id, op id, phase, work).
`phase` says which part of the run made it: "loop" (a timed op of the
traced closed loop), "probe" (a per-layer call made only in the traced
run) or "check" (a check-value computation).  `work` holds counts taken
at the same boundary, such as uniforms drawn or result bits.  Spans stay
in memory and are written out once, at the end of the run.

Timestamps are `time.perf_counter_ns()`, which reads CLOCK_MONOTONIC on
Linux, so spans from the parent and the worker process share one clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, phase: str = "probe") -> None:
        self.phase = phase
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start_ns: int, end_ns: int, op=None,
            work: dict | None = None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start_ns": start_ns,
                           "end_ns": end_ns,
                           "parent": self._open[-1] if self._open else None,
                           "op": op, "phase": self.phase, "work": work or {}})
        return span_id

    @contextmanager
    def span(self, name: str, op=None, **work):
        """Time the body; the yielded dict is the span's `work`, filled in
        by the body.  Spans opened inside become its children."""
        span_id = self.add(name, time.perf_counter_ns(), 0, op, work)
        self._open.append(span_id)
        try:
            yield self.spans[span_id]["work"]
        finally:
            self._open.pop()
            self.spans[span_id]["end_ns"] = time.perf_counter_ns()

    def extend(self, spans: list[dict]) -> None:
        """Append spans recorded by another tracer, keeping their links."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, id=s["id"] + base,
                                   parent=None if s["parent"] is None
                                   else s["parent"] + base))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in microseconds per top-level package.

    `python -X importtime` prints one line per module, nested by two
    spaces per level.  A package's figure is the sum of the cumulative
    times of its outermost lines, so submodules imported inside it are
    not counted twice.
    """
    totals: dict[str, int] = {}
    open_at: dict[str, int] = {}  # package -> depth of its outermost open line
    lines = [ln for ln in stderr.splitlines() if ln.startswith("import time:")]
    # Lines are printed as imports finish, children before parents, so
    # walk them backwards to see each parent before its children.
    for line in reversed(lines):
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        module = name.strip()
        top = module.split(".")[0]
        for pkg in [p for p, d in open_at.items() if d >= depth]:
            del open_at[pkg]
        if top not in open_at:
            open_at[top] = depth
            totals[top] = totals.get(top, 0) + int(fields[1])
    return totals
