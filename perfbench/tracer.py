"""In-memory span tracer that wraps functions and methods of a package.

A span records name, start, end, the span that was open when it began
(its parent) and a trace id naming the part of the benchmark it belongs
to. Spans stay in memory and are written out once, at the end. The
wrappers live only inside `Tracer.installed`: leaving the block puts
every original attribute back, also when the traced code raised.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans; -1 for a root span
    trace_id: str
    tag: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """One traced boundary: `attr` is a function name or `Class.method`."""

    module: str
    attr: str
    hook: object = None  # called as hook(tracer, span, args) before the call

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.attr.rsplit('.', 1)[-1]}"


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        clipped = sorted(
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in children.get(i, ())
        )
        for start, end in clipped:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration_ns - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()  # (trace_id, name) -> count
        self.trace_id = ""
        self._open: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self.trace_id, name)] += n

    def _wrap(self, target: Target, fn):
        spans, open_ = self.spans, self._open
        name, hook = target.span_name, target.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, open_[-1] if open_ else -1, self.trace_id)
            if hook is not None:
                hook(self, span, args)
            open_.append(len(spans))
            spans.append(span)
            span.start_ns = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = perf_counter_ns()
                open_.pop()

        return wrapper

    @contextmanager
    def installed(self, package: str, targets: list[Target]):
        """Wrap every target for the duration of the block.

        A module-level function is replaced under every name that binds
        it in any loaded module of `package`, because callers look it up
        in their own module's namespace.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        patches = []  # (owner, attribute, original)
        try:
            for target in targets:
                module = sys.modules[f"{package}.{target.module}"]
                if "." in target.attr:
                    cls_name, method = target.attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(target, original))
                    continue
                original = getattr(module, target.attr)
                wrapper = self._wrap(target, original)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is original]:
                        patches.append((m, key, original))
                        setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write_jsonl_gz(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "trace_id": s.trace_id, "tag": s.tag,
                }) + "\n")
