"""In-memory spans and class-level call counters for the traced run.

Spans are recorded from the benchmark's own calls into the library, one per
layer call plus one per query that parents them.  Methods the benchmark does
not call directly (``Semiring.matmul``, ``Matrix.__post_init__``) are wrapped
at class level; each wrapped call adds to a (stage, label) counter of calls
and nanoseconds, where stage is the layer span open at the time.  Nothing is
written until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, name, query, t0, t1)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.nanos: dict[tuple[str, str], int] = defaultdict(int)
        self.stage = "none"
        self.absent: set[str] = set()
        self._restore: list[tuple] = []

    def span(self, parent: int | None, name: str, query: int | None,
             t0: int, t1: int) -> int:
        sid = len(self.spans)
        self.spans.append((sid, parent, name, query, t0, t1))
        return sid

    def wrap(self, cls, attr: str, label) -> None:
        """Count calls to cls.attr under label(args); absent names are noted."""
        orig = getattr(cls, attr, None)
        if orig is None:
            self.absent.add(f"{cls.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return orig(*args, **kwargs)
            finally:
                key = (tracer.stage, label(args))
                tracer.calls[key] += 1
                tracer.nanos[key] += now() - t0

        self._restore.append((cls, attr, attr in cls.__dict__, orig))
        setattr(cls, attr, wrapper)

    @contextmanager
    def wrapped(self, targets):
        """Wrap each (cls, attr, label) for the duration of the block."""
        for cls, attr, label in targets:
            self.wrap(cls, attr, label)
        try:
            yield
        finally:
            self.unwrap()

    def run_stages(self, ctx, q, qi: int, stages, root: str):
        """Run a stage pipeline with one span per stage under a root span."""
        out = None
        t0 = now()
        rid = self.span(None, root, qi, t0, t0)
        for name, fn in stages:
            self.stage = name
            a = now()
            out = fn(ctx, q, out)
            self.span(rid, name, qi, a, now())
        self.stage = "none"
        t1 = now()
        self.spans[rid] = (rid, None, root, qi, t0, t1)
        return out, t0, t1

    def unwrap(self) -> None:
        while self._restore:
            cls, attr, own, orig = self._restore.pop()
            if own:
                setattr(cls, attr, orig)
            else:
                delattr(cls, attr)

    def counted(self, label: str, stages=None) -> tuple[int, float]:
        """(calls, milliseconds) under label, summed over the given stages."""
        keys = [k for k in self.calls
                if k[1] == label and (stages is None or k[0] in stages)]
        return (sum(self.calls[k] for k in keys),
                sum(self.nanos[k] for k in keys) / 1e6)

    def labels(self) -> list[str]:
        return sorted({k[1] for k in self.calls})

    def dump(self, path, meta: dict) -> None:
        """Write gzipped JSON lines: meta, then one [id, parent, name,
        query, start_ns, end_ns] array per span, then one object per
        counter.  Times are relative to the first span."""
        base = self.spans[0][4] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for sid, parent, name, query, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, query, t0 - base,
                                     t1 - base]) + "\n")
            for (stage, label), calls in sorted(self.calls.items()):
                fh.write(json.dumps({"counter": label, "stage": stage,
                                     "calls": calls,
                                     "ns": self.nanos[(stage, label)]}) + "\n")
