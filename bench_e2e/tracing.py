"""In-memory span recorder for the traced run.

Spans are recorded from the harness's side of each layer boundary by
wrapping attributes of the objects, classes and modules the runtime calls
through — in this process only; server processes are read through their
``admin:metrics`` op instead. A span is ``(id, parent, name, start, end,
nbytes)``; the parent is the span that was open on the same thread (or, for
work handed to the shard-I/O pool, on the submitting thread). Nothing is
written anywhere until the run is over.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["SpanRecorder", "self_times", "roots_of"]


class SpanRecorder:
    """Records spans around wrapped callables; ``restore()`` undoes every wrap."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, args=(), kwargs=None, nbytes=None):
        """Run ``fn`` inside a span named ``name``.

        ``nbytes(args, result)`` optionally sizes the work (for MB/s).
        """
        local = self._local
        parent = getattr(local, "span", 0)
        sid = next(self._ids)
        local.span = sid
        size = 0
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if nbytes is not None:
                size = nbytes(args, result)
            return result
        finally:
            t1 = perf_counter()
            local.span = parent
            self.spans.append((sid, parent, name, t0, t1, size))

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, nbytes=None) -> None:
        """Replace ``owner.attr`` (instance, class or module) with a traced one."""
        had = attr in vars(owner)
        orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, orig, args, kwargs, nbytes)

        self._patches.append((owner, attr, orig, had))
        setattr(owner, attr, traced)

    def wrap_submit(self, executor) -> None:
        """Carry the submitting thread's open span into pool workers."""
        orig = executor.submit
        local = self._local

        def submit(fn, *args, **kwargs):
            parent = getattr(local, "span", 0)

            def task(*a, **k):
                local.span = parent
                try:
                    return fn(*a, **k)
                finally:
                    local.span = 0

            return orig(task, *args, **kwargs)

        self._patches.append((executor, "submit", orig, "submit" in vars(executor)))
        executor.submit = submit

    def restore(self) -> None:
        for owner, attr, orig, had in reversed(self._patches):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()


# ---------------------------------------------------------------- analysis


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may overlap each other (pool fan-out), so the covered part is
    the length of the *union* of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _size in spans:
        if parent:
            children[parent].append((t0, t1))
    out: dict[int, float] = {}
    for sid, _parent, _name, t0, t1, _size in spans:
        covered = 0.0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (t1 - t0) - covered
    return out


def roots_of(spans: list[tuple]) -> dict[int, int]:
    """Span id -> id of the root span of its tree (ids grow with start time)."""
    root: dict[int, int] = {}
    for sid, parent, *_ in sorted(spans):
        root[sid] = root.get(parent, parent) if parent else sid
    return root
