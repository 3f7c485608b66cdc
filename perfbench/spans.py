"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces module and class attributes of the package with
wrappers that record one span per call: (name, start, end, parent, op id).
Spans live in flat arrays while the run lasts and are written to disk once,
at exit.  A layer is the first dotted component of a span name, named after
the package module the wrapped function belongs to.

Work the tracer does on its own behalf inside a wrapped call (hashing an
elimination input, for instance) runs in a ``trace.hook`` span, so it is
excluded from the self time of the layer that called it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "stability", "bundle", "linalg", "ring", "poly", "field", "tightclosure")
HOOK = "trace.hook"


def self_times(start, end, parent, base: int = 0) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    ``parent`` holds absolute span indices (-1 for a root); ``base`` is the
    absolute index of the first span in the slice.  Spans come from one
    thread, so the children of a span never overlap each other and the time
    they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    rel = np.asarray(parent, dtype=np.int64) - base
    inside = rel >= 0
    covered = np.bincount(rel[inside], weights=dur[inside], minlength=len(dur))
    return dur - covered


class Tracer:
    """Records spans around wrapped attributes; counters sit beside them."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.seen: set = set()  # input keys met so far in this pass
        self._patches: list = []

    def begin_pass(self) -> int:
        """Reset the per-pass counters; returns the index of the next span."""
        self.counts.clear()
        self.seen.clear()
        return len(self.start)

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(tracer, args)`` runs in a hook span ahead of the call;
        ``after(tracer, args, result)`` runs once the span has closed.
        """
        fn = getattr(owner, attr)
        nid = self._name(name)
        hook_id = self._name(HOOK)

        def traced(*args, **kwargs):
            if before is not None:
                h = self._open(hook_id)
                try:
                    before(self, args)
                finally:
                    self._close(h)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, inclusive seconds and self seconds of spans [lo, hi)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        end = np.frombuffer(self.end)[lo:hi]
        own = self_times(start, end, parent, base=lo)
        dur = end - start
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            calls = int(sel.sum())
            if calls:
                out[name] = {
                    "calls": calls,
                    "s": float(dur[sel].sum()),
                    "self_s": float(own[sel].sum()),
                }
        return out

    def child_count(self, lo: int, hi: int, child: str, parent_name: str) -> int:
        """Spans named ``child`` in [lo, hi) whose parent span is ``parent_name``."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        mine = names[lo:hi] == self._ids[child]
        has_parent = parent >= 0
        parent_names = np.full(hi - lo, -1, dtype=np.int32)
        parent_names[has_parent] = names[parent[has_parent]]
        return int((mine & (parent_names == self._ids[parent_name])).sum())

    def save(self, path):
        """Write every span to ``path`` (.npz): name table plus five columns."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
