"""In-memory span recorder.

Every span has a name, start, end, parent and thread. The benchmark opens
one root span per set-up repetition (``bench.setup``) and per loop
iteration (``bench.iteration``); traced runs add a span around each wrapped
call. A span opened on a worker thread with nothing open on that thread
takes the innermost span open on the main thread as its parent, which is
the call that handed it the work (the sweep's thread pool).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ROOT_KINDS = ("setup", "iteration")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patched: list = []
        self._indexed = -1

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        sp = Span(name, 0.0, parent=parent, thread=tid)
        with self._lock:
            sid = len(self.spans)
            self.spans.append(sp)
        stack.append(sid)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def root(self, kind: str):
        if kind not in ROOT_KINDS:
            raise ValueError(f"unknown root kind {kind!r}")
        return self.span(f"bench.{kind}")

    def wrap(self, namespace, attr: str, name, measure=None) -> None:
        """Replace ``namespace.attr`` by a traced version until ``restore``.

        ``name`` is the span name, or a function of the call's arguments
        returning it; ``measure(args, kwargs, result)`` returns attributes
        to store on the span.
        """
        fn = getattr(namespace, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as sp:
                out = fn(*args, **kwargs)
                if measure is not None:
                    sp.attrs.update(measure(args, kwargs, out))
            return out

        setattr(namespace, attr, traced)
        self._patched.append((namespace, attr, fn))

    def restore(self) -> None:
        while self._patched:
            namespace, attr, fn = self._patched.pop()
            setattr(namespace, attr, fn)

    # -- analysis ----------------------------------------------------------

    def roots(self, kind: str) -> list[Span]:
        return [self.spans[i] for i in self.named(f"bench.{kind}")]

    def _index(self):
        """Children, root kind and name lookup, rebuilt when spans were added."""
        if self._indexed != len(self.spans):
            kids: dict[int, list[int]] = {}
            kinds: list[str | None] = []
            by_name: dict[str, list[int]] = {}
            for i, s in enumerate(self.spans):
                by_name.setdefault(s.name, []).append(i)
                if s.parent is None:
                    is_root = s.name.startswith("bench.")
                    kinds.append(s.name[len("bench."):] if is_root else None)
                else:
                    kids.setdefault(s.parent, []).append(i)
                    kinds.append(kinds[s.parent])
            self._kids, self._kinds, self._by_name = kids, kinds, by_name
            self._indexed = len(self.spans)
        return self._kids, self._kinds, self._by_name

    def named(self, name: str) -> list[int]:
        return self._index()[2].get(name, [])

    def child_indices(self, index: int) -> list[int]:
        return self._index()[0].get(index, [])

    def self_time(self, index: int) -> float:
        """Duration minus the part of it that child spans cover; children on
        different threads may overlap, so their union is subtracted."""
        sp = self.spans[index]
        intervals = sorted(
            (max(self.spans[c].start, sp.start), min(self.spans[c].end, sp.end))
            for c in self.child_indices(index)
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return sp.duration - covered

    def total(self, names, kind: str, value=None) -> float:
        """Sum ``value(index)`` (default: duration) over the spans called one
        of ``names`` that sit under a root of ``kind``."""
        if isinstance(names, str):
            names = (names,)
        kinds = self._index()[1]
        return sum(
            self.spans[i].duration if value is None else value(i)
            for name in names
            for i in self.named(name)
            if kinds[i] == kind
        )

    def per_pass(self, names, value=None) -> float:
        """``total`` per pass: the set-up total divided by the number of
        set-ups plus the iteration total divided by the number of iterations.
        A pass is thus one set-up plus one loop iteration."""
        out = 0.0
        for kind in ROOT_KINDS:
            n = len(self.named(f"bench.{kind}"))
            if n:
                out += self.total(names, kind, value) / n
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
