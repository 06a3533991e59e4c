"""Spans for the traced run, recorded from the benchmark's side of each layer.

Nothing in ``src/`` knows about tracing.  :class:`Instrumentation` swaps
the public functions and methods of each layer for wrappers that open a
span around the call, and puts the originals back when it exits.  A span
is ``[name, start, end, parent, session id, question id, in_tree]``; all
spans stay in :attr:`Tracer.spans` until the run ends.

Threads.  The session runs on the main thread.  The in-process server
evaluates on its event-loop thread and on executor threads.  A span opened
on another thread, with no open span of its own thread above it, hangs
under the innermost open ``wire.*`` span of the main thread: the client is
blocked on that socket call while the server works for it.  If no wire
span is open, the server work overlaps client work, so the span is
*detached*: it counts in its layer's call counts and totals, but not in
the self-time tree.

Self time.  :func:`self_times` gives each instant of a session to exactly
one span, the deepest one open, after clipping every span to its parent.
For properly nested spans that is "a span minus its children"; it also
keeps the per-layer sum equal to the session time when a server span
overlaps a client span under the same wire call.
"""

from __future__ import annotations

import functools
import threading
import time

NAME, START, END, PARENT, SID, QID, TREE = range(7)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span store shared by the main thread and server threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sid = 0  # current session id (0: outside any session)
        self.qid = 0  # questions asked so far in the current session
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _main_wire_span(self) -> int:
        for idx in reversed(self._main_stack):
            if self.spans[idx][NAME].startswith("wire."):
                return idx
        return -1

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            in_tree = self.spans[parent][TREE]
        elif stack is self._main_stack:
            parent, in_tree = -1, True
        else:
            parent = self._main_wire_span()
            in_tree = parent >= 0
        record = [name, time.perf_counter(), None, parent, self.sid,
                  self.qid, in_tree]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(record)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        else:  # an abandoned iterator closed out of order
            stack.remove(idx)

    def detached(self, name: str, start: float, end: float) -> None:
        """Record a finished span that stays out of the self-time tree
        (an ``await`` on the event loop, which interleaves with others)."""
        with self._lock:
            self.spans.append([name, start, end, -1, self.sid, self.qid,
                               False])

    # -- wrappers -------------------------------------------------------
    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def wrap_stream(self, name: str, fn):
        """Span the call that creates an iterator (``name``), then each
        step of the iterator (``name + '.next'``)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                iterator = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return TracedIterator(self, name + ".next", iterator)
        return traced

    def wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.detached(name, start, time.perf_counter())
        return traced


class TracedIterator:
    """An iterator whose every ``next`` is a span; ``close`` passes
    through, so an abandoned response stream still drains as before."""

    def __init__(self, tracer: Tracer, name: str, iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._iterator = iter(iterator)

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            return next(self._iterator)
        finally:
            self._tracer.close(idx)

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


class Instrumentation:
    """Install span wrappers on every layer; restore them on exit.

    ``server_executor`` is the in-process server's executor, whose
    ``submit`` gets each shard evaluation wrapped as ``server.eval``.
    The join learner's agreement-set cache is captured as sessions
    create it, so its hit ratio can be read through its public
    ``stats()``.
    """

    def __init__(self, tracer: Tracer, server_executor=None) -> None:
        self.tracer = tracer
        self.server_executor = server_executor
        self.eq_caches: list = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def _swap(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        from repro.engine.core import Engine
        from repro.engine.document import IndexedDocument
        from repro.engine.graph import IndexedGraph
        from repro.learning import graph_session, interactive, xml_session
        from repro.learning.join_learner import JoinVersionSpace
        from repro.serving.net import ShardGate, WorkloadClient
        from repro.serving.wire import WorkloadCodec
        from repro.xmltree.tree import XTree

        t = self.tracer
        # Learner hypothesis construction, as the sessions call it.
        for attr in ("product", "minimize", "anchor_repair"):
            self._swap(xml_session, attr,
                       t.wrap(f"twig.{attr}", getattr(xml_session, attr)))
        self._swap(graph_session, "lgg_path",
                   t.wrap("graphdb.lgg_path", graph_session.lgg_path))
        self._swap(JoinVersionSpace, "is_informative",
                   t.wrap("join.is_informative",
                          JoinVersionSpace.is_informative))
        self._swap(XTree, "size", t.wrap("xmltree.size", XTree.size))
        # Engine evaluation and index acquisition (client or server side).
        self._swap(IndexedDocument, "evaluate_indices",
                   t.wrap("engine.eval", IndexedDocument.evaluate_indices))
        self._swap(IndexedGraph, "evaluate_rpq",
                   t.wrap("engine.eval", IndexedGraph.evaluate_rpq))
        self._swap(Engine, "accepts", t.wrap("engine.eval", Engine.accepts))
        for attr in ("document", "graph"):
            self._swap(Engine, attr,
                       t.wrap("engine.index", getattr(Engine, attr)))
        # Client side of the wire.
        self._swap(WorkloadClient, "run",
                   t.wrap("wire.run", WorkloadClient.run))
        self._swap(WorkloadClient, "stream",
                   t.wrap_stream("wire.stream", WorkloadClient.stream))
        self._swap(WorkloadClient, "put_instances",
                   t.wrap("wire.put_instances", WorkloadClient.put_instances))
        # Server side: admission wait, delta apply, shard evaluation.
        self._swap(ShardGate, "acquire",
                   t.wrap_async("server.gate.wait", ShardGate.acquire))
        set_applier = WorkloadCodec.set_delta_applier

        def set_delta_applier(codec, applier):
            set_applier(codec, t.wrap("server.delta_apply", applier))
        self._swap(WorkloadCodec, "set_delta_applier", set_delta_applier)
        if self.server_executor is not None:
            submit = self.server_executor.submit

            def traced_submit(fn, *args):
                return submit(t.wrap("server.eval", fn), *args)
            self._swap(self.server_executor, "submit", traced_submit)
        # The join session builds its agreement-set cache per session.
        cache_class = interactive.LRUCache

        def capture_cache(*args, **kwargs):
            cache = cache_class(*args, **kwargs)
            self.eq_caches.append(cache)
            return cache
        self._swap(interactive, "LRUCache", capture_cache)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


#: Backend methods the three sessions call directly, by whether they
#: return a stream.
BACKEND_CALLS = ("selects_any", "canonical_query", "prefetch", "accepts",
                 "accepts_any", "words_between")
BACKEND_STREAMS = ("selects_stream", "accepts_stream", "map_stream")


def instrument_backend(tracer: Tracer, backend, undo: list) -> None:
    """Wrap the session-facing methods of one backend instance."""
    for attr in BACKEND_CALLS:
        undo.append((backend, attr))
        setattr(backend, attr,
                tracer.wrap(f"backend.{attr}", getattr(backend, attr)))
    for attr in BACKEND_STREAMS:
        undo.append((backend, attr))
        setattr(backend, attr,
                tracer.wrap_stream(f"backend.{attr}",
                                   getattr(backend, attr)))


def restore_instances(undo: list) -> None:
    while undo:
        owner, attr = undo.pop()
        delattr(owner, attr)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def self_times(spans: list[list], indices: list[int]) -> dict[int, float]:
    """Self time (seconds) of each in-tree span of one session.

    ``indices`` are the session's in-tree spans in opening order, root
    first.  Each span is clipped to its parent's clipped interval; then
    every instant of the root belongs to the deepest span open at that
    instant (ties: the later-opened one).
    """
    root = indices[0]
    bounds = {root: (spans[root][START], spans[root][END])}
    depth = {root: 0}
    for idx in indices[1:]:
        span = spans[idx]
        parent = span[PARENT]
        if parent not in bounds:  # not under the root (or clipped away)
            continue
        p_start, p_end = bounds[parent]
        start, end = max(span[START], p_start), min(span[END], p_end)
        if end > start:
            bounds[idx] = (start, end)
            depth[idx] = depth[parent] + 1
    events = sorted([(s, 1, idx) for idx, (s, _) in bounds.items()]
                    + [(e, 0, idx) for idx, (_, e) in bounds.items()])
    owned = dict.fromkeys(bounds, 0.0)
    active: set[int] = set()
    last = None
    for moment, opening, idx in events:
        if active and last is not None and moment > last:
            owner = max(active, key=lambda i: (depth[i], i))
            owned[owner] += moment - last
        last = moment
        if opening:
            active.add(idx)
        else:
            active.discard(idx)
    return owned
