"""Outside-in tracing: wrappers around each layer's entry points.

The program under test is not edited.  :class:`Tracer` replaces the
names callers actually look up — module globals such as
``repro.engine.engine.plan_query`` (``engine.py`` imported the name into
its own namespace), module attributes such as ``repro.storage.kernels``
functions (called as ``kernels.join_indices``), and methods on the
enumerator / storage / client classes — with timing wrappers, and puts
every original back on :meth:`uninstall`.

Each wrapped call is a span: ``(name, layer, start, end, parent, rid,
thread)``.  A per-thread stack gives every span its parent, and a
layer's self time is the span's duration minus its children's.  Per
answer ``next()`` calls on enumerator iterators are far too many to
keep one by one; they are folded into one aggregate record per
(request, name) with a call count, total and self time.

Two adjustments keep self time honest across the service boundary: the
client's ``ServiceClient.request`` span runs on the client thread while
the engine work runs on a server executor thread, so the client span's
self time has the server-reported engine seconds (the ``stats.seconds``
the server puts on every reply) taken out — what remains is protocol,
socket and cursor bookkeeping, reported as the ``service`` layer.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: Layers that cannot be timed by wrapping from outside, and why.
NOT_MEASURABLE = {
    "storage.deltas": (
        "delta replay runs inside ColumnStore / EncodedDatabase / "
        "refresh_reduction with no entry point of its own; its time is "
        "inside yannakakis.refresh and encoded.refresh, its outcome is "
        "the engine's delta_applies / delta_fallbacks counts"
    ),
    "parallel": "not measured: the benchmark runs no parallel backend (2-core box)",
    "service.cursors": (
        "cursor-table work runs on the server thread outside engine.measure(); "
        "it is inside service self time"
    ),
}


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "index")

    def __init__(self, name, layer, start, index):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rid = "setup"
        self.self_time = defaultdict(float)  # (rid, layer) -> seconds
        self.calls = defaultdict(int)  # name -> calls
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (rid, name, layer)
        self.own = defaultdict(float)  # (rid, name) -> self seconds
        self.reduced = defaultdict(lambda: [0, 0])  # rid -> [rows in, rows out]
        self.server_seconds = 0.0  # engine seconds the server reported
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # span bookkeeping
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, name, layer, keep=True) -> _Frame:
        stack = self._stack()
        index = None
        if keep:
            parent = stack[-1].index if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(
                    [name, layer, 0.0, 0.0, parent, self.rid, threading.get_ident()]
                )
        frame = _Frame(name, layer, time.perf_counter(), index)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, discount: float = 0.0) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        self_time = max(duration - frame.child - discount, 0.0)
        if stack:
            stack[-1].child += duration
        rid = self.rid
        with self._lock:
            self.self_time[(rid, frame.layer)] += self_time
            self.own[(rid, frame.name)] += self_time
            if frame.index is not None:
                span = self.spans[frame.index]
                span[2] = frame.start
                span[3] = end
                self.calls[frame.name] += 1
                self.total[frame.name] += duration
            else:
                agg = self.aggregates[(rid, frame.name, frame.layer)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_time
                self.calls[frame.name] += 1
                self.total[frame.name] += duration

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, layer, *, on_result=None, discount=None):
        """Wrap ``owner.attr`` (a module global or a class's own method)."""
        if attr not in owner.__dict__:
            return
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                cut = discount(result) if discount is not None and result is not None else 0.0
                tracer._exit(frame, cut)
                if on_result is not None:
                    on_result(args, kwargs, result)

        self._patch(owner, attr, wrapper)

    def wrap_iter(self, owner, attr, name, layer):
        """Wrap an ``__iter__`` so every ``next()`` is an aggregated frame."""
        if attr not in owner.__dict__:
            return
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(obj):
            return _TracedIterator(tracer, original(obj), name, layer)

        self._patch(owner, attr, wrapper)

    def install(self) -> "Tracer":
        return install(self)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: str) -> None:
        """Spans (one JSON object a line), then the aggregate records."""
        with open(path, "w") as fh:
            for name, layer, start, end, parent, rid, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            for (rid, name, layer), (count, total, own) in sorted(
                self.aggregates.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            ):
                fh.write(
                    json.dumps(
                        {
                            "aggregate": name,
                            "layer": layer,
                            "rid": rid,
                            "calls": count,
                            "seconds": total,
                            "self_seconds": own,
                        }
                    )
                    + "\n"
                )

    def layer_self(self, rids=None) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (rid, layer), seconds in self.self_time.items():
            if rids is None or rid in rids:
                out[layer] += seconds
        return dict(out)

    def own_seconds(self, names, rids=None) -> float:
        return sum(
            seconds
            for (rid, name), seconds in self.own.items()
            if name in names and (rids is None or rid in rids)
        )

    def mean_ms(self, *names: str) -> float:
        """Mean inclusive milliseconds per call over the named spans."""
        calls = sum(self.calls.get(name, 0) for name in names)
        return sum(self.total[name] for name in names) / calls * 1e3 if calls else 0.0


class _TracedIterator:
    __slots__ = ("_tracer", "_inner", "_name", "_layer")

    def __init__(self, tracer, inner, name, layer):
        self._tracer = tracer
        self._inner = inner
        self._name = name
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._enter(self._name, self._layer, keep=False)
        try:
            return next(self._inner)
        finally:
            self._tracer._exit(frame)


def _rows(instances) -> int:
    try:
        return sum(len(rows) for rows in instances.values())
    except (AttributeError, TypeError):
        return 0


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry points the benchmark's workloads reach."""
    from repro.core import acyclic, cyclic, lexicographic, star, ucq
    from repro.data import database
    from repro.engine import engine, prepared
    from repro.service import client
    from repro.storage import encoded, journal, kernels, persist, scores

    w = tracer.wrap

    def count_reduce(args, kwargs, result):
        if result is not None and len(args) >= 2:
            rows = tracer.reduced[tracer.rid]
            rows[0] += _rows(args[1])
            rows[1] += _rows(result)

    # data: loading rows into the storage layer.
    w(database.Database, "add_relation", "data.load", "data")
    # query + core.planner, through the engine's own namespace.
    w(engine, "parse_query", "query.parse", "query")
    w(engine, "plan_query", "planner.plan", "planner")
    # engine: the public request entry points.
    for attr in ("stream", "execute"):
        w(engine.QueryEngine, attr, f"engine.{attr}", "engine")
    # algorithms.yannakakis, wherever a caller imported the names.
    for module in (prepared, acyclic, lexicographic, star, cyclic):
        w(module, "atom_instances", "yannakakis.bind", "yannakakis")
    for module in (prepared, acyclic, lexicographic):
        w(module, "full_reduce", "yannakakis.reduce", "yannakakis", on_result=count_reduce)
    w(cyclic, "instance_matrix", "yannakakis.bind", "yannakakis")
    w(prepared, "refresh_reduction", "yannakakis.refresh", "yannakakis")
    # core enumerators: build, bulk/limit serve, per-answer iteration.
    for cls in (
        acyclic.AcyclicRankedEnumerator,
        lexicographic.LexBacktrackEnumerator,
        star.StarTradeoffEnumerator,
        cyclic.CyclicRankedEnumerator,
        ucq.UnionRankedEnumerator,
    ):
        w(cls, "__init__", "enum.init", "enum")
        w(cls, "preprocess", "enum.build", "enum")
        w(cls, "top_k", "enum.top_k", "enum")
        tracer.wrap_iter(cls, "__iter__", "enum.next", "enum")
    # storage.kernels / storage.scores: module functions called by attribute.
    for fn in (
        "semijoin_mask",
        "antijoin_mask",
        "hash_group",
        "group_indices",
        "join_indices",
        "cross_indices",
        "distinct_indices",
        "codes_matrix",
        "column_array",
        "pack_columns",
        "pack_pair",
    ):
        w(kernels, fn, f"kernels.{fn}", "kernels")
    for fn in ("build_score_column", "build_score_view", "adhoc_score_array"):
        w(scores, fn, f"scores.{fn}", "scores")
    # storage.encoded: re-encode on change, decode at emission.
    w(encoded.EncodedDatabase, "refresh", "encoded.refresh", "encoded")
    w(encoded.DecodingEnumerator, "top_k", "encoded.top_k", "encoded")
    tracer.wrap_iter(encoded.DecodingEnumerator, "__iter__", "encoded.next", "encoded")
    # storage.journal / storage.persist.
    w(journal.DurableDatabase, "append", "journal.append", "journal")
    w(journal.DurableDatabase, "delete", "journal.delete", "journal")
    w(journal.DurableDatabase, "checkpoint", "journal.checkpoint", "journal")
    for attr in ("record_cursor", "record_cursor_position", "record_cursor_close"):
        w(journal.DurableDatabase, attr, f"journal.{attr}", "journal")
    w(persist, "save_snapshot", "persist.save", "persist")
    w(journal, "save_snapshot", "persist.save", "persist")
    w(journal, "open_durable", "persist.open", "persist")
    # service: client side; server engine seconds are discounted.
    w(
        client.ServiceClient,
        "request",
        "service.request",
        "service",
        discount=functools.partial(_server_seconds, tracer),
    )
    return tracer


def _server_seconds(tracer: Tracer, payload) -> float:
    try:
        seconds = float(payload["stats"]["seconds"])
    except (KeyError, TypeError, ValueError):
        return 0.0
    tracer.server_seconds += seconds
    return seconds
