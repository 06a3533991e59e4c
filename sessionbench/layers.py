"""The traced run: per-layer metrics for each session.

Sessions run with every layer wrapped (:mod:`spans`).  Around each one,
outside its timing, the hooks read the counters the program already keeps
(``backend.stats()``, ``Engine.stats()``, ``InstanceStore.stats()``), so
per-layer counts come from where the work happens.  A remote backend's
``stats()`` is itself one round trip; two back-to-back reads before the
session measure that cost, and it is taken off the session's share.

Every metric is per session, averaged over the traced sessions; ratios
are sums over the traced sessions divided by sums.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import spans as sp

#: Counters read from the backends around each session.
_WIRE = ("round_trips", "bytes_sent", "bytes_received", "instances_shipped",
         "retries")


def snapshot(workload, corpus) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    stats = corpus.backend.stats()
    for key in _WIRE:
        out[key] += stats.get(key, 0)
    for key, value in stats["prefetch"].items():
        out[f"prefetch_{key}"] += value
    engines = [corpus.engine]
    if workload.server_engine is not None:
        engines.append(workload.server_engine)
    for engine in engines:
        stats = engine.stats()
        out["twig_hits"] += stats["twig_query_hits"]
        out["twig_misses"] += stats["twig_query_misses"]
        out["rpq_hits"] += (stats["rpq_source_hits"]
                            + stats["word_accepts"]["hits"])
        out["rpq_misses"] += (stats["rpq_source_misses"]
                              + stats["word_accepts"]["misses"])
        out["reindexes"] += stats["index_builds"]
        out["patches"] += stats["index_patches"]
    if workload.server is not None:
        store = workload.server.server.instance_store.stats()
        out["store_hits"] += store["hits"]
        out["store_misses"] += store["misses"]
    return out


def _delta(after: dict, before: dict, probe: dict) -> dict[str, float]:
    """``after - before``, less the cost of one counter read (``probe``)."""
    keys = set(after) | set(before)
    return {k: after.get(k, 0) - before.get(k, 0) - probe.get(k, 0)
            for k in keys}


class TracedSessions:
    """Hooks for :func:`run.run_phase`, what they recorded, and the
    per-layer metrics computed from it."""

    def __init__(self, workload, tracer: sp.Tracer,
                 instrumentation: sp.Instrumentation) -> None:
        self.workload = workload
        self.tracer = tracer
        self.instrumentation = instrumentation
        self.sessions: list[dict] = []
        self.phase = None  # the traced phase, once it has run
        self._open: dict = {}

    def before(self, corpus, clock) -> None:
        first = snapshot(self.workload, corpus)
        second = snapshot(self.workload, corpus)
        undo: list = []
        sp.instrument_backend(self.tracer, corpus.backend, undo)
        clock.tracer = self.tracer
        self.tracer.sid += 1
        self.tracer.qid = 0
        self._open = {"corpus": corpus, "before": second,
                      "probe": _delta(second, first, {}), "undo": undo,
                      "caches": len(self.instrumentation.eq_caches),
                      "root": self.tracer.open("learning.session")}

    def after(self, corpus) -> None:
        record = self._open
        self.tracer.close(record["root"])
        sp.restore_instances(record.pop("undo"))
        counters = _delta(snapshot(self.workload, corpus),
                          record.pop("before"), record.pop("probe"))
        eq = Counter()
        for cache in self.instrumentation.eq_caches[record.pop("caches"):]:
            eq.update(cache.stats())
        counters["eq_hits"] = eq["hits"]
        counters["eq_misses"] = eq["misses"]
        record["counters"] = counters
        self.sessions.append(record)

    def metrics(self, plain, attempted: int,
                failed: int) -> tuple[dict, list[str]]:
        """Per-layer metrics and the trace checks that failed."""
        spans = self.tracer.spans
        by_sid: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(spans):
            if span[sp.END] is not None:
                by_sid[span[sp.SID]].append(idx)
        problems: list[str] = []
        sums: dict[str, float] = defaultdict(float)
        n = len(self.sessions)
        for record in self.sessions:
            root = record["root"]
            span = spans[root]
            duration = span[sp.END] - span[sp.START]
            sums["duration"] += duration
            per_layer = _session(spans, root, by_sid[span[sp.SID]], sums)
            total_self = sum(per_layer.values())
            if total_self > duration * (1 + 1e-9) + 1e-9:
                problems.append(
                    f"session {span[sp.SID]}: layer self times sum to "
                    f"{total_self:.6f} s, over its {duration:.6f} s")
            for layer, seconds in per_layer.items():
                sums[f"self.{layer}"] += seconds
            for key, value in record["counters"].items():
                sums[key] += value
            sums["questions"] += record["corpus"].questions()
            sums["implied"] += record["corpus"].implied_labels()
        if self.workload.pathjoin:
            if sums["calls.twig.product"]:
                problems.append("pathjoin-local ran twig.product")
            if sums["round_trips"]:
                problems.append("pathjoin-local made wire round trips")
        common = sorted(plain.covered() & self.phase.covered())
        overhead = (self.phase.session_ms_p50(common)
                    / plain.session_ms_p50(common))
        metrics = _metrics(sums, n, self.phase.factor, overhead, attempted,
                           failed)
        return metrics, problems


def _has_backend_ancestor(spans: list[list], idx: int) -> bool:
    parent = spans[idx][sp.PARENT]
    while parent >= 0:
        if spans[parent][sp.NAME].startswith("backend."):
            return True
        parent = spans[parent][sp.PARENT]
    return False


def _session(spans: list[list], root: int, indices: list[int],
             sums: dict[str, float]) -> dict[str, float]:
    """Fold one session's spans into ``sums``; return self time by layer."""
    tree = [idx for idx in indices if spans[idx][sp.TREE] and idx >= root]
    per_layer: dict[str, float] = defaultdict(float)
    for idx, seconds in sp.self_times(spans, tree).items():
        per_layer[sp.layer_of(spans[idx][sp.NAME])] += seconds
    for idx in indices:
        name, start, end = spans[idx][sp.NAME:sp.END + 1]
        sums[f"calls.{name}"] += 1
        sums[f"s.{name}"] += end - start
        if name.startswith("backend.") and not name.endswith(".next") \
                and not _has_backend_ancestor(spans, idx):
            sums["calls.backend"] += 1
            sums[f"top.{name}"] += 1
    return per_layer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metrics(sums: dict[str, float], n: int, factor: float,
             overhead: float, attempted: int,
             failed: int) -> dict[str, dict]:
    """Per-session means; times at the reference speed (``factor``)."""
    def per(key: str, unit: str = "count", scale: float = 1.0) -> dict:
        return {"value": sums[key] * scale / n, "unit": unit}

    def ms(key: str) -> dict:
        return per(key, "ms", 1e3 * factor)

    def ratio(num: float, den: float) -> dict:
        return {"value": _ratio(num, den), "unit": "ratio"}

    s = sums
    return {
        "learning.questions": per("questions"),
        "learning.implied_labels": per("implied"),
        "learning.self_ms": ms("self.learning"),
        "twig.product.calls": per("calls.twig.product"),
        "twig.product.ms": ms("s.twig.product"),
        "twig.minimize.calls": per("calls.twig.minimize"),
        "twig.minimize.ms": ms("s.twig.minimize"),
        "twig.anchor_repair.ms": ms("s.twig.anchor_repair"),
        "twig.self_ms": ms("self.twig"),
        "twig.self_share": ratio(s["self.twig"], s["duration"]),
        "xmltree.size.calls": per("calls.xmltree.size"),
        "xmltree.size.ms": ms("s.xmltree.size"),
        "backend.calls": per("calls.backend"),
        "backend.selects_any.calls": per("top.backend.selects_any"),
        "backend.accepts_any.calls": per("top.backend.accepts_any"),
        "backend.canonical_query.calls": per("top.backend.canonical_query"),
        "backend.canonical_query.ms": ms("s.backend.canonical_query"),
        "backend.self_ms": ms("self.backend"),
        "backend.prefetch.hit_ratio": ratio(s["prefetch_hits"],
                                            s["prefetch_submitted"]),
        "backend.prefetch.wasted": per("prefetch_wasted"),
        "wire.round_trips": per("round_trips"),
        "wire.bytes_up": per("bytes_sent", "bytes"),
        "wire.bytes_down": per("bytes_received", "bytes"),
        "wire.instances_shipped": per("instances_shipped"),
        "wire.retries": per("retries"),
        "wire.wait_ms": ms("self.wire"),
        "server.eval.calls": per("calls.server.eval"),
        "server.eval.ms": ms("s.server.eval"),
        "server.self_ms": ms("self.server"),
        "server.gate.wait_ms": ms("s.server.gate.wait"),
        "store.hit_ratio": ratio(s["store_hits"],
                                 s["store_hits"] + s["store_misses"]),
        "store.delta_applies": per("calls.server.delta_apply"),
        "engine.eval.calls": per("calls.engine.eval"),
        "engine.eval.ms": ms("s.engine.eval"),
        "engine.self_ms": ms("self.engine"),
        "engine.twig_cache.hit_ratio": ratio(
            s["twig_hits"], s["twig_hits"] + s["twig_misses"]),
        "engine.rpq_cache.hit_ratio": ratio(
            s["rpq_hits"], s["rpq_hits"] + s["rpq_misses"]),
        "engine.reindexes": per("reindexes"),
        "engine.patch_ratio": ratio(s["patches"], s["reindexes"]),
        "graphdb.lgg_path.calls": per("calls.graphdb.lgg_path"),
        "graphdb.lgg_path.ms": ms("s.graphdb.lgg_path"),
        "join.is_informative.calls": per("calls.join.is_informative"),
        "join.is_informative.ms": ms("s.join.is_informative"),
        "join.eq_cache.hit_ratio": ratio(
            s["eq_hits"], s["eq_hits"] + s["eq_misses"]),
        "trace.session_ms": ms("duration"),
        "trace.sessions": {"value": n, "unit": "count"},
        "trace.overhead_ratio": {"value": overhead, "unit": "ratio"},
        "session_fail_ratio": ratio(failed, attempted),
    }


def traced_phase(workload, corpora, seconds: float,
                 run_phase) -> TracedSessions:
    """Run sessions with every layer traced for ``seconds``."""
    tracer = sp.Tracer()
    with sp.Instrumentation(tracer, workload.server_executor) as inst:
        traced = TracedSessions(workload, tracer, inst)
        traced.phase = run_phase(corpora, seconds, full_round=False,
                                 hooks=traced)
    return traced
