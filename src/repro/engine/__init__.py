"""repro.engine — the shared, index-caching query-evaluation subsystem.

The paper's interactive learners converge by re-evaluating an evolving
hypothesis against a *fixed* instance after every user interaction.  The
naive evaluators rebuild their per-instance scaffolding (node/adjacency
indexes, compiled NFAs) from scratch on every call; this package factors
that work out, computing each index **once per instance** and memoising
query results on top — the "compute over the data once, reuse across
queries" discipline of factorised learning over relational data.

Architecture
------------
:class:`~repro.engine.cache.LRUCache`
    The one bounded-memoisation primitive every cache below is built on.

:class:`~repro.engine.document.IndexedDocument`
    Wraps an :class:`~repro.xmltree.tree.XTree` with a pre-order interval
    index (O(1) ancestor/descendant tests), a label inverted index (the
    bottom-up pass touches only label-compatible nodes), an LRU query-result
    cache keyed by canonical query form, and the learner's canonical
    queries, built from the columns.

:class:`~repro.engine.graph.IndexedGraph`
    Wraps a :class:`~repro.graphdb.graph.Graph` with materialised
    forward/reverse adjacency, compiled-NFA caching, per-``(query, source)``
    product-automaton reachability memos, and cached simple-path word
    enumeration.

:class:`~repro.engine.core.Engine`
    Owns weak instance->index maps plus graph-independent NFA and
    word-acceptance memos.  A module-level engine (:func:`get_engine`)
    backs thin wrappers so the existing ``evaluate(query, tree)`` /
    ``evaluate_rpq(query, graph)`` signatures keep working unchanged.

Contracts
---------
* Indexes are **version-checked**: ``XTree.invalidate()`` (the hook the
  parent-map cache already required) and every ``Graph`` mutator bump the
  instance's version, and the engine transparently reindexes on the next
  call.  Mutating ``XNode`` structure *without* calling
  ``tree.invalidate()`` was stale before this subsystem and still is;
  ``get_engine().invalidate(instance)`` force-drops an index explicitly.
* Cached answers are returned as fresh lists of the *same* node objects,
  in document order, so identity-based call sites (``n is target``) behave
  exactly as with naive evaluation.
* ``reset_engine()`` restores a cold engine; benchmarks use it to separate
  first-evaluation cost from steady-state cost.
* The engine is **thread-safe**: index acquisition, invalidation, reset,
  and every result cache are lock-guarded, so :mod:`repro.serving` can fan
  concurrent shards out over one shared engine.  Shards evaluate against
  immutable index snapshots, so a mutation (one atomic structural op plus
  ``invalidate()``) or a ``reset_engine()`` landing mid-batch is observed
  either fully before or fully after any given shard, never inside it.

Typical use::

    from repro.engine import get_engine

    engine = get_engine()
    answers = engine.evaluate_twig(query, tree)     # indexed + memoised
    pairs = engine.evaluate_rpq(regex, graph)       # memoised per source
    ok = engine.accepts(path_query, word)           # cached NFA
"""

from repro.engine.cache import LRUCache
from repro.engine.core import (
    Engine,
    evaluate,
    evaluate_rpq,
    get_engine,
    reset_engine,
)
from repro.engine.document import IndexedDocument
from repro.engine.graph import IndexedGraph
from repro.engine.version import instance_version

__all__ = [
    "Engine",
    "IndexedDocument",
    "IndexedGraph",
    "LRUCache",
    "evaluate",
    "evaluate_rpq",
    "get_engine",
    "instance_version",
    "reset_engine",
]
