"""Products of twig queries — the learner's generalisation engine.

The *product* of two unary twig queries is a query that selects, on every
document, (a superset containing) the intersection of what either factor
selects — the least-general-generalisation (lgg) machinery of Staworko &
Wieczorek's positive-example learner.

Construction
------------
A unary query decomposes into its *spine* (the root-to-selected path) and
Boolean filter branches hanging off spine nodes.  The product of two queries
is assembled from

1. a monotone *alignment* of the two spines (which spine nodes pair up) —
   paired nodes take the common label (else ``*``); skipped nodes dissolve
   into ``//`` edges; and
2. at every matched pair, the *Boolean product* of the off-spine forests.

The Boolean product of patterns ``u`` and ``v`` pairs children with
children (child axis survives only when both edges are child edges) and,
to capture generalisations that skip intermediate nodes, pairs each child
of one side with each strictly-deeper descendant of the other (descendant
axis).  Pairs that are deep on *both* sides are implied by compositions of
the above and therefore omitted.  Redundant branches are pruned eagerly
(see :mod:`repro.twig.normalize`) to keep intermediate patterns small.

Different spine alignments yield incomparable minimal generalisations —
this is exactly why consistency with negative examples is NP-complete for
twigs while learning from positives alone is tractable.  :func:`product`
returns the minimum-cost alignment (a deterministic, most-specific-first
heuristic); :func:`iter_products` enumerates alignments lazily in cost
order for the negative-example search.

Sharing
-------
A learner issues many near-identical products: every pending candidate
is widened against the same hypothesis, the candidates of one document
share one canonical pattern, and most subpatterns recur across
documents and across successive hypotheses.  A :class:`ProductCache`
builds what those products share once: each factor's spine and partner
indexes, the Boolean product of each pair of subpattern *structures*,
and the minimum alignment of each pair of spine signatures.
:func:`product` and :func:`iter_products` run on a throwaway cache; a
session keeps one across its products.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence

from repro.twig.ast import Axis, TwigNode, TwigQuery, combine_axes
from repro.twig.normalize import prune_redundant_branches

# Alignment cost tuning: a wildcard spine node is worse than a descendant
# edge, which is worse than dropping one off-spine filter set.
_WILDCARD_COST = 3
_SKIP_COST = 1
_DESC_COST = 1

Alignment = list[tuple[int, int]]
#: A spine split into its axes and nodes (:func:`_spine_parts`).
SpineParts = tuple[list[Axis], list[TwigNode]]
#: Pairing partners by :meth:`ProductCache.key`, each list in input order.
PartnerIndex = dict[str | None, list]


def _copy_node(n: TwigNode) -> TwigNode:
    clone = TwigNode(n.label)
    clone.branches = [(axis, _copy_node(c)) for axis, c in n.branches]
    return clone


def _product_label(a: str, b: str) -> str:
    return a if a == b else "*"


def _spine_parts(q: TwigQuery) -> SpineParts:
    spine = q.spine()
    return [axis for axis, _ in spine], [n for _, n in spine]


# ---------------------------------------------------------------------------
# Spine alignments
# ---------------------------------------------------------------------------


def _start_states(p: TwigQuery, q: TwigQuery,
                  k: int, m: int) -> list[tuple[int, tuple[int, int]]]:
    """Initial matched pairs with their cost.

    Any pair ``(i, j)`` can start an alignment: the product's root axis
    becomes ``//`` (a spine node sits at *some* depth, and "any depth"
    generalises both factors), at the price of the skipped prefixes.
    ``(0, 0)`` keeps the combined root axis and costs nothing.
    """
    starts = [(0, (0, 0))]
    starts.extend(
        (_SKIP_COST * (i + j) + _DESC_COST, (i, j))
        for i in range(k + 1)
        for j in range(m + 1)
        if (i, j) != (0, 0)
    )
    return starts


def _pair_cost(label_a: str, label_b: str) -> int:
    return 0 if label_a == label_b else _WILDCARD_COST


def _move_cost(di: int, dj: int, child_edge: bool) -> int:
    skip = (di - 1) + (dj - 1)
    return _SKIP_COST * skip + (0 if child_edge else _DESC_COST)


def iter_alignments(
        p: TwigQuery, q: TwigQuery, *,
        parts: tuple[SpineParts, SpineParts] | None = None,
) -> Iterator[tuple[int, Alignment]]:
    """Yield ``(cost, alignment)`` pairs in non-decreasing cost order.

    An alignment is a strictly increasing sequence of index pairs into the
    two spines, ending at the selected pair.  Uniform-cost search; the
    number of alignments is exponential in spine length, so consume lazily.
    ``parts`` is ``(_spine_parts(p), _spine_parts(q))`` when the caller
    already holds it, which saves walking both queries to their selected
    nodes again.
    """
    if parts is None:
        parts = (_spine_parts(p), _spine_parts(q))
    (p_axes, p_nodes), (q_axes, q_nodes) = parts
    k, m = len(p_nodes) - 1, len(q_nodes) - 1

    counter = 0
    heap: list[tuple[int, int, tuple[int, int], tuple]] = []
    for cost, (i, j) in _start_states(p, q, k, m):
        cost += _pair_cost(p_nodes[i].label, q_nodes[j].label)
        counter += 1
        heapq.heappush(heap, (cost, counter, (i, j), ((i, j),)))

    while heap:
        cost, _, (i, j), path = heapq.heappop(heap)
        if i == k and j == m:
            yield cost, list(path)
            continue
        if i == k or j == m:
            continue  # dead end: one spine exhausted before the other
        for ni in range(i + 1, k + 1):
            for nj in range(j + 1, m + 1):
                if ni > i + 1 and nj > j + 1:
                    continue  # both-deep jumps are refinable; skip them
                child_edge = (
                    ni == i + 1 and nj == j + 1
                    and p_axes[ni] is Axis.CHILD and q_axes[nj] is Axis.CHILD
                )
                step = (_move_cost(ni - i, nj - j, child_edge)
                        + _pair_cost(p_nodes[ni].label, q_nodes[nj].label))
                counter += 1
                heapq.heappush(heap, (cost + step, counter, (ni, nj),
                                      path + ((ni, nj),)))


# ---------------------------------------------------------------------------
# Assembly, with the shared structures
# ---------------------------------------------------------------------------


def _off_spine(spine_node: TwigNode,
               next_spine: TwigNode | None) -> list[tuple[Axis, TwigNode]]:
    return [(axis, c) for axis, c in spine_node.branches
            if next_spine is None or c is not next_spine]


class _Factor:
    """What a product needs of one factor query, built once per factor.

    The spine is split into axes and nodes; ``signature`` is its axes and
    labels, the key of the alignment memo; ``off[i]`` is spine node
    ``i``'s filter forest (its branches but the one towards spine node
    ``i + 1``), and ``off_index[i]`` that forest's partner index.
    """

    __slots__ = ("query", "parts", "signature", "off", "off_index")

    def __init__(self, query: TwigQuery, cache: ProductCache) -> None:
        self.query = query
        axes, nodes = self.parts = _spine_parts(query)
        self.signature = (tuple(axis.value for axis in axes)
                          + tuple(n.label for n in nodes))
        nexts: list[TwigNode | None] = [*nodes[1:], None]
        self.off = [_off_spine(n, nxt) for n, nxt in zip(nodes, nexts)]
        self.off_index = [cache.index(off, [c for _, c in off])
                          for off in self.off]


class ProductCache:
    """The structures a sequence of products shares, each built once.

    ``practical=True`` pairs only equal labels (the mode used when examples
    are whole documents: mismatched-label pairs produce ``*`` branches that
    are almost always pruned anyway, and skipping them keeps the product
    from exploding).  ``practical=False`` is the exact construction.

    The cache keeps:

    * per factor query, its spine parts and filter forests (:class:`_Factor`);
    * per factor node, its deep-node list and partner indexes (its
      children and the nodes strictly below them, keyed by label in
      practical mode and by one shared key otherwise, so practical mode
      looks its partners up instead of scanning every pair), and its
      structure id;
    * the Boolean product of every pair of subpatterns, keyed by their
      structure ids: equal *ordered* structures (labels, axes and branch
      order) have products equal node for node, so one product serves
      every recurrence of a subpattern pair, in any document and under
      any later hypothesis;
    * the minimum spine alignment, keyed by the two spines' signatures.

    Each partner index keeps its list's order, so branch order (and with
    it every prune tie-break) is that of the exhaustive scan.  Structure
    ids are interned forms built from strs and ints only, so the memo
    keys stay untracked by the garbage collector.

    Factors are never mutated while the cache lives: node entries are
    keyed by ``id`` and stay valid because the cache holds every factor
    it has seen (an ``id`` is reused only once its object is gone), and
    a factor mutated after its first product would leave stale entries.
    Every product is assembled from fresh nodes, so results never alias a
    factor or the memo.
    """

    def __init__(self, practical: bool = True) -> None:
        self.practical = practical
        self._factors: dict[int, _Factor] = {}
        self._deep: dict[int, list[TwigNode]] = {}
        self._children: dict[int, PartnerIndex] = {}
        self._below: dict[int, PartnerIndex] = {}
        self._inside: dict[int, PartnerIndex] = {}
        self._structure: dict[int, int] = {}
        self._interned: dict[tuple, int] = {}
        self._products: dict[tuple[int, int], TwigNode] = {}
        self._alignments: dict[tuple, tuple[tuple[int, int], ...]] = {}

    # -- per-factor structures ------------------------------------------
    def factor(self, q: TwigQuery) -> _Factor:
        """``q``'s spine and filter forests, held for the cache's life."""
        f = self._factors.get(id(q))
        if f is None:
            f = self._factors[id(q)] = _Factor(q, self)
        return f

    def key(self, label: str) -> str | None:
        """The index key of a node with this label."""
        return label if self.practical else None

    def index(self, items: list, nodes: list[TwigNode]) -> PartnerIndex:
        """``items`` grouped by the key of the parallel ``nodes``, in order."""
        if not self.practical:
            return {None: items} if items else {}
        index: PartnerIndex = {}
        for item, n in zip(items, nodes):
            bucket = index.get(n.label)
            if bucket is None:
                index[n.label] = [item]
            else:
                bucket.append(item)
        return index

    def deep_nodes(self, n: TwigNode) -> list[TwigNode]:
        """Nodes at depth >= 2 below the parent of ``n`` (i.e. inside ``n``)."""
        out = self._deep.get(id(n))
        if out is None:
            out = []
            for _, child in n.branches:
                out.append(child)
                out.extend(self.deep_nodes(child))
            self._deep[id(n)] = out
        return out

    def children(self, n: TwigNode) -> PartnerIndex:
        """``n``'s branches, indexed."""
        index = self._children.get(id(n))
        if index is None:
            index = self._children[id(n)] = self.index(
                n.branches, [c for _, c in n.branches])
        return index

    def below(self, n: TwigNode) -> PartnerIndex:
        """The deep nodes of ``n``'s children, indexed."""
        index = self._below.get(id(n))
        if index is None:
            nodes = [w for _, c in n.branches for w in self.deep_nodes(c)]
            index = self._below[id(n)] = self.index(nodes, nodes)
        return index

    def inside(self, n: TwigNode) -> PartnerIndex:
        """The deep nodes of ``n``, indexed."""
        index = self._inside.get(id(n))
        if index is None:
            nodes = self.deep_nodes(n)
            index = self._inside[id(n)] = self.index(nodes, nodes)
        return index

    def structure(self, n: TwigNode) -> int:
        """The interned id of ``n``'s ordered structure."""
        sid = self._structure.get(id(n))
        if sid is None:
            form: list[str | int] = [n.label]
            for axis, child in n.branches:
                form.append(axis.value)
                form.append(self.structure(child))
            sid = self._interned.setdefault(tuple(form), len(self._interned))
            self._structure[id(n)] = sid
        return sid

    # -- Boolean products -----------------------------------------------
    def node(self, u: TwigNode, v: TwigNode) -> TwigNode:
        """The Boolean product of ``u`` and ``v``, a fresh copy."""
        if not u.branches or not v.branches:
            # Every pairing needs a branch on both sides.
            return TwigNode(_product_label(u.label, v.label))
        key = (self.structure(u), self.structure(v))
        result = self._products.get(key)
        if result is None:
            result = TwigNode(_product_label(u.label, v.label))
            branches: list[tuple[Axis, TwigNode]] = []
            v_children, v_below = self.children(v), self.below(v)
            for a_axis, uc in u.branches:
                k = self.key(uc.label)
                for b_axis, vc in v_children.get(k, ()):
                    branches.append(
                        (combine_axes(a_axis, b_axis), self.node(uc, vc)))
                for w in v_below.get(k, ()):
                    branches.append((Axis.DESC, self.node(uc, w)))
            u_below = self.below(u)
            for _, vc in v.branches:
                for w in u_below.get(self.key(vc.label), ()):
                    branches.append((Axis.DESC, self.node(w, vc)))
            result.branches = prune_redundant_branches(branches)
            self._products[key] = result
        return _copy_node(result)

    # -- whole products -------------------------------------------------
    def _assemble(self, fp: _Factor, fq: _Factor,
                  alignment: Sequence[tuple[int, int]]) -> TwigQuery:
        (p_axes, p_nodes), (q_axes, q_nodes) = fp.parts, fq.parts

        built: list[TwigNode] = []
        for i, j in alignment:
            node = TwigNode(_product_label(p_nodes[i].label,
                                           q_nodes[j].label))
            # The spine continuation out of p_nodes[i] is always the
            # branch towards p_nodes[i+1] (even when the alignment skips
            # it, that subtree is consumed by the // edge); it is not
            # part of the filter forest.  The alignment ends at the
            # selected pair, the one spine node with no continuation.
            off_p, off_q = fp.off[i], fq.off[j]
            filters: list[tuple[Axis, TwigNode]] = []
            q_children = fq.off_index[j]
            for a_axis, uc in off_p:
                for b_axis, vc in q_children.get(self.key(uc.label), ()):
                    filters.append(
                        (combine_axes(a_axis, b_axis), self.node(uc, vc)))
            for _, uc in off_p:
                k = self.key(uc.label)
                inside_u = self.inside(uc)
                for _, vc in off_q:
                    for w in self.inside(vc).get(k, ()):
                        filters.append((Axis.DESC, self.node(uc, w)))
                    for w in inside_u.get(self.key(vc.label), ()):
                        filters.append((Axis.DESC, self.node(w, vc)))
            node.branches = prune_redundant_branches(filters)
            built.append(node)

        # Link consecutive spine nodes.
        for idx in range(len(alignment) - 1):
            (i, j), (ni, nj) = alignment[idx], alignment[idx + 1]
            child_edge = (ni == i + 1 and nj == j + 1
                          and p_axes[ni] is Axis.CHILD
                          and q_axes[nj] is Axis.CHILD)
            axis = Axis.CHILD if child_edge else Axis.DESC
            built[idx].branches.append((axis, built[idx + 1]))

        i0, j0 = alignment[0]
        if i0 == 0 and j0 == 0:
            root_axis = combine_axes(fp.query.root_axis, fq.query.root_axis)
        else:
            root_axis = Axis.DESC
        return TwigQuery.of_pattern_node(root_axis, built[0], built[-1])

    def product(self, p: TwigQuery, q: TwigQuery) -> TwigQuery:
        """The minimum-cost generalisation of ``p`` and ``q``."""
        fp, fq = self.factor(p), self.factor(q)
        key = (fp.signature, fq.signature)
        alignment = self._alignments.get(key)
        if alignment is None:
            for _, found in iter_alignments(p, q, parts=(fp.parts, fq.parts)):
                alignment = self._alignments[key] = tuple(found)
                break
            else:
                raise AssertionError(
                    "spine alignment search yielded no alignment")
        return self._assemble(fp, fq, alignment)

    def iter_products(self, p: TwigQuery, q: TwigQuery, *,
                      limit: int | None = None) -> Iterator[TwigQuery]:
        """Generalisations of ``p`` and ``q`` in increasing cost order."""
        fp, fq = self.factor(p), self.factor(q)
        count = 0
        for _, alignment in iter_alignments(p, q, parts=(fp.parts, fq.parts)):
            yield self._assemble(fp, fq, alignment)
            count += 1
            if limit is not None and count >= limit:
                return


def product(p: TwigQuery, q: TwigQuery, *,
            practical: bool = True) -> TwigQuery:
    """The minimum-cost generalisation of ``p`` and ``q``.

    ``practical=True`` (default) pairs only equal labels inside filters —
    the mode intended for learning from whole-document examples.  Pass
    ``practical=False`` for the exhaustive Boolean product on small queries.
    """
    return ProductCache(practical).product(p, q)


def iter_products(p: TwigQuery, q: TwigQuery, *, practical: bool = True,
                  limit: int | None = None) -> Iterator[TwigQuery]:
    """Generalisations of ``p`` and ``q`` in increasing cost order.

    At most ``limit`` results (``None`` = unbounded).  Used by the
    consistency-with-negatives search, which needs alternatives when the
    cheapest generalisation selects a negative example.
    """
    return ProductCache(practical).iter_products(p, q, limit=limit)
