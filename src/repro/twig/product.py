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
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

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
#: Pairing partners by :meth:`_BoolProducts.key`, each list in input order.
PartnerIndex = dict[str | None, list]


def _copy_node(n: TwigNode) -> TwigNode:
    clone = TwigNode(n.label)
    clone.branches = [(axis, _copy_node(c)) for axis, c in n.branches]
    return clone


def _product_label(a: str, b: str) -> str:
    return a if a == b else "*"


class _BoolProducts:
    """Memoised Boolean products of subpattern pairs, for one product call.

    ``practical=True`` pairs only equal labels (the mode used when examples
    are whole documents: mismatched-label pairs produce ``*`` branches that
    are almost always pruned anyway, and skipping them keeps the product
    from exploding).  ``practical=False`` is the exact construction.

    Pairing partners come from per-node indexes of the partner lists (a
    node's children and the nodes strictly below them), keyed by label in
    practical mode and by one shared key otherwise, so practical mode looks
    its partners up instead of scanning every pair.  Each index keeps its
    list's order, so branch order (and with it every prune tie-break) is
    that of the exhaustive scan.  The indexes are keyed by input node: the
    inputs are never mutated, and the object lives for one product call.
    """

    def __init__(self, practical: bool) -> None:
        self.practical = practical
        self._memo: dict[tuple[int, int], TwigNode] = {}
        self._deep: dict[int, list[TwigNode]] = {}
        self._children: dict[int, PartnerIndex] = {}
        self._below: dict[int, PartnerIndex] = {}
        self._inside: dict[int, PartnerIndex] = {}

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

    def node(self, u: TwigNode, v: TwigNode) -> TwigNode:
        key = (id(u), id(v))
        cached = self._memo.get(key)
        if cached is not None:
            return _copy_node(cached)
        result = TwigNode(_product_label(u.label, v.label))
        if not u.branches or not v.branches:
            return result  # every pairing needs a branch on both sides
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
        self._memo[key] = result
        return _copy_node(result)


# ---------------------------------------------------------------------------
# Spine alignments
# ---------------------------------------------------------------------------


def _spine_parts(q: TwigQuery) -> SpineParts:
    spine = q.spine()
    return [axis for axis, _ in spine], [n for _, n in spine]


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
# Assembly
# ---------------------------------------------------------------------------


def _off_spine(spine_node: TwigNode,
               next_spine: TwigNode | None) -> list[tuple[Axis, TwigNode]]:
    return [(axis, c) for axis, c in spine_node.branches
            if next_spine is None or c is not next_spine]


def _assemble(p: TwigQuery, q: TwigQuery, alignment: Alignment,
              products: _BoolProducts,
              parts: tuple[SpineParts, SpineParts]) -> TwigQuery:
    (p_axes, p_nodes), (q_axes, q_nodes) = parts

    built: list[TwigNode] = []
    for idx, (i, j) in enumerate(alignment):
        pn, qn = p_nodes[i], q_nodes[j]
        node = TwigNode(_product_label(pn.label, qn.label))
        # The spine continuation out of pn is always the branch towards
        # p_nodes[i+1] (even when the alignment skips it, that subtree is
        # consumed by the // edge); it is excluded from the filter forest.
        last = idx + 1 >= len(alignment)
        p_spine_child = None if last else p_nodes[i + 1]
        q_spine_child = None if last else q_nodes[j + 1]
        off_p = _off_spine(pn, p_spine_child)
        off_q = _off_spine(qn, q_spine_child)
        filters: list[tuple[Axis, TwigNode]] = []
        q_children = products.index(off_q, [c for _, c in off_q])
        for a_axis, uc in off_p:
            for b_axis, vc in q_children.get(products.key(uc.label), ()):
                filters.append(
                    (combine_axes(a_axis, b_axis), products.node(uc, vc)))
        for _, uc in off_p:
            k = products.key(uc.label)
            inside_u = products.inside(uc)
            for _, vc in off_q:
                for w in products.inside(vc).get(k, ()):
                    filters.append((Axis.DESC, products.node(uc, w)))
                for w in inside_u.get(products.key(vc.label), ()):
                    filters.append((Axis.DESC, products.node(w, vc)))
        node.branches = prune_redundant_branches(filters)
        built.append(node)

    # Link consecutive spine nodes.
    for idx in range(len(alignment) - 1):
        (i, j), (ni, nj) = alignment[idx], alignment[idx + 1]
        child_edge = (ni == i + 1 and nj == j + 1
                      and p_axes[ni] is Axis.CHILD and q_axes[nj] is Axis.CHILD)
        axis = Axis.CHILD if child_edge else Axis.DESC
        built[idx].branches.append((axis, built[idx + 1]))

    i0, j0 = alignment[0]
    if i0 == 0 and j0 == 0:
        root_axis = combine_axes(p.root_axis, q.root_axis)
    else:
        root_axis = Axis.DESC
    return TwigQuery(root_axis, built[0], built[-1])


def product(p: TwigQuery, q: TwigQuery, *,
            practical: bool = True) -> TwigQuery:
    """The minimum-cost generalisation of ``p`` and ``q``.

    ``practical=True`` (default) pairs only equal labels inside filters —
    the mode intended for learning from whole-document examples.  Pass
    ``practical=False`` for the exhaustive Boolean product on small queries.
    """
    products = _BoolProducts(practical)
    parts = (_spine_parts(p), _spine_parts(q))
    for _, alignment in iter_alignments(p, q, parts=parts):
        return _assemble(p, q, alignment, products, parts)
    raise AssertionError("spine alignment search yielded no alignment")


def iter_products(p: TwigQuery, q: TwigQuery, *, practical: bool = True,
                  limit: int | None = None) -> Iterator[TwigQuery]:
    """Generalisations of ``p`` and ``q`` in increasing cost order.

    At most ``limit`` results (``None`` = unbounded).  Used by the
    consistency-with-negatives search, which needs alternatives when the
    cheapest generalisation selects a negative example.
    """
    products = _BoolProducts(practical)
    parts = (_spine_parts(p), _spine_parts(q))
    count = 0
    for _, alignment in iter_alignments(p, q, parts=parts):
        yield _assemble(p, q, alignment, products, parts)
        count += 1
        if limit is not None and count >= limit:
            return
