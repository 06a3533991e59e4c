"""Reference copies of the twig hypothesis-construction kernels.

These are the straightforward versions of ``TwigQuery.spine`` (a full
parent map), Boolean embedding and branch pruning (a fresh memo per pair)
and the Boolean product (every pair scanned, every label compared), kept
verbatim as the oracle for the differential properties in
``test_twig_normalize.py`` and ``test_twig_product.py``.  The library's
kernels must produce node-for-node identical results, branch order
included.  Only the spine-alignment search is shared with the library.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.twig.ast import Axis, TwigNode, TwigQuery, combine_axes
from repro.twig.product import (
    Alignment,
    SpineParts,
    _copy_node,
    _off_spine,
    _product_label,
    iter_alignments,
)

# ---------------------------------------------------------------------------
# TwigQuery.spine
# ---------------------------------------------------------------------------


def parent_map(query: TwigQuery) -> dict[int, tuple[TwigNode, Axis] | None]:
    """Map ``id(node) -> (parent, axis)`` (``None`` for the root)."""
    parents: dict[int, tuple[TwigNode, Axis] | None] = {id(query.root): None}
    for n in query.root.iter():
        for axis, child in n.branches:
            parents[id(child)] = (n, axis)
    return parents


def spine(query: TwigQuery) -> list[tuple[Axis, TwigNode]]:
    """The path from the root to the selected node.

    Returns ``[(root_axis, root), (axis1, n1), ..., (axisk, selected)]``.
    """
    parents = parent_map(query)
    path: list[tuple[Axis, TwigNode]] = []
    current: TwigNode | None = query.selected
    while current is not None:
        entry = parents[id(current)]
        if entry is None:
            path.append((query.root_axis, current))
            current = None
        else:
            parent, axis = entry
            path.append((axis, current))
            current = parent
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# repro.twig.normalize
# ---------------------------------------------------------------------------


def bool_embeds_at(pattern: TwigNode, target: TwigNode) -> bool:
    """Boolean embedding of ``pattern`` into the subtree at ``target``.

    Root maps to root; no selected-node constraints.
    """
    memo: dict[tuple[int, int], bool] = {}

    def go(u: TwigNode, v: TwigNode) -> bool:
        key = (id(u), id(v))
        if key in memo:
            return memo[key]
        if u.is_wildcard:
            ok = True
        else:
            ok = (not v.is_wildcard) and u.label == v.label
        if ok:
            for axis, uc in u.branches:
                if axis is Axis.CHILD:
                    targets = [c for a, c in v.branches if a is Axis.CHILD]
                else:
                    targets = [d for _, c in v.branches for d in c.iter()]
                if not any(go(uc, vc) for vc in targets):
                    ok = False
                    break
        memo[key] = ok
        return ok

    return go(pattern, target)


def branch_implies(stronger: tuple[Axis, TwigNode],
                   weaker: tuple[Axis, TwigNode]) -> bool:
    """Does the ``stronger`` branch imply the ``weaker`` one at the same node?"""
    axis_s, sub_s = stronger
    axis_w, sub_w = weaker
    if axis_w is Axis.CHILD:
        return axis_s is Axis.CHILD and bool_embeds_at(sub_w, sub_s)
    # weaker is a descendant branch: any placement in the stronger subtree
    # sits at depth >= 1 below the shared parent.
    return any(bool_embeds_at(sub_w, v) for v in sub_s.iter())


def _prune_branches(
    branches: list[tuple[Axis, TwigNode]],
    protected: set[int],
) -> list[tuple[Axis, TwigNode]]:
    """Drop branches implied by a surviving sibling.

    ``protected`` holds ids of subtree roots that must survive (they contain
    the selected node).  Equivalent pairs keep the earliest branch.
    """
    removed: set[int] = set()
    for i, bi in enumerate(branches):
        if id(bi[1]) in protected:
            continue
        for j, bj in enumerate(branches):
            if i == j or j in removed:
                continue
            if branch_implies(bj, bi):
                if not branch_implies(bi, bj) or j < i:
                    removed.add(i)
                    break
    return [b for i, b in enumerate(branches) if i not in removed]


def prune_redundant_branches(
    branches: list[tuple[Axis, TwigNode]],
) -> list[tuple[Axis, TwigNode]]:
    """Public pruning entry point for Boolean branch lists (no selected node)."""
    return _prune_branches(branches, set())


def minimize(query: TwigQuery) -> TwigQuery:
    """Equivalent query with redundant branches removed, bottom-up.

    The input is not mutated.
    """
    result = query.copy()
    protected = {id(n) for _, n in spine(result)}

    def go(n: TwigNode) -> None:
        for _, child in n.branches:
            go(child)
        n.branches = _prune_branches(n.branches, protected)

    go(result.root)
    return result


# ---------------------------------------------------------------------------
# repro.twig.product
# ---------------------------------------------------------------------------


class _BoolProducts:
    """Memoised Boolean products of subpattern pairs.

    ``practical=True`` pairs only equal labels (the mode used when examples
    are whole documents: mismatched-label pairs produce ``*`` branches that
    are almost always pruned anyway, and skipping them keeps the product
    from exploding).  ``practical=False`` is the exact construction.
    """

    def __init__(self, practical: bool) -> None:
        self.practical = practical
        self._memo: dict[tuple[int, int], TwigNode] = {}

    def _labels_pair(self, a: str, b: str) -> bool:
        if not self.practical:
            return True
        return a == b

    def node(self, u: TwigNode, v: TwigNode) -> TwigNode:
        key = (id(u), id(v))
        cached = self._memo.get(key)
        if cached is not None:
            return _copy_node(cached)
        result = TwigNode(_product_label(u.label, v.label))
        branches: list[tuple[Axis, TwigNode]] = []
        v_deep = [d for _, vc in v.branches for d in _deep_nodes(vc)]
        u_deep = [d for _, uc in u.branches for d in _deep_nodes(uc)]
        for a_axis, uc in u.branches:
            for b_axis, vc in v.branches:
                if self._labels_pair(uc.label, vc.label):
                    branches.append(
                        (combine_axes(a_axis, b_axis), self.node(uc, vc)))
            for w in v_deep:
                if self._labels_pair(uc.label, w.label):
                    branches.append((Axis.DESC, self.node(uc, w)))
        for _, vc in v.branches:
            for w in u_deep:
                if self._labels_pair(w.label, vc.label):
                    branches.append((Axis.DESC, self.node(w, vc)))
        result.branches = prune_redundant_branches(branches)
        self._memo[key] = result
        return _copy_node(result)


def _deep_nodes(n: TwigNode) -> list[TwigNode]:
    """Nodes at depth >= 2 below the parent of ``n`` (i.e. inside ``n``)."""
    out: list[TwigNode] = []
    for _, child in n.branches:
        out.append(child)
        out.extend(_deep_nodes(child))
    return out


def _spine_parts(q: TwigQuery) -> SpineParts:
    path = spine(q)
    return [axis for axis, _ in path], [n for _, n in path]


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
        for a_axis, uc in off_p:
            for b_axis, vc in off_q:
                if products._labels_pair(uc.label, vc.label):
                    filters.append(
                        (combine_axes(a_axis, b_axis), products.node(uc, vc)))
        deep_q = [_deep_nodes(vc) for _, vc in off_q]
        for _, uc in off_p:
            deep_u = _deep_nodes(uc)
            for (_, vc), deep_v in zip(off_q, deep_q):
                for w in deep_v:
                    if products._labels_pair(uc.label, w.label):
                        filters.append((Axis.DESC, products.node(uc, w)))
                for w in deep_u:
                    if products._labels_pair(w.label, vc.label):
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
    """The minimum-cost generalisation of ``p`` and ``q``."""
    products = _BoolProducts(practical)
    parts = (_spine_parts(p), _spine_parts(q))
    for _, alignment in iter_alignments(p, q, parts=parts):
        return _assemble(p, q, alignment, products, parts)
    raise AssertionError("spine alignment search yielded no alignment")


def iter_products(p: TwigQuery, q: TwigQuery, *, practical: bool = True,
                  limit: int | None = None) -> Iterator[TwigQuery]:
    """Generalisations of ``p`` and ``q`` in increasing cost order."""
    products = _BoolProducts(practical)
    parts = (_spine_parts(p), _spine_parts(q))
    count = 0
    for _, alignment in iter_alignments(p, q, parts=parts):
        yield _assemble(p, q, alignment, products, parts)
        count += 1
        if limit is not None and count >= limit:
            return
