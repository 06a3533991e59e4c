"""Twig minimisation: removal of redundant (sibling-subsumed) branches.

A branch ``(axis_i, c_i)`` at a node is *redundant* when a sibling branch
``(axis_j, c_j)`` implies it: every document satisfying the sibling branch
below some node also satisfies the redundant one.  Concretely

* ``axis_i = /``:  requires ``axis_j = /`` and a Boolean embedding of
  ``c_i`` into ``c_j`` mapping root to root;
* ``axis_i = //``: requires a Boolean embedding of ``c_i`` at *any* node of
  the sibling subtree (anything in the sibling subtree sits at depth >= 1).

Removing redundant branches preserves query equivalence; this is the
standard tree-pattern minimisation step and the reason the paper's learned
queries do not grow with the size of the example documents.  Branches whose
subtree contains the selected node are never removed.

The implication relation is transitive, and ties between mutually-implied
(equivalent) branches are broken by keeping the earliest, so a single sweep
per node is sound.

One sweep, one memo: a sweep (one :func:`_prune_branches` call) shares a
single Boolean-embedding memo and one cache of subtree node lists across
all the branch pairs it compares.  Both are keyed by node identity, which
is sound only while every node they have seen is alive and unchanged: true
within a sweep, which neither frees nor mutates a node.  Across sweeps it
is not guaranteed.  The product frees the copies a sweep pruned away, and
CPython reuses their ids for new nodes; :func:`minimize` rewrites branch
lists between sweeps (its bottom-up order happens never to revisit a
rewritten node, but nothing should depend on that).  So no memo outlives
its sweep.
"""

from __future__ import annotations

from repro.twig.ast import Axis, TwigNode, TwigQuery


class _Sweep:
    """Boolean embeddings memoised for one pruning sweep (see the module
    docstring for why it must not outlive it)."""

    __slots__ = ("_memo", "_subtrees")

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int], bool] = {}
        self._subtrees: dict[int, list[TwigNode]] = {}

    def subtree(self, v: TwigNode) -> list[TwigNode]:
        """``v`` and all its descendants, pre-order."""
        nodes = self._subtrees.get(id(v))
        if nodes is None:
            nodes = self._subtrees[id(v)] = list(v.iter())
        return nodes

    def embeds(self, u: TwigNode, v: TwigNode) -> bool:
        """Boolean embedding of ``u`` into ``v``, root to root."""
        if not u.is_wildcard and u.label != v.label:
            return False
        key = (id(u), id(v))
        ok = self._memo.get(key)
        if ok is not None:
            return ok
        ok = True
        for axis, uc in u.branches:
            if axis is Axis.CHILD:
                found = any(self.embeds(uc, vc)
                            for a, vc in v.branches if a is Axis.CHILD)
            else:
                below = self.subtree(v)
                found = any(self.embeds(uc, below[k])
                            for k in range(1, len(below)))
            if not found:
                ok = False
                break
        self._memo[key] = ok
        return ok

    def implies(self, stronger: tuple[Axis, TwigNode],
                weaker: tuple[Axis, TwigNode]) -> bool:
        axis_s, sub_s = stronger
        axis_w, sub_w = weaker
        if axis_w is Axis.CHILD:
            return axis_s is Axis.CHILD and self.embeds(sub_w, sub_s)
        # weaker is a descendant branch: any placement in the stronger
        # subtree sits at depth >= 1 below the shared parent.
        return any(self.embeds(sub_w, v) for v in self.subtree(sub_s))


def bool_embeds_at(pattern: TwigNode, target: TwigNode) -> bool:
    """Boolean embedding of ``pattern`` into the subtree at ``target``.

    Root maps to root; no selected-node constraints.
    """
    return _Sweep().embeds(pattern, target)


def branch_implies(stronger: tuple[Axis, TwigNode],
                   weaker: tuple[Axis, TwigNode]) -> bool:
    """Does the ``stronger`` branch imply the ``weaker`` one at the same node?"""
    return _Sweep().implies(stronger, weaker)


def _prune_branches(
    branches: list[tuple[Axis, TwigNode]],
    protected: set[int],
) -> list[tuple[Axis, TwigNode]]:
    """Drop branches implied by a surviving sibling.

    ``protected`` holds ids of subtree roots that must survive (they contain
    the selected node).  Equivalent pairs keep the earliest branch.  One
    :class:`_Sweep` serves every comparison of this call.
    """
    if len(branches) < 2:
        return list(branches)
    sweep = _Sweep()
    removed: set[int] = set()
    for i, bi in enumerate(branches):
        if id(bi[1]) in protected:
            continue
        for j, bj in enumerate(branches):
            if i == j or j in removed:
                continue
            if sweep.implies(bj, bi):
                if not sweep.implies(bi, bj) or j < i:
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
    protected = {id(n) for _, n in result.spine()}

    def go(n: TwigNode) -> None:
        for _, child in n.branches:
            go(child)
        n.branches = _prune_branches(n.branches, protected)

    go(result.root)
    return result
