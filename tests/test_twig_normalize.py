"""Minimisation: removes redundancy, preserves semantics."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.wire import encode_twig_query
from repro.twig.embedding import equivalent
from repro.twig.normalize import (
    branch_implies,
    bool_embeds_at,
    minimize,
    prune_redundant_branches,
)
from repro.twig.ast import Axis, TwigNode, twig
from repro.twig.parse import parse_twig
from repro.twig.product import product
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XTree

from . import twig_kernels_reference as reference
from .conftest import generator_twig_pairs, twig_queries, xnode_trees


def q(text):
    return parse_twig(text)


def test_duplicate_filter_removed():
    m = minimize(q("/a[b][b]/c"))
    assert m == q("/a[b]/c")


def test_subsumed_filter_removed():
    # [b] is implied by [b/c].
    m = minimize(q("/a[b][b/c]/d"))
    assert m == q("/a[b/c]/d")


def test_wildcard_filter_subsumed_by_label():
    m = minimize(q("/a[*][b]/c"))
    assert m == q("/a[b]/c")


def test_descendant_filter_subsumed_by_child_chain():
    # [.//c] implied by [b/c].
    m = minimize(q("/a[.//c][b/c]/d"))
    assert m == q("/a[b/c]/d")


def test_spine_justifies_filter_removal():
    # Filter [b] implied by the spine going through b.
    m = minimize(q("/a[b]/b/c"))
    assert m == q("/a/b/c")


def test_spine_never_removed():
    m = minimize(q("/a/b"))
    assert m == q("/a/b")


def test_incomparable_filters_kept():
    m = minimize(q("/a[b][c]/d"))
    assert m == q("/a[b][c]/d")


def test_bool_embeds_at_basics():
    pattern = q("/b[c]").root
    target = q("/b[c][d]").root
    assert bool_embeds_at(pattern, target)
    assert not bool_embeds_at(target, pattern)


def test_branch_implies_axis_rules():
    strong = (Axis.CHILD, q("/b/c").root)
    weak_child = (Axis.CHILD, q("/b").root)
    weak_desc = (Axis.DESC, q("/c").root)
    assert branch_implies(strong, weak_child)
    assert branch_implies(strong, weak_desc)
    # A descendant branch cannot imply a child branch.
    assert not branch_implies((Axis.DESC, q("/b").root), weak_child)


@settings(max_examples=30, deadline=None)
@given(twig_queries(max_depth=3))
def test_minimize_preserves_equivalence(query):
    assert equivalent(minimize(query), query)


@settings(max_examples=30, deadline=None)
@given(twig_queries(max_depth=3), xnode_trees(max_depth=3, max_children=2))
def test_minimize_preserves_answers(query, tree):
    doc = XTree(tree)
    before = {id(n) for n in evaluate(query, doc)}
    after = {id(n) for n in evaluate(minimize(query), doc)}
    assert before == after


@settings(max_examples=30, deadline=None)
@given(twig_queries(max_depth=3))
def test_minimize_never_grows(query):
    assert minimize(query).size() <= query.size()


# ---------------------------------------------------------------------------
# The kernels against their straightforward reference versions
# ---------------------------------------------------------------------------


def _spine_ids(path):
    return [(axis, id(n)) for axis, n in path]


@settings(max_examples=40, deadline=None)
@given(twig_queries(max_depth=4))
def test_spine_matches_parent_map_reference(query):
    assert _spine_ids(query.spine()) == _spine_ids(reference.spine(query))


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_spine_matches_reference_on_generated_queries(practical, data):
    p1, p2 = data.draw(generator_twig_pairs(practical))
    for query in (p1, p2, product(p1, p2, practical=practical)):
        assert _spine_ids(query.spine()) == _spine_ids(reference.spine(query))


def test_spine_rejects_a_foreign_selected_node():
    query = q("/a/b")
    query.selected = TwigNode("b")
    with pytest.raises(ValueError, match="selected node"):
        query.spine()


def test_no_verdict_outlives_its_sweep():
    """Each sweep frees its nodes, and CPython hands their ids to the next
    sweep's nodes: a memo kept across sweeps would answer for the dead."""
    for _ in range(100):
        implied = [(Axis.CHILD, twig("a")),
                   (Axis.CHILD, twig("a", (Axis.CHILD, twig("b"))))]
        assert len(prune_redundant_branches(implied)) == 1
        del implied
        incomparable = [(Axis.CHILD, twig("a", (Axis.CHILD, twig("c")))),
                        (Axis.CHILD, twig("a", (Axis.CHILD, twig("b"))))]
        assert len(prune_redundant_branches(incomparable)) == 2
        del incomparable


def _branch_ids(branches):
    return [(axis, id(n)) for axis, n in branches]


def _sample(nodes, k=12):
    nodes = list(nodes)
    return nodes[::max(1, len(nodes) // k)]


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pruning_kernels_match_reference(practical, data):
    p1, p2 = data.draw(generator_twig_pairs(practical))
    prod = product(p1, p2, practical=practical)
    for query in (p1, p2, prod):
        minimised = minimize(query)
        assert (encode_twig_query(minimised)
                == encode_twig_query(reference.minimize(query)))
        for n in query.nodes():
            assert (_branch_ids(prune_redundant_branches(n.branches))
                    == _branch_ids(reference.prune_redundant_branches(
                        n.branches)))
    # Sibling lists with cross-query redundancy: both roots' branches.
    pooled = p1.root.branches + p2.root.branches + prod.root.branches
    assert (_branch_ids(prune_redundant_branches(pooled))
            == _branch_ids(reference.prune_redundant_branches(pooled)))
    for u, v in itertools.product(_sample(p1.nodes()), _sample(p2.nodes())):
        assert bool_embeds_at(u, v) == reference.bool_embeds_at(u, v)
        for a, b in itertools.product(Axis, Axis):
            assert (branch_implies((a, u), (b, v))
                    == reference.branch_implies((a, u), (b, v)))
