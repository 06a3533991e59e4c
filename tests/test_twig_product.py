"""The product construction: generalisation and least-ness properties."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.wire import encode_twig_query
from repro.twig.anchored import anchor_repair
from repro.twig.embedding import contains
from repro.twig.normalize import minimize
from repro.twig.parse import parse_twig
from repro.twig.product import (
    _spine_parts,
    iter_alignments,
    iter_products,
    product,
)
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XTree

from . import twig_kernels_reference as reference
from .conftest import generator_twig_pairs, twig_queries, xnode_trees


def q(text):
    return parse_twig(text)


def test_product_of_identical_queries():
    query = q("/a[b]/c")
    assert minimize(product(query, query, practical=False)) == query


def test_skip_generalisation():
    # The motivating example: /a/c and /a/b/c generalise to /a//c.
    p = product(q("/a/c"), q("/a/b/c"))
    assert p == q("/a//c")


def test_label_mismatch_becomes_wildcard():
    p = product(q("/a/x/c"), q("/a/y/c"), practical=False)
    assert p == q("/a/*/c")


def test_filters_intersect():
    p = product(q("/a[b][x]/c"), q("/a[b][y]/c"))
    assert p == q("/a[b]/c")


def test_descendant_root_alignment():
    p = product(q("//b"), q("/a/b"))
    repaired, exact = anchor_repair(p)
    assert exact
    assert minimize(repaired) == q("//b")


def test_product_generalises_both_factors():
    p1, p2 = q("/a[b/c]/d"), q("/a[b]/d")
    prod = product(p1, p2, practical=False)
    assert contains(p1, prod)
    assert contains(p2, prod)


@settings(max_examples=25, deadline=None)
@given(twig_queries(max_depth=2), twig_queries(max_depth=2))
def test_product_is_a_generalisation(p1, p2):
    prod = product(p1, p2, practical=False)
    assert contains(p1, prod)
    assert contains(p2, prod)


@settings(max_examples=20, deadline=None)
@given(twig_queries(max_depth=2), twig_queries(max_depth=2),
       xnode_trees(max_depth=3, max_children=2))
def test_product_answers_contain_intersection(p1, p2, tree):
    doc = XTree(tree)
    prod = product(p1, p2, practical=False)
    a1 = {id(n) for n in evaluate(p1, doc)}
    a2 = {id(n) for n in evaluate(p2, doc)}
    ap = {id(n) for n in evaluate(prod, doc)}
    assert (a1 & a2) <= ap


def test_iter_products_cost_order_and_distinctness():
    items = list(iter_products(q("/a/x/c"), q("/a/c"), practical=False,
                               limit=5))
    assert items, "at least one alignment must exist"
    assert items[0] == product(q("/a/x/c"), q("/a/c"), practical=False)


def test_iter_alignments_end_at_selected_pair():
    p1, p2 = q("/a/b/c"), q("/a/c")
    for _, alignment in iter_alignments(p1, p2):
        assert alignment[-1] == (2, 1)
        i_seq = [i for i, _ in alignment]
        j_seq = [j for _, j in alignment]
        assert i_seq == sorted(i_seq) and j_seq == sorted(j_seq)


def test_practical_mode_stays_general():
    p = product(q("/a[b]/c"), q("/a[x]/c"), practical=True)
    # With only distinct filter labels, practical mode drops them entirely.
    assert p == q("/a/c")


@settings(max_examples=25, deadline=None)
@given(twig_queries(max_depth=2), twig_queries(max_depth=2))
def test_product_leaves_its_inputs_unchanged(p1, p2):
    """The interactive session shares one canonical query per candidate
    across many products; that is only sound if no product mutates it."""
    before = (p1.canonical(), p2.canonical())
    product(p1, p2, practical=False)
    product(p1, p2, practical=True)
    for _ in iter_products(p1, p2, practical=False, limit=4):
        pass
    assert (p1.canonical(), p2.canonical()) == before


@settings(max_examples=25, deadline=None)
@given(twig_queries(max_depth=3))
def test_anchor_repair_and_minimize_leave_input_unchanged(query):
    """The rest of the session's widening step shares that contract, and
    minimize never hands back its input object."""
    before = query.canonical()
    repaired, _ = anchor_repair(query)
    assert minimize(repaired) is not repaired
    assert query.canonical() == before


@settings(max_examples=25, deadline=None)
@given(twig_queries(max_depth=3), twig_queries(max_depth=3))
def test_iter_alignments_same_with_precomputed_parts(p1, p2):
    parts = (_spine_parts(p1), _spine_parts(p2))
    plain = list(itertools.islice(iter_alignments(p1, p2), 30))
    given_parts = list(itertools.islice(
        iter_alignments(p1, p2, parts=parts), 30))
    assert plain and plain == given_parts


def _assert_products_match_reference(p1, p2, practical):
    for a, b in ((p1, p2), (p2, p1)):
        assert (encode_twig_query(product(a, b, practical=practical))
                == encode_twig_query(
                    reference.product(a, b, practical=practical)))
    fast = [encode_twig_query(x)
            for x in iter_products(p1, p2, practical=practical, limit=3)]
    slow = [encode_twig_query(x)
            for x in reference.iter_products(p1, p2, practical=practical,
                                             limit=3)]
    assert fast == slow


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_kernels_match_reference(practical, data):
    """Node for node, branch order included: the label index and the
    memoised deep-node lists change how partners are found, not which
    ones or in what order."""
    p1, p2 = data.draw(generator_twig_pairs(practical))
    _assert_products_match_reference(p1, p2, practical)


@pytest.mark.parametrize("practical, first, second", [
    # Pairs on which the order of the two descendant pairings of a
    # filter pair shows in the product's branch order.
    (False, "//a[b//c/b]/b[c/b/a]/a[a//c//c]", "/a[a/b//b]/b[c//c/a]/a"),
    (True, "/b[b//a//b]//b[c/b/a]", "//a[a//a//b]//b[b/b/c]"),
    (False, "//a[c//c/a]/c[b/a//a]/a[c/c/b]", "//b/c//a[.//c/b/c]"),
])
def test_product_matches_reference_on_order_sensitive_pairs(
        practical, first, second):
    _assert_products_match_reference(q(first), q(second), practical)
