"""The structures a twig session shares, checked against uncached references.

A session runs every product of a run through one
:class:`~repro.twig.product.ProductCache` and fetches the canonical
queries of a document's candidates together, sharing one pattern.  Both
must change how much work is done, never a single node of a result:

* long sequences of products through one cache, in the pattern a session
  uses it (one hypothesis against many candidates, the hypothesis
  replaced, factors dropped and fresh ones allocated so ``id()`` values
  get reused), equal the reference kernels node for node;
* ``canonical_queries`` equals ``canonical_query_for_node`` node by node,
  shares one pattern among the queries of one call and with nothing else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.serving.wire import encode_twig_query
from repro.twig.anchored import anchor_repair
from repro.twig.ast import Axis, TwigNode
from repro.twig.generator import canonical_query_for_node, random_twig
from repro.twig.normalize import minimize
from repro.twig.product import ProductCache
from repro.xmltree.tree import XNode, XTree

from . import twig_kernels_reference as reference
from .conftest import LABELS, XMARK_SECTIONS, xnode_trees

#: Steps of one product sequence: widen the hypothesis by the product,
#: keep it, or drop the candidates' queries and fetch fresh ones.
_ACTIONS = ("keep", "keep", "widen", "refetch")


def _assert_cached_products_match(cache, p, q, practical):
    fast = cache.product(p, q)
    assert encode_twig_query(fast) == encode_twig_query(
        reference.product(p, q, practical=practical))
    assert ([encode_twig_query(x)
             for x in cache.iter_products(p, q, limit=3)]
            == [encode_twig_query(x)
                for x in reference.iter_products(p, q, practical=practical,
                                                 limit=3)])
    return fast


def _widened(query):
    return minimize(anchor_repair(query)[0])


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_document_product_sequence_matches_reference(practical, data):
    """Canonical queries of generated XMark documents, fetched per
    document as a session fetches them, widened one after another."""
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=2,
                               max_size=3))
    section = data.draw(st.sampled_from(XMARK_SECTIONS))
    docs = []
    for seed in seeds:
        doc = generate_xmark(scale=0.01, rng=seed)
        if not practical:
            # The exact product grows fast with size: one section each.
            doc = XTree(next(c for c in doc.root.children
                             if c.label == section))
        docs.append(doc)
    label = data.draw(st.sampled_from(sorted(
        {n.label for n in docs[0].nodes()})))
    pools = [[n for n in doc.nodes() if n.label == label][:4]
             for doc in docs]
    pools = [(doc, nodes) for doc, nodes in zip(docs, pools) if nodes]
    engine = Engine()
    fetched = [engine.canonical_queries(doc, nodes) for doc, nodes in pools]
    cache = ProductCache(practical)
    hypothesis = _widened(fetched[0][0])
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(_ACTIONS)),
        min_size=4, max_size=10))
    for pick, action in steps:
        d = pick % len(fetched)
        candidate = fetched[d][pick % len(fetched[d])]
        merged = _assert_cached_products_match(cache, hypothesis, candidate,
                                               practical)
        if action == "widen":
            hypothesis = _widened(merged)
        elif action == "refetch":
            doc, nodes = pools[d]
            fetched[d] = engine.canonical_queries(doc, nodes)
        del candidate, merged


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_goal_product_sequence_matches_reference(practical, data):
    """Small goal-style queries, a fresh candidate every step: each one
    dropped before the next is drawn, so the allocator hands its memory,
    and with it its ``id()``, to the next."""
    labels = LABELS[:data.draw(st.integers(2, 3))]

    def goal():
        return random_twig(
            labels, spine_length=data.draw(st.integers(1, 3)),
            filter_probability=data.draw(st.sampled_from((0.9, 0.6))),
            desc_probability=data.draw(st.sampled_from((0.3, 0.0, 0.6))),
            wildcard_probability=data.draw(st.sampled_from((0.0, 0.2))),
            max_filter_depth=data.draw(st.sampled_from((3, 2))),
            rng=data.draw(st.integers(0, 10**6)))

    cache = ProductCache(practical)
    hypothesis = goal()
    for _ in range(data.draw(st.integers(4, 10))):
        candidate = goal()
        merged = _assert_cached_products_match(cache, hypothesis, candidate,
                                               practical)
        if data.draw(st.booleans()):
            hypothesis = _widened(merged)
        del candidate, merged


@settings(max_examples=25, deadline=None)
@given(xnode_trees(max_depth=4, max_children=3), st.data())
def test_canonical_queries_match_the_reference_and_share_one_pattern(
        tree, data):
    doc = XTree(tree)
    engine = Engine()
    nodes = list(doc.nodes())
    chosen = data.draw(st.lists(st.sampled_from(nodes), min_size=1))
    queries = engine.canonical_queries(doc, chosen)
    assert [encode_twig_query(q) for q in queries] == [
        encode_twig_query(canonical_query_for_node(doc, n)) for n in chosen]
    assert all(q.root is queries[0].root for q in queries)
    # A later call gets a pattern of its own.
    again = engine.canonical_queries(doc, chosen)
    assert again[0].root is not queries[0].root
    # Rewriting what the engine handed out changes none of its answers.
    queries[0].root.label = "mutated"
    queries[0].root.branches.append((Axis.DESC, TwigNode("extra")))
    assert [encode_twig_query(q)
            for q in engine.canonical_queries(doc, chosen)] == [
        encode_twig_query(canonical_query_for_node(doc, n)) for n in chosen]
    assert encode_twig_query(engine.canonical_query(doc, chosen[0])) == \
        encode_twig_query(canonical_query_for_node(doc, chosen[0]))


def test_canonical_queries_follow_a_tracked_edit():
    doc = XTree(XNode("a", children=[XNode("b"), XNode("c")]))
    engine = Engine()
    before = engine.canonical_queries(doc, list(doc.nodes()))
    assert [q.to_xpath() for q in before] == ["/a[b][c]", "/a[c]/b",
                                              "/a[b]/c"]
    doc.insert_subtree(doc.root, XNode("d"))
    nodes = list(doc.nodes())
    assert [encode_twig_query(q)
            for q in engine.canonical_queries(doc, nodes)] == [
        encode_twig_query(canonical_query_for_node(doc, n)) for n in nodes]


def test_canonical_queries_reject_a_foreign_node():
    doc = XTree(XNode("a"))
    with pytest.raises(ValueError):
        Engine().canonical_queries(doc, [XNode("a")])
