"""The interactive twig-learning session (the paper's 'practical system')."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.errors import LearningError
from repro.learning.backend import LocalBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.schema.corpus import library_schema
from repro.schema.generation import generate_valid_tree
from repro.twig.anchored import anchor_repair
from repro.twig.generator import canonical_query_for_node, random_twig
from repro.twig.normalize import minimize
from repro.twig.parse import parse_twig
from repro.twig.product import product
from repro.twig.semantics import evaluate
from repro.xmltree.tree import XTree

from .conftest import xml


def docs():
    return [
        xml("<site><people>"
            "<person><name>a</name><phone>1</phone></person>"
            "<person><name>b</name></person>"
            "</people></site>"),
        xml("<site><people>"
            "<person><name>c</name><phone>2</phone><address>x</address>"
            "</person></people></site>"),
    ]


def test_session_learns_goal():
    goal = parse_twig("/site/people/person[phone]/name")
    session = InteractiveTwigSession(docs(), goal, label_filter="name")
    result = session.run()
    assert result.query is not None
    for doc in docs():
        got = [id(n) for n in evaluate(result.query, doc)]
        want = [id(n) for n in evaluate(goal, doc)]
        assert got == want


def test_session_counts_and_propagates():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run()
    total = (result.stats.questions + result.stats.implied_positive
             + result.stats.implied_negative)
    assert result.stats.questions < result.pool_size
    assert total <= result.pool_size


def test_label_filter_restricts_pool():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal, label_filter="name")
    assert session.pool
    assert all(n.label == "name" for _, n in session.pool)


def test_requires_documents_and_pool():
    goal = parse_twig("//name")
    with pytest.raises(LearningError):
        InteractiveTwigSession([], goal)
    with pytest.raises(LearningError):
        InteractiveTwigSession(docs(), goal, label_filter="nonexistent")


def test_question_budget_respected():
    goal = parse_twig("//name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run(max_questions=2)
    assert result.stats.questions <= 2


def test_schema_pruning_applied():
    schema = library_schema()
    goal = parse_twig("/library/book/title")
    documents = [generate_valid_tree(schema, rng=i, max_depth=6, growth=0.8)
                 for i in range(8)]
    session = InteractiveTwigSession(documents, goal, schema=schema,
                                     label_filter="title")
    result = session.run()
    assert result.query is not None
    # Learned query agrees with the goal on the corpus.
    for doc in documents:
        got = [id(n) for n in evaluate(result.query, doc)]
        want = [id(n) for n in evaluate(goal, doc)]
        assert got == want
    # Schema pruning keeps the query small (plain learning keeps the
    # whole book skeleton as filters).
    assert result.query.size() <= 8


def test_fewer_questions_than_pool_with_propagation():
    goal = parse_twig("/site/people/person/name")
    session = InteractiveTwigSession(docs(), goal)
    result = session.run()
    assert result.stats.questions < result.pool_size
    assert result.stats.labels_saved > 0


# ---------------------------------------------------------------------------
# The per-hypothesis memo against the uncached reference
# ---------------------------------------------------------------------------


class _UncachedSession(InteractiveTwigSession):
    """The implied-negative probe without the memo: widen the hypothesis
    by the candidate, then probe every negative."""

    def _implied_negative(self, hypothesis, candidate, negatives):
        if hypothesis is None or not negatives:
            return False
        return self.backend.selects_any(self._extend(hypothesis, candidate),
                                        negatives)


class _CountingBackend(LocalBackend):
    def __init__(self) -> None:
        super().__init__(Engine())
        self.selects_any_calls = 0
        self.canonical_query_calls = 0

    def selects_any(self, query, candidates):
        self.selects_any_calls += 1
        return super().selects_any(query, candidates)

    def canonical_query(self, tree, node):
        self.canonical_query_calls += 1
        return super().canonical_query(tree, node)


def _outcome(result):
    stats = result.stats
    query = None if result.query is None else result.query.canonical()
    return (query, stats.asked, stats.questions, stats.implied_positive,
            stats.implied_negative)


def _run(cls, docs, goal, **kwargs):
    max_questions = kwargs.pop("max_questions", None)
    backend = _CountingBackend()
    result = cls(docs, goal, backend=backend, **kwargs).run(
        max_questions=max_questions)
    return _outcome(result), backend


#: XMark sections small enough for the exact (``practical=False``) product.
_SECTIONS = ("people", "open_auctions", "closed_auctions")


@st.composite
def xmark_sessions(draw, practical: bool):
    """Generated XMark corpora with a goal that selects some of them.

    ``practical=True`` sessions run over whole documents with a label
    filter; ``practical=False`` ones over one section of each document with
    no filter, since the exact product grows fast with document size.
    """
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=3))
    section = draw(st.sampled_from(_SECTIONS))
    docs = []
    for seed in seeds:
        site = generate_xmark(scale=0.01, rng=seed)
        if not practical:
            site = XTree(next(c for c in site.root.children
                              if c.label == section))
        docs.append(site)
    examples = [(d, n) for d in docs for n in d.nodes() if n is not d.root]
    assume(examples)
    doc, target = draw(st.sampled_from(examples))
    if draw(st.booleans()):
        # A generalisation of two examples of the same label.
        goal = canonical_query_for_node(doc, target)
        others = [(d, n) for d, n in examples
                  if n.label == target.label and n is not target]
        if others:
            other_doc, other = draw(st.sampled_from(others))
            merged = product(goal, canonical_query_for_node(other_doc, other))
            goal = minimize(anchor_repair(merged)[0])
    else:
        labels = sorted({n.label for n in doc.path_to_root(target)})
        goal = random_twig(labels, spine_length=draw(st.integers(1, 3)),
                           rng=draw(st.integers(0, 10**6)))
    return docs, goal, {
        "label_filter": target.label if practical else None,
        "max_pool": 30,
        "practical": practical,
        "max_questions": draw(st.sampled_from((None, 3))),
    }


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_memoised_session_matches_uncached_reference(practical, data):
    docs, goal, kwargs = data.draw(xmark_sessions(practical))
    fast, fast_backend = _run(InteractiveTwigSession, docs, goal, **kwargs)
    ref, ref_backend = _run(_UncachedSession, docs, goal, **kwargs)
    assert fast == ref
    assert fast_backend.selects_any_calls <= ref_backend.selects_any_calls


def test_memo_saves_probes_and_canonical_fetches():
    goal = parse_twig("/site/people/person[phone]/name")
    fast, fast_backend = _run(InteractiveTwigSession, docs(), goal)
    ref, ref_backend = _run(_UncachedSession, docs(), goal)
    assert fast == ref
    assert fast_backend.selects_any_calls < ref_backend.selects_any_calls
    # One canonical query per candidate and run, however often it widens.
    session = InteractiveTwigSession(docs(), goal)
    assert fast_backend.canonical_query_calls <= len(session.pool)


def test_rerun_resets_the_memo():
    goal = parse_twig("/site/people/person[phone]/name")
    backend = _CountingBackend()
    session = InteractiveTwigSession(docs(), goal, backend=backend)
    first = _outcome(session.run())
    calls = backend.selects_any_calls, backend.canonical_query_calls
    assert _outcome(session.run()) == first
    assert (backend.selects_any_calls,
            backend.canonical_query_calls) == tuple(2 * c for c in calls)
