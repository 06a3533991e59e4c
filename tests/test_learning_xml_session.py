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

from .conftest import XMARK_SECTIONS, xml


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


@st.composite
def xmark_sessions(draw, practical: bool):
    """Generated XMark corpora with a goal that selects some of them.

    ``practical=True`` sessions run over whole documents with a label
    filter; ``practical=False`` ones over one section of each document with
    no filter, since the exact product grows fast with document size.
    """
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=3))
    section = draw(st.sampled_from(XMARK_SECTIONS))
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


# ---------------------------------------------------------------------------
# Committed outcomes
# ---------------------------------------------------------------------------
# Recorded once and committed, so a change to the learner that alters a
# question, the learned query or the implied counts fails here even when it
# alters them on every backend alike (which backend-invariance checks, and
# sessionbench's reference recorded by the same code, cannot see).

_GOLDEN = [
    # (document seeds, goal, label filter, practical, section), then the
    # learned query, the questions asked, and (questions, implied positive,
    # implied negative).
    (((11, 12, 13), "//person/name", "name", True, None),
     "/site[regions[africa][asia][australia][europe][namerica][samerica]]"
     "[categories/category[@id][name][description]][catgraph/edge[@from]"
     "[@to]][open_auctions/open_auction[@id][initial][bidder[date][time]"
     "[increase]][current][itemref/@item][seller/@person][annotation"
     "[author/@person][happiness]][quantity][type][interval[start][end]]]"
     "[closed_auctions/closed_auction[seller/@person][buyer/@person]"
     "[itemref/@item][price][date][quantity][type][annotation"
     "[author/@person][description][happiness]]]/people[person[@id][name]"
     "[emailaddress]]/person[@id][emailaddress]/name",
     ((2, 30), (2, 42), (2, 52), (0, 77)), (4, 3, 11)),
    (((21, 22, 23), "//item/name", "name", True, None),
     "/site[categories/category[@id][name][description/text]][catgraph]"
     "[people/person[@id][name][emailaddress][phone]][open_auctions]"
     "[closed_auctions]/regions[asia][australia][namerica][samerica/item"
     "[@id][location][quantity][name][payment][description//text]"
     "[shipping][incategory/@category][mailbox]]/*/item[@id][location]"
     "[quantity][payment][description][shipping][incategory/@category]"
     "[mailbox]/name",
     ((0, 150), (0, 161), (0, 171), (0, 7), (0, 41), (0, 54), (1, 7),
      (2, 7)), (8, 19, 3)),
    (((31, 32, 33), "//person/emailaddress", None, False, "people"),
     "/people[person[@id][name][emailaddress][*/*]]/person[@id][name][*/*]"
     "/emailaddress",
     ((0, 0), (0, 1), (0, 11), (0, 2), (0, 3), (0, 4), (0, 14)),
     (7, 1, 32)),
]


@pytest.mark.parametrize("corpus, xpath, asked, counts", _GOLDEN,
                         ids=["person-name", "item-name", "exact-people"])
def test_session_outcome_matches_committed_golden(corpus, xpath, asked,
                                                  counts):
    seeds, goal, label_filter, practical, section = corpus
    docs = [generate_xmark(scale=0.03 if practical else 0.02, rng=seed)
            for seed in seeds]
    if section is not None:
        docs = [XTree(next(c for c in d.root.children if c.label == section))
                for d in docs]
    result = InteractiveTwigSession(
        docs, parse_twig(goal), label_filter=label_filter,
        max_pool=30 if practical else 40, practical=practical,
        backend=LocalBackend(Engine())).run()
    stats = result.stats
    assert result.query.to_xpath() == xpath
    assert tuple(stats.asked) == asked
    assert (stats.questions, stats.implied_positive,
            stats.implied_negative) == counts
