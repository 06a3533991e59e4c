"""The paper's guarantees for the interactive twig session, as properties.

Sessions run over generated XMark corpora, with and without a question
budget, and each one must uphold:

* **consistency**: the learned query selects every node labelled positive
  and no node labelled negative;
* **informativeness**: every question was informative when it was asked.
  The questions are replayed with the naive evaluator as the oracle and
  the cache-free product as the widening: the candidate was neither
  selected by the hypothesis of the time nor widened it into one that
  selects a known negative;
* **economy**: at most one question per pool candidate, and no more than
  the budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.learning.backend import LocalBackend
from repro.learning.xml_session import InteractiveTwigSession
from repro.twig.anchored import anchor_repair
from repro.twig.generator import canonical_query_for_node
from repro.twig.normalize import minimize
from repro.twig.product import product
from repro.twig.semantics import evaluate_naive

from .conftest import xmark_sessions


def _selects(query, doc, node) -> bool:
    return query is not None and any(
        n is node for n in evaluate_naive(query, doc))


def _widen(hypothesis, doc, node, practical):
    """The session's widening step, without any of its caches."""
    merged = canonical_query_for_node(doc, node)
    if hypothesis is not None:
        merged = product(hypothesis, merged, practical=practical)
    return minimize(anchor_repair(merged)[0])


@pytest.mark.parametrize("practical", [True, False])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_session_upholds_the_papers_guarantees(practical, data):
    docs, goal, kwargs = data.draw(xmark_sessions(practical))
    max_questions = kwargs.pop("max_questions")
    result = InteractiveTwigSession(
        docs, goal, backend=LocalBackend(Engine()), **kwargs).run(
            max_questions=max_questions)
    stats = result.stats
    preorders = [list(doc.nodes()) for doc in docs]
    labelled = [(docs[d], preorders[d][p]) for d, p in stats.asked]
    labels = [_selects(goal, doc, node) for doc, node in labelled]

    # Consistency with every label.
    for (doc, node), positive in zip(labelled, labels):
        assert _selects(result.query, doc, node) == positive

    # Every question informative when asked.
    hypothesis = None
    negatives: list = []
    for (doc, node), positive in zip(labelled, labels):
        assert not _selects(hypothesis, doc, node), "implied positive asked"
        widened = _widen(hypothesis, doc, node, practical)
        if hypothesis is not None:
            assert not any(_selects(widened, d, n) for d, n in negatives), (
                "implied negative asked")
        if positive:
            hypothesis = widened
        else:
            negatives.append((doc, node))
    assert hypothesis == result.query

    # Questions bounded by the pool and the budget.
    assert stats.questions == len(stats.asked) <= result.pool_size
    assert len(set(stats.asked)) == len(stats.asked)
    if max_questions is not None:
        assert stats.questions <= max_questions
