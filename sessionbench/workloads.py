"""The four session workloads: inputs from the seed, one unit per session.

A workload is a set of *corpora*, each an independent input drawn from
the seed.  Setting a corpus up generates its inputs, records the
reference outcome from a ``LocalBackend`` run, and readies the backend the
timed sessions use.  The timed loop then runs one session at a time on
each corpus in turn.

Several corpora per run, rather than one, because session cost depends
strongly on the input: one twig session on six documents takes 0.1-1.3 s
depending on the seed (coefficient of variation 36% over 110 corpora).
Averaging over K corpora per run divides the seed-to-seed spread of the
end-to-end figures by about sqrt(K).
"""

from __future__ import annotations

import hashlib
import time

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import (
    EvaluationBackend,
    LocalBackend,
    RemoteBackend,
)
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import (
    InteractiveJoinSession,
    LatticeStrategy,
    ProposalStrategy,
)
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.serving import (
    AsyncBatchEvaluator,
    SerialExecutor,
    ServerThread,
)
from repro.twig.parse import parse_twig
from repro.xmltree.tree import XNode

TWIG = {"goal": "//person[profile]/name", "label_filter": "name",
        "pool": 60, "docs": 6, "scale": 0.03}
PATH = {"goal": "highway+", "source": "city_0_0", "target": "city_3_2",
        "max_length": 6, "candidates": 80}
JOIN = {"strategy": "lattice", "rows": 40, "pool": 600}
#: Corpora per run: as many as each workload's run time allows.
CORPORA = {"twig-local": 20, "twig-remote": 28, "twig-edit-remote": 20,
           "pathjoin-local": 96}
#: Shard admission limit of the in-process server (one per core).
SERVER_INFLIGHT_SHARDS = 2


def derive_seed(*parts: object) -> int:
    """A 64-bit seed from the run seed and an input's coordinates."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class QuestionClock:
    """Waits between a label returning (or the session starting) and the
    next question being asked."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: The traced run's tracer, which numbers questions in its spans.
        self.tracer = None
        self._ready = 0.0

    def start(self) -> None:
        self._ready = time.perf_counter()

    def asked(self) -> None:
        self.samples.append(time.perf_counter() - self._ready)
        if self.tracer is not None:
            self.tracer.qid += 1

    def answered(self) -> None:
        self._ready = time.perf_counter()


class _TimedOracle:
    """The session's simulated user, with the question clock around it."""

    def __init__(self, oracle, clock: QuestionClock) -> None:
        self._oracle = oracle
        self._clock = clock

    def label(self, tree, node) -> bool:
        self._clock.asked()
        try:
            return self._oracle.label(tree, node)
        finally:
            self._clock.answered()


class _TimedLattice(ProposalStrategy):
    """Lattice proposals; the user sees the question as ``choose`` returns
    and the simulated answer is immediate."""

    name = "lattice"

    def __init__(self, clock: QuestionClock) -> None:
        self._inner = LatticeStrategy()
        self._clock = clock

    def choose(self, space, informative):
        pair = self._inner.choose(space, informative)
        self._clock.asked()
        self._clock.answered()
        return pair


def _twig_outcome(result) -> tuple:
    s = result.stats
    return (result.query, tuple(s.asked), s.questions, s.implied_positive,
            s.implied_negative)


# ----------------------------------------------------------------------
# Corpora
# ----------------------------------------------------------------------
class Corpus:
    """One input of a workload: its reference outcome, the client-side
    engine, and the backend its timed sessions use."""

    reference: tuple
    engine: Engine
    backend: EvaluationBackend

    def prepare(self) -> None:
        """Untimed work before each session; none by default."""

    def session(self, clock: QuestionClock) -> tuple:
        """Run one session; return its outcome for :meth:`matches`."""
        raise NotImplementedError

    def matches(self, outcome: tuple) -> bool:
        return outcome == self.reference

    def questions(self) -> int:
        raise NotImplementedError

    def implied_labels(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        self.backend.close()


class TwigCorpus(Corpus):
    """Six XMark documents and the ``//person[profile]/name`` session."""

    goal = parse_twig(TWIG["goal"])

    def __init__(self, seed: int, k: int, *, server: ServerThread | None,
                 edits: bool) -> None:
        self.docs = [generate_xmark(scale=TWIG["scale"],
                                    rng=derive_seed("xmark", seed, k, i))
                     for i in range(TWIG["docs"])]
        self.edits = edits
        self._inserted: list[XNode | None] = [None] * len(self.docs)
        self._edit_count = 0
        if edits:
            self.edit()
        self.engine = Engine()
        local = LocalBackend(engine=self.engine)
        self.reference = _twig_outcome(self._session(local, None))
        if server is None:
            self.backend = local
        else:
            self.backend = RemoteBackend(*server.address, engine=self.engine)
            self.backend.warm_instances(self.docs)

    def edit(self) -> None:
        """One tracked edit per document: insert a small ``person`` under
        ``people`` and delete the one inserted before, so sizes stay level.
        The person has no ``name``, so the candidate pool is unchanged."""
        self._edit_count += 1
        for i, doc in enumerate(self.docs):
            people = next(c for c in doc.root.children
                          if c.label == "people")
            person = XNode("person")
            person.add(XNode("@id", text=f"edit{self._edit_count}"))
            person.add(XNode("emailaddress", text="mailto:edit@example.org"))
            doc.insert_subtree(people, person)
            if self._inserted[i] is not None:
                doc.delete_subtree(self._inserted[i])
            self._inserted[i] = person

    def _session(self, backend, clock: QuestionClock | None):
        session = InteractiveTwigSession(
            self.docs, self.goal, label_filter=TWIG["label_filter"],
            max_pool=TWIG["pool"], backend=backend)
        if clock is not None:
            session.oracle = _TimedOracle(session.oracle, clock)
        return session.run()

    def prepare(self) -> None:
        """Untimed work before each session: the edits, if any."""
        if self.edits:
            self.edit()

    def session(self, clock: QuestionClock) -> tuple:
        clock.start()
        return _twig_outcome(self._session(self.backend, clock))

    def questions(self) -> int:
        return self.reference[2]

    def implied_labels(self) -> int:
        return self.reference[3] + self.reference[4]


class PathJoinCorpus(Corpus):
    """A geo graph and a join instance; one unit is a path session then a
    join session, on one ``LocalBackend``."""

    goal = PathQuery.parse(PATH["goal"])

    def __init__(self, seed: int, k: int) -> None:
        self.graph = make_geo_graph(rng=derive_seed("geo", seed, k))
        self.instance = make_join_instance(
            left_rows=JOIN["rows"], right_rows=JOIN["rows"],
            rng=derive_seed("join", seed, k))
        self.pool_seed = derive_seed("join-pool", seed, k)
        self.engine = Engine()
        self.backend = LocalBackend(engine=self.engine)
        self.reference = self.session(QuestionClock())

    def session(self, clock: QuestionClock) -> tuple:
        backend = self.backend
        goal = self.goal
        # The path session asks its user through ``backend.accepts`` with
        # the goal itself; the traced run may already have wrapped it.
        wrapped = "accepts" in vars(backend)
        plain_accepts = backend.accepts

        def accepts(query, word):
            if query is goal:
                clock.asked()
                try:
                    return plain_accepts(query, word)
                finally:
                    clock.answered()
            return plain_accepts(query, word)

        backend.accepts = accepts
        try:
            clock.start()
            path = InteractivePathSession(
                self.graph, PATH["source"], PATH["target"], goal,
                max_length=PATH["max_length"],
                max_candidates=PATH["candidates"], backend=backend).run()
        finally:
            if wrapped:
                backend.accepts = plain_accepts
            else:
                del backend.accepts
        clock.start()
        inst = self.instance
        join = InteractiveJoinSession(
            inst.left, inst.right, inst.goal,
            strategy=_TimedLattice(clock), max_pool=JOIN["pool"],
            rng=self.pool_seed, backend=backend).run()
        p, j = path.stats, join.stats
        return (path.query, tuple(p.asked), p.questions, p.implied_positive,
                p.implied_negative, join.predicate, tuple(j.asked),
                j.questions, j.implied_positive, j.implied_negative)

    def questions(self) -> int:
        return self.reference[2] + self.reference[7]

    def implied_labels(self) -> int:
        r = self.reference
        return r[3] + r[4] + r[8] + r[9]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A named workload: a server if it needs one, and its corpora."""

    def __init__(self, name: str, why: str, *, remote: bool = False,
                 edits: bool = False, pathjoin: bool = False) -> None:
        self.name = name
        self.why = why
        self.corpora = CORPORA[name]
        self.remote = remote
        self.edits = edits
        self.pathjoin = pathjoin
        self.server: ServerThread | None = None
        self.server_engine: Engine | None = None
        self.server_executor: SerialExecutor | None = None

    def start(self) -> None:
        if self.remote:
            self.server_engine = Engine()
            self.server_executor = SerialExecutor()
            self.server = ServerThread(
                AsyncBatchEvaluator(engine=self.server_engine,
                                    executor=self.server_executor),
                max_inflight_shards=SERVER_INFLIGHT_SHARDS)

    def corpus(self, seed: int, k: int) -> Corpus:
        if self.pathjoin:
            return PathJoinCorpus(seed, k)
        return TwigCorpus(seed, k, server=self.server, edits=self.edits)

    def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def parameters(self, seed: int) -> dict:
        params: dict = {"seed": seed, "corpora": self.corpora,
                        "clients": 1, "loop": "closed"}
        if self.pathjoin:
            params.update(path=PATH, join=JOIN, backend="LocalBackend")
        else:
            params.update(TWIG,
                          backend="RemoteBackend" if self.remote
                          else "LocalBackend",
                          edits_per_session=TWIG["docs"] if self.edits else 0)
            if self.remote:
                params["server"] = {
                    "executor": "serial",
                    "max_inflight_shards": SERVER_INFLIGHT_SHARDS}
        return params


WORKLOADS = {w.name: w for w in (
    Workload("twig-local",
             "twig sessions on a warm LocalBackend: the learner does the "
             "work and serving none"),
    Workload("twig-remote",
             "the same twig sessions over loopback to an in-process "
             "server: learner plus wire, gate, store and server evaluation",
             remote=True),
    Workload("twig-edit-remote",
             "twig-remote plus one tracked edit per document before each "
             "session: deltas, patching and cache invalidation",
             remote=True, edits=True),
    Workload("pathjoin-local",
             "a path session then a join session on LocalBackend: the "
             "control where twig and serving do no work",
             pathjoin=True),
)}
