"""Session benchmark: whole interactive learning sessions, end to end.

Run from the repository root::

    python3 sessionbench/run.py --workload twig-local --seed 1 \
        --seconds 10 --trace 0

Each workload is a closed loop with one client: one session at a time,
the next one starting when the last has finished.  ``--trace 0`` times
sessions and prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced, and prints the per-layer metrics.  Every
session's learned query and question sequence must match the reference a
``LocalBackend`` run recorded at set-up; a mismatch fails the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
run (commit, interpreter, cores, time, workload parameters).  See
``README.md`` beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import sysconfig
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("twig-local", "twig-remote", "twig-edit-remote",
                  "pathjoin-local")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Run stamp
# ----------------------------------------------------------------------
def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` in ``root`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(root: Path, workload, args: argparse.Namespace) -> dict:
    gil_disabled = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "build": "free-threaded" if gil_disabled else "GIL",
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workload.parameters(args.seed),
    }


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
#: Median time of :func:`speed_probe` on the reference machine (2 vCPUs at
#: 2.1 GHz, CPython 3.11.7).  Reported times are scaled to that speed.
PROBE_REFERENCE_MS = 3.0


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    On a shared 2-vCPU virtual machine the same code runs 15-30% slower
    in some stretches than in others, for seconds to minutes at a time.
    The probe runs before every session and every corpus set-up,
    outside their timing; each of those times is multiplied by
    ``PROBE_REFERENCE_MS`` over the median of the probes taken around it
    (:func:`speed_factors`).  The probe is the benchmark's own code, so a
    change to the program moves the sessions but not the probe.
    """
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


#: Probes on each side of a measurement that calibrate it.
PROBE_WINDOW = 3


def speed_factors(probes: list[float]) -> list[float]:
    """Per measurement, the multiplier to the reference speed: the
    reference over the median probe within ``PROBE_WINDOW`` of it."""
    return [PROBE_REFERENCE_MS / (statistics.median(
        probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]) * 1e3)
        for i in range(len(probes))]


# ----------------------------------------------------------------------
# Timed loop
# ----------------------------------------------------------------------
class Phase:
    """Sessions of one phase, in order: corpus, time, probe and question
    waits; and how many failed."""

    def __init__(self, n_corpora: int) -> None:
        self.n_corpora = n_corpora
        self.sessions: list[tuple[int, float, float, list[float]]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.sessions)

    def _calibrated(self) -> list[tuple[int, float, list[float]]]:
        """``(corpus, seconds, waits)`` per session at the reference speed."""
        factors = speed_factors([probe for _, _, probe, _ in self.sessions])
        return [(k, seconds * f, [w * f for w in waits])
                for (k, seconds, _, waits), f in zip(self.sessions, factors)]

    @property
    def factor(self) -> float:
        """The phase's median multiplier to the reference speed."""
        return statistics.median(
            speed_factors([probe for _, _, probe, _ in self.sessions]))

    def session_ms_p50(self, corpora=None) -> float:
        """Median session time of each corpus, averaged over corpora.

        The mean over corpora evens out how much the seed's inputs cost;
        the median within a corpus drops the odd slow session."""
        wanted = set(range(self.n_corpora) if corpora is None else corpora)
        by_corpus: dict[int, list[float]] = {}
        for k, seconds, _ in self._calibrated():
            if k in wanted:
                by_corpus.setdefault(k, []).append(seconds)
        return statistics.fmean(
            statistics.median(times) for times in by_corpus.values()) * 1e3

    def sessions_per_s(self) -> float:
        """Closed-loop throughput: sessions over the time spent in them."""
        return self.attempted / sum(s for _, s, _ in self._calibrated())

    def question_ms(self, q: int) -> float:
        """The ``q``-th percentile of each corpus's question waits,
        averaged over corpora (as for :meth:`session_ms_p50`)."""
        by_corpus: dict[int, list[float]] = {}
        for k, _, waits in self._calibrated():
            by_corpus.setdefault(k, []).extend(waits)
        return statistics.fmean(quantile(waits, q) for waits
                                in by_corpus.values() if waits) * 1e3

    def questions(self) -> int:
        return sum(len(waits) for _, _, _, waits in self.sessions)

    def covered(self) -> set[int]:
        return {k for k, _, _, _ in self.sessions}


def run_phase(corpora, seconds: float, *, full_round: bool,
              hooks=None) -> Phase:
    """Round-robin sessions over ``corpora`` for ``seconds``.

    With ``full_round`` every corpus runs at least once, however long that
    takes; otherwise at least one session runs.  ``hooks`` (the traced
    run) is called before and after each session, outside its timing.
    """
    from workloads import QuestionClock

    phase = Phase(len(corpora))
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    rounds = 0
    while True:
        corpus = corpora[k]
        corpus.prepare()
        clock = QuestionClock()
        probe = speed_probe()
        if hooks is not None:
            hooks.before(corpus, clock)
        t0 = time.perf_counter()
        try:
            outcome = corpus.session(clock)
            ok = corpus.matches(outcome)
            if not ok:
                print(f"session on corpus {k} does not match its "
                      "reference", file=sys.stderr)
        except Exception:  # noqa: BLE001 - a failed session is counted
            traceback.print_exc()
            ok = False
        phase.sessions.append((k, time.perf_counter() - t0, probe,
                               clock.samples))
        if hooks is not None:
            hooks.after(corpus)
        phase.failed += not ok
        k += 1
        if k == len(corpora):
            k = 0
            rounds += 1
        if (rounds or not full_round) and time.perf_counter() >= deadline:
            break
    return phase


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"sessionbench: no program source at {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_stamp = stamp(root, workload, args)
    workload.start()
    corpora = []
    setup_s = []
    setup_probes = []
    try:
        for k in range(workload.corpora):
            setup_probes.append(speed_probe())
            t0 = time.perf_counter()
            corpora.append(workload.corpus(args.seed, k))
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        if args.trace:
            import layers

            half = args.seconds / 2
            plain = run_phase(corpora, half, full_round=False)
            traced = layers.traced_phase(workload, corpora, half, run_phase)
            phases = [plain, traced.phase]
        else:
            plain = run_phase(corpora, args.seconds, full_round=True)
            phases = [plain]
    finally:
        for corpus in corpora:
            corpus.close()
        workload.stop()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0
    if args.trace:
        metrics, problems = traced.metrics(plain, attempted, failed)
        metrics["learning.question_ms_p50"] = metric(plain.question_ms(50),
                                                     "ms")
        metrics["learning.question_samples"] = metric(plain.questions(),
                                                      "count")
        for problem in problems:
            print(f"trace check failed: {problem}", file=sys.stderr)
        correct = correct and not problems
    else:
        setup_cal = [t * f for t, f in zip(setup_s,
                                            speed_factors(setup_probes))]
        metrics = {
            "setup_s": metric(statistics.median(setup_cal), "s"),
            "session_ms_p50": metric(plain.session_ms_p50(), "ms"),
            "sessions_per_s": metric(plain.sessions_per_s(), "1/s"),
            "question_ms_p90": metric(plain.question_ms(90), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        run_stamp["samples"] = {"sessions": plain.attempted,
                                "questions": plain.questions(),
                                "setups": len(setup_s)}
        session_probes = [probe for _, _, probe, _ in plain.sessions]
        run_stamp["speed"] = {
            "probe_reference_ms": PROBE_REFERENCE_MS,
            "setup_probe_ms": statistics.median(setup_probes) * 1e3,
            "session_probe_ms": statistics.median(session_probes) * 1e3,
            "uncalibrated": {
                "setup_s": statistics.median(setup_s),
                "session_ms_p50": statistics.fmean(statistics.median(
                    [s for k, s, _, _ in plain.sessions if k == c])
                    for c in plain.covered()) * 1e3}}
    for name, m in metrics.items():
        print(f"{workload.name:17s} {name:32s} {m['value']:12.4f} "
              f"{m['unit']}", file=sys.stderr)
    print(json.dumps({"stamp": run_stamp}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
