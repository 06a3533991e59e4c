"""Benchmark harness plumbing.

Every benchmark module reproduces one experiment from DESIGN.md's index and
registers a human-readable table via :func:`record_report`; the tables are
printed in the terminal summary (so they appear under
``pytest benchmarks/ --benchmark-only`` without ``-s``) and also written to
``benchmarks/results/<exp>.txt`` for the record.

Every report additionally lands in a machine-readable
``benchmarks/results/BENCH_<exp>.json`` — one file per experiment,
holding each report's table text plus whatever structured ``metrics``
dict the benchmark passed.  CI uploads the JSON files as artifacts, so
the perf trajectory is a download, not an archaeology dig through logs.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable
from pathlib import Path

#: Interleaved trials behind each timing gate that reads a median: one
#: single-shot loop on a busy machine moves a ratio by tens of percent
#: for the same code.
TRIALS = 5

_REPORTS: list[tuple[str, str, dict]] = []
_RESULTS_DIR = Path(__file__).parent / "results"


def _exp_stem(exp_id: str) -> str:
    return exp_id.split(" ")[0].lower()


def record_report(exp_id: str, text: str,
                  metrics: dict | None = None) -> None:
    """Register an experiment table for the terminal summary + results dir.

    ``metrics`` is an optional flat JSON-able dict of the numbers behind
    the table (timings, speedups, byte counts); it is carried into the
    experiment's ``BENCH_<exp>.json`` verbatim.
    """
    _REPORTS.append((exp_id, text, dict(metrics or {})))
    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"{_exp_stem(exp_id)}.txt"
    with path.open("a") as f:
        f.write(text + "\n\n")
    _write_json()


def _write_json() -> None:
    """(Re)write one ``BENCH_<exp>.json`` per experiment seen so far.

    Rewritten after every report rather than at session end, so an
    aborted run still leaves valid JSON for the reports that finished.
    """
    by_stem: dict[str, list[dict]] = {}
    for exp_id, text, metrics in _REPORTS:
        by_stem.setdefault(_exp_stem(exp_id), []).append(
            {"exp": exp_id, "table": text, "metrics": metrics})
    for stem, reports in by_stem.items():
        path = _RESULTS_DIR / f"BENCH_{stem}.json"
        path.write_text(json.dumps({"benchmark": stem, "reports": reports},
                                   indent=2, sort_keys=True) + "\n")


def pytest_sessionstart(session):
    # Fresh text tables per run.  BENCH_*.json files are NOT cleared:
    # each is rewritten whole when its experiment re-records, and CI
    # runs one pytest session per bench module — clearing here would
    # wipe the previous steps' artifacts before the upload.
    if _RESULTS_DIR.exists():
        for old in _RESULTS_DIR.glob("*.txt"):
            old.unlink()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction reports")
    for exp_id, text, _metrics in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", exp_id)
        for line in text.splitlines():
            terminalreporter.write_line(line)


def per_call(fn: Callable[[], object], rounds: int) -> float:
    """Seconds per call of ``fn``, over ``rounds`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def median_speedup(slow: Callable[[], object], fast: Callable[[], object],
                   rounds: int) -> tuple[float, float, float]:
    """``(slow s/call, fast s/call, slow/fast)``, each the median over
    :data:`TRIALS` interleaved trials of ``rounds`` slow then ``rounds``
    fast calls (the ratio is the median of the per-trial ratios)."""
    slow_times, fast_times, ratios = [], [], []
    for _ in range(TRIALS):
        slow_s, fast_s = per_call(slow, rounds), per_call(fast, rounds)
        slow_times.append(slow_s)
        fast_times.append(fast_s)
        ratios.append(slow_s / fast_s if fast_s else float("inf"))
    return (statistics.median(slow_times), statistics.median(fast_times),
            statistics.median(ratios))
