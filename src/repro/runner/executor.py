"""Scenario executor: one in-process path, one parallel path.

``execute()`` runs independent scenario cells in-process (``jobs == 1``)
or through the persistent warm worker pool of :mod:`repro.runner.pool`
(``jobs > 1``), consulting an optional
:class:`~repro.runner.cache.ResultCache` either way. Design points the
tests pin down:

* **Deterministic results.** A cell's payload is a pure function of its
  scenario; the executor never lets completion order leak into results
  (they are keyed by scenario digest, and renderers iterate the
  scenario list). In-process and pooled execution are byte-identical;
  ``jobs == 1`` is the determinism reference and the way to run without
  worker processes at all.
* **No wedged runs.** A raising cell, a worker that dies and a worker
  killed after ``timeout_s`` each surface as a :class:`CellFailure`
  carrying the full scenario spec, and
  :meth:`ExecutionReport.raise_on_failure` turns them into a non-zero
  exit instead of a deadlocked run. A dead or hung pool worker fails
  only its in-flight cell and is replaced.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.cells import run_cell
from repro.runner.scenario import Scenario

__all__ = [
    "CellFailure",
    "ExecutionReport",
    "ScenarioError",
    "execute",
]


@dataclass
class CellFailure:
    """One scenario that did not produce a payload."""

    scenario: Scenario
    kind: str  # "exception" | "crash" | "timeout"
    message: str
    detail: str = ""

    def describe(self) -> str:
        spec = json.dumps(self.scenario.spec(), sort_keys=True)
        return f"[{self.kind}] {self.scenario.describe()}: {self.message}\n  spec: {spec}"


class ScenarioError(RuntimeError):
    """Raised when one or more cells failed; carries every failure."""

    def __init__(self, failures: List[CellFailure]):
        self.failures = failures
        super().__init__(
            f"{len(failures)} scenario cell(s) failed:\n"
            + "\n".join(f.describe() for f in failures)
        )


@dataclass
class ExecutionReport:
    """Results and accounting of one ``execute()`` call."""

    results: Dict[str, Any] = field(default_factory=dict)  # digest -> payload
    failures: List[CellFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    wall_s: float = 0.0
    jobs: int = 1

    def payload(self, scenario: Scenario) -> Any:
        return self.results[scenario.digest()]

    def raise_on_failure(self) -> None:
        if self.failures:
            raise ScenarioError(self.failures)

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} cells",
            f"{self.executed} executed",
            f"{self.cache_hits} cache hits",
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        parts.append(f"jobs={self.jobs}")
        parts.append(f"{self.wall_s:.1f}s")
        return ", ".join(parts)


def _json_roundtrip(payload: Any) -> Any:
    """Normalize an in-process payload exactly as the cache/pipe would.

    Guarantees ``--jobs 1`` results are byte-identical to worker/cached
    results even for payloads with non-JSON niceties (tuples -> lists).
    """
    return json.loads(json.dumps(payload))


def execute(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache=None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ExecutionReport:
    """Run every scenario; returns payloads keyed by scenario digest.

    Duplicate scenarios (same digest) are executed once. With ``cache``
    set, hits skip execution and fresh results are stored. ``jobs == 1``
    executes in-process (the determinism reference); ``jobs > 1`` runs
    at most ``jobs`` cells concurrently through the persistent warm
    worker pool, each subject to ``timeout_s``.
    """
    started = time.perf_counter()
    report = ExecutionReport(jobs=jobs)
    say = progress or (lambda _msg: None)

    # Cache pass + dedup, preserving first-seen order.
    to_run: List[Scenario] = []
    seen = set()
    for scenario in scenarios:
        digest = scenario.digest()
        if digest in seen or digest in report.results:
            continue
        if cache is not None:
            entry = cache.get(scenario)
            if entry is not None:
                report.results[digest] = entry["payload"]
                report.cache_hits += 1
                say(f"cache hit  {scenario.describe()}")
                continue
            report.cache_misses += 1
        seen.add(digest)
        to_run.append(scenario)

    if jobs <= 1:
        _run_serial(to_run, cache, report, say)
    else:
        from repro.runner.pool import run_pooled

        run_pooled(to_run, jobs, cache, timeout_s, report, say)

    report.wall_s = time.perf_counter() - started
    return report


def _run_serial(to_run, cache, report, say) -> None:
    for scenario in to_run:
        say(f"run        {scenario.describe()}")
        cell_started = time.perf_counter()
        try:
            payload = _json_roundtrip(run_cell(scenario))
        except Exception as exc:
            report.failures.append(
                CellFailure(
                    scenario,
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
            continue
        elapsed = time.perf_counter() - cell_started
        report.results[scenario.digest()] = payload
        report.executed += 1
        if cache is not None:
            cache.put(scenario, payload, elapsed)
