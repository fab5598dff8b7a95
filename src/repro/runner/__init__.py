"""Parallel scenario runner with content-addressed result caching.

The evaluation surface of the paper (fig4--fig10, the ablations, the
lossy soak) decomposes into dozens of *independent* seeded simulation
cells. This package turns each cell into a declarative
:class:`~repro.runner.scenario.Scenario` spec, fans the cells across
worker processes (:mod:`repro.runner.executor`), and memoizes their
JSON-plain result payloads in an on-disk content-addressed cache keyed
by (scenario digest, code digest) (:mod:`repro.runner.cache`) — so a
warm re-run of ``repro experiments --all`` is near-instant and only
changed cells are ever re-simulated.

Determinism contract: a scenario's payload is a pure function of its
spec and the code digest. The executor preserves bit-identical payloads
whether a cell runs in-process (``--jobs 1``) or in a pool worker, and
renderers order output by the suite's grid, never by completion order —
parallel runs print byte-identical tables.
"""

from repro.runner.cache import ResultCache, code_digest, default_cache_dir
from repro.runner.executor import CellFailure, ExecutionReport, ScenarioError, execute
from repro.runner.pool import WorkerPool, get_pool, pool_key, shutdown_pool
from repro.runner.scenario import Scenario
from repro.runner.suites import SUITES, build_suite, render_suite

__all__ = [
    "CellFailure",
    "ExecutionReport",
    "ResultCache",
    "SUITES",
    "Scenario",
    "ScenarioError",
    "WorkerPool",
    "build_suite",
    "code_digest",
    "default_cache_dir",
    "execute",
    "get_pool",
    "pool_key",
    "render_suite",
    "shutdown_pool",
]
