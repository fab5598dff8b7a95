"""The registry of scenario cell functions.

Every cell is a pure function ``params -> JSON-plain payload``: it builds
a fresh seeded simulation, drives it to completion, and returns only
scalars/lists/dicts. That contract is what makes cells safely executable
in worker processes (payloads cross a pipe), cacheable on disk (payloads
round-trip ``json.dumps``/``loads`` bit-exactly), and comparable for the
determinism guard (in-process and worker runs must produce equal
payloads).

The figure and ablation cells are the ``run_*_cell`` functions of
:mod:`repro.experiments` themselves, registered here by name; the soak,
fleet, fuzz and debug cells are defined below. No cell formats output —
rendering lives in :mod:`repro.runner.suites`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.experiments.ablations import (
    run_bulk_token_cell,
    run_hub_placement_cell,
    run_prediction_cell,
    run_read_mode_cell,
    run_threshold_cell,
)
from repro.experiments.fig4 import run_write_ratio_cell
from repro.experiments.fig6 import run_fig6_cell
from repro.experiments.fig7 import run_fig7_cell
from repro.experiments.fig8 import run_fig8_cell
from repro.experiments.fig10 import run_fig10_cell

__all__ = ["CELLS", "run_cell"]


# -- lossy soak ---------------------------------------------------------------

#: The soak clients' request timeout (ms).
SOAK_REQUEST_TIMEOUT_MS = 3000.0


def lossy_soak(seed: int, ops_per_actor: int, key_count: int, quiesce_ms: float):
    """The lossy-WAN gray-failure soak; returns its
    :class:`repro.soak.SoakRun`.

    Three sites with 10% latency jitter, ambient 2% loss and 2%
    duplication on every WAN link, the random nemesis drawing the full
    fault mix every second, and one retrying client per site.
    """
    import itertools
    import math
    import random

    from repro.nemesis import Nemesis, NemesisConfig
    from repro.net import (
        CALIFORNIA,
        FRANKFURT,
        VIRGINIA,
        LinkProfile,
        Network,
        wan_topology,
    )
    from repro.sim import Environment, seeded_rng
    from repro.soak import run_soak
    from repro.wankeeper import build_wankeeper_deployment

    sites = (VIRGINIA, CALIFORNIA, FRANKFURT)
    env = Environment()
    topo = wan_topology(jitter_fraction=0.1)
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    ambient = LinkProfile(loss=0.02, duplicate=0.02)
    for site_a, site_b in itertools.combinations(sites, 2):
        net.degrade(site_a, site_b, ambient)
    nemesis = Nemesis(
        env,
        net,
        deployment,
        seeded_rng(seed, "nemesis"),
        NemesisConfig(
            interval_ms=1000.0,
            crash_probability=0.2,
            partition_probability=0.1,
            flaky_link_probability=0.15,
            oneway_partition_probability=0.15,
            gray_degrade_probability=0.15,
            repair_after_ms=2500.0,
        ),
    )
    return run_soak(
        deployment, nemesis, [f"/soak/k{i}" for i in range(key_count)],
        [(site, random.Random(seed * 1000 + i)) for i, site in enumerate(sites)],
        ops_per_actor=ops_per_actor, duration_ms=math.inf, max_retries=10,
        request_timeout_ms=SOAK_REQUEST_TIMEOUT_MS, write_fraction=0.6,
        pace_ms=(100.0, 600.0), settle_ms=1000.0, quiesce_ms=quiesce_ms,
        horizon_ms=3.6e6,
    )


def cell_soak(
    seed: int = 3,
    ops_per_actor: int = 40,
    key_count: int = 8,
    quiesce_ms: float = 30000.0,
) -> Dict[str, Any]:
    """The lossy-WAN gray-failure soak (:func:`lossy_soak`) as one
    scenario cell. The payload reports the four global invariants (replica
    convergence, token exclusivity, per-key linearizability,
    no-double-apply) as data instead of asserting, so a soak cell rides the
    same executor/cache as the figure cells; a violation or a hang raises.
    """
    run = lossy_soak(seed, ops_per_actor, key_count, quiesce_ms)
    if run.violation is not None:
        raise run.violation
    if not run.finished:
        raise RuntimeError("soak did not finish within the sim-time budget")
    return {
        "seed": seed,
        "writes": run.writes,
        "reads": run.reads,
        "failures": run.failures,
        "indeterminate_keys": len(run.indeterminate),
        "converged": run.converged,
        "token_conflicts": len(run.token_conflicts),
        "linearizability_violations": len(run.linearizability_violations),
        "max_apply_count": run.max_apply_count,
        # The faults and repairs; a draw its guard refused is no fault.
        "nemesis": {
            kind: count
            for kind, count in sorted(run.nemesis.summary().items())
            if kind != "skip"
        },
    }


# -- fleet-scale cells --------------------------------------------------------


def cell_fleet_full(**kwargs) -> Dict[str, Any]:
    """One full-stack fleet cell (:mod:`repro.fleet.full`).

    The open-loop fleet driver injects its ops into a *real*
    ZK/WanKeeper deployment; parameters are
    :class:`repro.fleet.FleetFullSpec` fields (all JSON scalars), and
    the payload is a pure function of them.
    """
    from repro.fleet import FleetFullSpec, run_fleet_full

    return run_fleet_full(FleetFullSpec(**kwargs))


# -- fuzz cells ---------------------------------------------------------------


def cell_fuzz_case(spec_json: str) -> Dict[str, Any]:
    """One fuzz case (:mod:`repro.fuzz`).

    The declarative case spec travels as its compact canonical JSON string
    so it satisfies the flat-scalar scenario-parameter contract; the cell
    digest is therefore a digest of the spec itself.
    """
    import json

    from repro.fuzz.case import run_fuzz_case

    return run_fuzz_case(json.loads(spec_json))


# -- debug cells (exercised by the runner's own tests) ------------------------


def cell_debug_echo(value: int = 0, sleep_s: float = 0.0) -> Dict[str, Any]:
    """Trivial cell: optionally sleeps (wall clock), then echoes."""
    if sleep_s:
        import time

        time.sleep(sleep_s)
    return {"value": value}


def cell_debug_crash(message: str = "boom") -> Dict[str, Any]:
    """Cell that always raises — exercises failure surfacing."""
    raise RuntimeError(message)


def cell_debug_hang() -> Dict[str, Any]:
    """Cell that never returns — exercises the per-cell timeout."""
    import time

    while True:
        time.sleep(0.1)


def cell_debug_exit(code: int = 17) -> Dict[str, Any]:
    """Cell that kills its worker outright — exercises crash handling.

    ``os._exit`` skips the executor's exception reporting entirely, so the
    parent sees a worker death mid-cell, exactly like a segfault or OOM
    kill would look.
    """
    import os

    os._exit(code)


def cell_debug_quit(message: str = "quitting") -> Dict[str, Any]:
    """Cell that raises ``SystemExit`` — exercises ack-then-die.

    The pool worker's ``BaseException`` path reports the error over the
    pipe and then re-raises, so the worker dies *between* cells: the
    parent must fail only this cell and requeue the rest of the batch,
    not blame the never-started successor.
    """
    raise SystemExit(message)


def cell_debug_pid(tag: int = 0) -> Dict[str, Any]:
    """Cell that reports its worker's pid — exercises warm-pool reuse.

    ``tag`` only differentiates scenario digests so repeated calls are
    distinct cells (and never collapse into one cache entry).
    """
    import os

    return {"tag": tag, "pid": os.getpid()}


CELLS: Dict[str, Callable[..., Any]] = {
    "ycsb_write_ratio": run_write_ratio_cell,
    "fig6": run_fig6_cell,
    "fig7": run_fig7_cell,
    "fig8": run_fig8_cell,
    "fig10": run_fig10_cell,
    "ablation_threshold": run_threshold_cell,
    "ablation_prediction": run_prediction_cell,
    "ablation_bulk_tokens": run_bulk_token_cell,
    "ablation_read_mode": run_read_mode_cell,
    "ablation_hub_placement": run_hub_placement_cell,
    "soak": cell_soak,
    "fleet_full": cell_fleet_full,
    "fuzz_case": cell_fuzz_case,
    "debug_echo": cell_debug_echo,
    "debug_crash": cell_debug_crash,
    "debug_hang": cell_debug_hang,
    "debug_exit": cell_debug_exit,
    "debug_pid": cell_debug_pid,
    "debug_quit": cell_debug_quit,
}


def run_cell(scenario) -> Any:
    """Execute ``scenario``'s cell function with its parameters."""
    try:
        fn = CELLS[scenario.cell]
    except KeyError:
        raise KeyError(
            f"unknown cell {scenario.cell!r}; registered: {sorted(CELLS)}"
        ) from None
    return fn(**scenario.kwargs)
