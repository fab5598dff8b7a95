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


def cell_soak(
    seed: int = 3,
    ops_per_actor: int = 40,
    key_count: int = 8,
    quiesce_ms: float = 30000.0,
) -> Dict[str, Any]:
    """The lossy-WAN gray-failure soak as one scenario cell.

    A reduced form of ``tests/test_lossy_soak.py``: ambient loss and
    duplication on every WAN link, the full nemesis fault mix, retrying
    clients at all three sites. The payload reports the four global
    invariants (replica convergence, token exclusivity, per-key
    linearizability, no-double-apply) as data instead of asserting, so
    a soak cell rides the same executor/cache as the figure cells.
    """
    import random

    from repro.consistency import (
        HistoryRecorder,
        check_linearizable_per_key,
    )
    from repro.net import (
        CALIFORNIA,
        FRANKFURT,
        VIRGINIA,
        LinkProfile,
        Network,
        wan_topology,
    )
    from repro.nemesis import Nemesis, NemesisConfig
    from repro.sim import Environment, seeded_rng
    from repro.wankeeper import build_wankeeper_deployment
    from repro.zk import ConnectionLossError, SessionExpiredError

    sites = (VIRGINIA, CALIFORNIA, FRANKFURT)
    keys = [f"/soak/k{i}" for i in range(key_count)]

    env = Environment()
    topo = wan_topology(jitter_fraction=0.1)
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    import itertools

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
    history = HistoryRecorder()
    counter = {"next": 0}
    failures = {"count": 0}
    ops = {"write": 0, "read": 0}
    indeterminate = set()

    def site_client(site):
        client = deployment.client(
            site, session_timeout_ms=30000.0, request_timeout_ms=3000.0
        )
        leader = deployment.site_leader(site)
        if leader is not None and leader.is_alive:
            client.server_addr = leader.client_addr
        return client

    def actor(site, rng):
        client = site_client(site)
        yield client.connect_retrying(max_retries=10)
        for _ in range(ops_per_actor):
            key = rng.choice(keys)
            is_write = rng.random() < 0.6
            start = env.now
            try:
                if is_write:
                    counter["next"] += 1
                    value = counter["next"]
                    yield client.set_data_retrying(
                        key, str(value).encode(), max_retries=10
                    )
                    history.record(site, "write", key, value, start, env.now)
                    ops["write"] += 1
                else:
                    data, _stat = yield client.get_data_retrying(
                        key, max_retries=10
                    )
                    history.record(
                        site,
                        "read",
                        key,
                        int(data) if data else None,
                        start,
                        env.now,
                    )
                    ops["read"] += 1
            except (ConnectionLossError, SessionExpiredError) as exc:
                failures["count"] += 1
                if is_write:
                    indeterminate.add(key)
                if isinstance(exc, SessionExpiredError):
                    client = site_client(site)
                    yield client.connect_retrying(max_retries=10)
            yield env.timeout(rng.uniform(100.0, 600.0))

    def app():
        setup = deployment.client(VIRGINIA)
        yield setup.connect()
        yield setup.create("/soak", b"")
        for key in keys:
            yield setup.create(key, b"")
        yield env.timeout(1000.0)
        nemesis.start()
        procs = [
            env.process(actor(site, random.Random(seed * 1000 + i)))
            for i, site in enumerate(sites)
        ]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        net.restore_all()
        net.heal_all()
        yield env.timeout(quiesce_ms)
        return True

    process = env.process(app())
    deadline = env.now + 3.6e6
    while (
        not process.triggered
        and env.now < deadline
        and env.peek() != float("inf")
    ):
        env.run(until=min(deadline, env.now + 5000.0))
    if not process.triggered:
        raise RuntimeError("soak did not finish within the sim-time budget")
    if not process.ok:
        raise process.exception

    # Invariants, reported as data.
    fingerprints = set(deployment.content_fingerprints().values())
    owners = {}
    for site in sites:
        leader = deployment.site_leader(site)
        for key in leader.site_tokens.owned:
            owners.setdefault(key, []).append(site)
    token_conflicts = sum(1 for held in owners.values() if len(held) > 1)

    checkable = [key for key in keys if key not in indeterminate]
    tree = deployment.servers[0].tree
    now = env.now
    for key in checkable:
        data, _stat = tree.get_data(key)
        history.record(
            "final-check", "read", key, int(data) if data else None, now, now + 1.0
        )
    lin_ops = [
        op
        for op in history.operations
        if op.key in checkable
        and (op.kind == "write" or op.client == "final-check")
    ]
    violations = check_linearizable_per_key(lin_ops, initial=None)
    max_apply = max(
        max(server.apply_counts.values(), default=0)
        for server in deployment.servers
    )
    return {
        "seed": seed,
        "writes": ops["write"],
        "reads": ops["read"],
        "failures": failures["count"],
        "indeterminate_keys": len(indeterminate),
        "converged": len(fingerprints) == 1,
        "token_conflicts": token_conflicts,
        "linearizability_violations": len(violations),
        "max_apply_count": max_apply,
        # The faults and repairs; a draw its guard refused is no fault.
        "nemesis": {
            kind: count
            for kind, count in sorted(nemesis.summary().items())
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


def cell_fleet_topology(n_sites: int, seed: int = 42) -> Dict[str, Any]:
    """Fingerprint + shape stats of one generated fleet topology.

    Exists so the cross-executor determinism tests can push topology
    generation through the pool workers and compare fingerprints.
    """
    from repro.fleet import fleet_sites, fleet_topology, topology_fingerprint

    topology = fleet_topology(n_sites, seed=seed)
    sites = fleet_sites(n_sites, seed=seed)
    delays = [delay for _a, _b, delay in topology.wan_pairs()]
    return {
        "n_sites": n_sites,
        "seed": seed,
        "fingerprint": topology_fingerprint(topology),
        "continents": len({site.continent for site in sites}),
        "pairs": len(delays),
        "min_one_way_ms": min(delays),
        "max_one_way_ms": max(delays),
    }


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
    "fleet_topology": cell_fleet_topology,
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
