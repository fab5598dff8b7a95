"""The soak driver: a retrying multi-site workload under a nemesis.

The paper's fault-tolerance claim (§II-D: any leader or site may fail and
token ownership survives) is checked by one run shape: a caller builds a
started deployment and a nemesis, and :func:`run_soak` runs retrying
actors under it, repairs every fault, quiesces and runs the end-of-run
checks. Its callers are the lossy-WAN soak
(:func:`repro.runner.cells.lossy_soak`, run by the soak cell and by
``tests/test_lossy_soak.py``) and the fuzz case
(:func:`repro.fuzz.case.run_fuzz_case`).
"""

from __future__ import annotations

import itertools
import posixpath
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.consistency import HistoryRecorder, Operation, check_linearizable_per_key
from repro.invariants import InvariantViolation
from repro.zk.errors import SessionExpiredError, ZkError

__all__ = ["SoakRun", "drive", "run_soak"]

#: Sim time one ``env.run`` call of :func:`drive` advances at most.
STEP_MS = 1000.0
_INF = float("inf")


def drive(env, generator, horizon_ms: float):
    """Run ``generator`` as a process until it finishes, ``horizon_ms`` of
    sim time pass, or the kernel runs out of events; returns the process."""
    process = env.process(generator)
    deadline = env.now + horizon_ms
    while not process.triggered and env.now < deadline and env.peek() != _INF:
        env.run(until=min(deadline, env.now + STEP_MS))
    return process


@dataclass
class SoakRun:
    """What one soak leaves behind. ``finished`` is false for a run that
    missed its horizon (a deterministic hang); the check fields are set
    only for a finished run without a ``violation``."""

    deployment: Any
    nemesis: Any
    history: HistoryRecorder = field(default_factory=HistoryRecorder)
    indeterminate: Set[str] = field(default_factory=set)
    writes: int = 0
    reads: int = 0
    failures: int = 0
    finished: bool = False
    violation: Optional[InvariantViolation] = None
    converged: Optional[bool] = None
    token_conflicts: Optional[List[str]] = None  # keys with two owners
    linearizability_violations: Optional[List[str]] = None  # failing keys
    max_apply_count: Optional[int] = None


def run_soak(
    deployment, nemesis, keys: Sequence[str],
    actors: Sequence[Tuple[str, Any]], *,
    ops_per_actor: float, duration_ms: float, max_retries: int,
    request_timeout_ms: float, write_fraction: float,
    pace_ms: Tuple[float, float], settle_ms: float, quiesce_ms: float,
    horizon_ms: float,
) -> SoakRun:
    """Run the soak on a started, stabilized ``deployment`` of any stack.

    ``actors`` is one ``(site, rng)`` pair per actor; the setup client
    creating the keys and their parent sits at the first actor's site. An
    actor stops after ``ops_per_actor`` attempts or ``duration_ms`` after
    the nemesis starts (``math.inf`` leaves either unbounded), pausing
    ``rng.uniform(*pace_ms)`` between attempts. A key whose write failed
    is indeterminate (it may still have committed): the history of such a
    key is incomplete, so the linearizability check skips it.
    """
    env = deployment.env
    run = SoakRun(deployment, nemesis)
    values = itertools.count(1)

    def session(site):
        """A client of ``site`` with an open session, or ``None``."""
        client = deployment.client(
            site, session_timeout_ms=30000.0, request_timeout_ms=request_timeout_ms
        )
        # Bind to the site leader so retries exercise the leader-direct
        # routing path (the one the reply cache must make idempotent).
        leader = deployment.site_leader(site)
        if leader is not None and leader.is_alive:
            client.server_addr = leader.client_addr
        try:
            yield client.connect_retrying(max_retries=max_retries)
        except ZkError:
            run.failures += 1
            return None
        return client

    def actor(site, rng, end):
        client = yield from session(site)
        attempts = 0
        while client is not None and attempts < ops_per_actor and env.now < end:
            attempts += 1
            key = rng.choice(keys)
            is_write = rng.random() < write_fraction
            start = env.now
            try:
                if is_write:
                    value = next(values)
                    yield client.set_data_retrying(
                        key, str(value).encode(), max_retries=max_retries
                    )
                    run.writes += 1
                else:
                    data, _stat = yield client.get_data_retrying(
                        key, max_retries=max_retries
                    )
                    value = int(data) if data else None
                    run.reads += 1
                kind = "write" if is_write else "read"
                run.history.record(site, kind, key, value, start, env.now)
            except ZkError as exc:
                run.failures += 1
                if is_write:
                    run.indeterminate.add(key)
                if isinstance(exc, SessionExpiredError):
                    # The bound server was down long enough to expire the
                    # session: carry on with a fresh one, like a real client.
                    client = yield from session(site)
                    if client is None:
                        return
            yield env.timeout(rng.uniform(*pace_ms))

    def app():
        setup = deployment.client(actors[0][0])
        yield setup.connect()
        yield setup.create(posixpath.dirname(keys[0]), b"")
        for key in keys:
            yield setup.create(key, b"")
        yield env.timeout(settle_ms)
        nemesis.start()
        end = env.now + duration_ms
        procs = [env.process(actor(site, rng, end)) for site, rng in actors]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        deployment.net.restore_all()
        deployment.net.heal_all()
        yield env.timeout(quiesce_ms)

    # An invariant violation, online or at the final check, ends the run;
    # raised mid-callback, it leaves the sim poisoned. Any other exception
    # is a harness crash and propagates.
    try:
        process = drive(env, app(), horizon_ms)
        if not process.triggered:
            return run
        if not process.ok:
            raise process.exception
        run.finished = True
        # The end-of-run checks are only sound at quiesce, after repair.
        if deployment.sentinel is not None:
            deployment.sentinel.final_check()
    except InvariantViolation as exc:
        run.violation = exc
        return run
    run.converged = len(set(deployment.tree_fingerprints().values())) == 1
    run.token_conflicts = sorted(
        key for key, held in deployment.token_owners().items() if len(held) > 1
    )
    # Each checkable key's writes plus one final read of the value the
    # replicas converged on must admit a legal total order.
    tree = deployment.servers[0].tree
    checked = [
        op for op in run.history.operations
        if op.kind == "write" and op.key not in run.indeterminate
    ]
    for key in keys:
        if key not in run.indeterminate:
            data = tree.get_data(key)[0]
            value = int(data) if data else None
            checked.append(
                Operation("final-check", "read", key, value, env.now, env.now + 1.0)
            )
    run.linearizability_violations = check_linearizable_per_key(checked)
    run.max_apply_count = max(
        max(server.apply_counts.values(), default=0)
        for server in deployment.servers
    )
    return run
