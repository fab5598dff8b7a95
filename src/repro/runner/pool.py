"""Persistent warm worker pool: the scenario executor's parallel path.

A small fleet of **long-lived workers** — spawn-started once, importing
``repro`` once, then serving many cells each over a duplex pipe — so a
cell pays neither interpreter start-up nor the package import. Measured
on a 2-CPU box over the 67 ``--all`` cells: 1.8–1.9× the speed of
``--jobs 1`` (docs/PERFORMANCE.md, "Executor: in-process vs the warm
pool").

Design points:

* **Spawn-started, warm thereafter.** Workers use the ``spawn`` start
  method — identical across platforms, a pristine interpreter with no
  fork-inherited simulation state — and cells remain pure functions of
  their spec, so reuse cannot leak observable state between cells: the
  determinism tests run the same cell through ``--jobs 1`` and the pool
  and require byte-identical payloads.
* **Batched dispatch.** Small cells are grouped into one ``("run",
  [spec, ...])`` message so per-dispatch latency amortizes (fuzz
  campaigns push hundreds of sub-second cells through here). Workers
  stream one result message per cell, in batch order, so the parent
  always knows the single in-flight cell.
* **Failure isolation.** A worker that dies (crash, ``os._exit``, OOM)
  or exceeds the per-cell timeout fails only its *in-flight* cell; the
  rest of its batch is requeued and the worker is replaced. Workers
  mark each cell's start with a begin message, so a death *between*
  cells (previous cell acked, next never started) fails no cell at all
  — every undelivered spec is requeued. A raising cell is reported over
  the pipe and the worker keeps serving.
* **Source-digest invalidation.** The process-wide pool is keyed by the
  ``repro`` source digest plus the ``REPRO_*`` environment (the sentinel
  gate travels by environment into spawned workers); any change shuts
  the fleet down and starts fresh, so a warm pool can never serve cells
  with stale code.
"""

from __future__ import annotations

import atexit
import json
import os
import time
import traceback
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.runner.cache import code_digest
from repro.runner.scenario import Scenario

__all__ = [
    "WorkerPool",
    "default_batch_size",
    "get_pool",
    "pool_key",
    "run_pooled",
    "shutdown_pool",
]

_POLL_INTERVAL_S = 0.02
# Grace period for a terminated worker to die before escalating to kill.
_REAP_GRACE_S = 5.0
# A worker may die between dispatches (send fails / exits before acking
# anything); after this many consecutive no-progress respawns the run is
# aborted instead of looping.
_MAX_BARREN_RESPAWNS = 5
#: Upper bound on cells per dispatch message.
MAX_BATCH = 8

#: Modules imported eagerly at worker start-up so the first cell runs as
#: warm as the hundredth. ``repro.runner.cells`` brings every figure and
#: ablation module with it; the soak and fuzz cells import the rest
#: lazily inside their functions.
_PRELOAD_MODULES = (
    "repro.runner.cells",
    "repro.nemesis",
    "repro.consistency",
    "repro.fuzz.case",
)


def default_batch_size(cells: int, jobs: int) -> int:
    """Cells per dispatch: 1 for coarse work, larger for cell swarms.

    Figure cells run for seconds — per-cell dispatch costs microseconds,
    and one-at-a-time hand-out load-balances heterogeneous cells best.
    Only when the queue is much deeper than the fleet (fuzz campaigns,
    sweep grids) do batches grow, capped at :data:`MAX_BATCH`.
    """
    if jobs <= 0:
        return 1
    return max(1, min(MAX_BATCH, cells // (jobs * 8)))


# -- worker process ------------------------------------------------------------


def _pool_worker(conn) -> None:
    """Worker-process main loop: recv a batch, stream one result per cell.

    Messages in: ``("run", [spec_json, ...])`` or ``("exit",)``.
    Messages out, per cell, in batch order: ``("begin",)`` as the cell
    starts, then ``("ok", payload, elapsed_s)`` or ``("error", message,
    traceback_text)``. The begin marker lets the parent distinguish a
    death *during* a cell (that cell failed) from a death *between*
    cells (nothing was in flight — every unacked spec is requeued, none
    is falsely blamed).
    """
    import importlib

    for name in _PRELOAD_MODULES:
        try:
            importlib.import_module(name)
        except Exception:  # pragma: no cover - optional warm-up only
            pass
    from repro.runner.cells import run_cell

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not message or message[0] != "run":
                break
            for spec_json in message[1]:
                try:
                    conn.send(("begin",))
                except Exception:
                    # Parent gone; nothing left to report to.
                    return
                try:
                    scenario = Scenario.from_spec(json.loads(spec_json))
                    started = time.perf_counter()
                    payload = run_cell(scenario)
                    conn.send(("ok", payload, time.perf_counter() - started))
                except Exception as exc:
                    try:
                        conn.send(
                            (
                                "error",
                                f"{type(exc).__name__}: {exc}",
                                traceback.format_exc(),
                            )
                        )
                    except Exception:
                        # Cannot report (payload refused the pipe, parent
                        # gone): die so the parent sees a crash instead of
                        # a hang.
                        os._exit(70)
                except BaseException as exc:
                    # KeyboardInterrupt / SystemExit: report the in-flight
                    # cell, then let the worker die.
                    try:
                        conn.send(
                            (
                                "error",
                                f"{type(exc).__name__}: {exc}",
                                traceback.format_exc(),
                            )
                        )
                    finally:
                        raise
    finally:
        try:
            conn.close()
        except Exception:
            pass


# -- parent-side pool ----------------------------------------------------------


class PoolWorker:
    """Parent-side handle: process + pipe + in-flight batch bookkeeping."""

    __slots__ = ("proc", "conn", "assigned", "cell_started", "begun")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: Scenarios dispatched but not yet acked, in execution order;
        #: ``assigned[0]`` is the next cell the worker will run (and the
        #: in-flight cell once its begin marker arrives).
        self.assigned: Deque[Scenario] = deque()
        #: monotonic() when the in-flight cell started (dispatch time, or
        #: the previous cell's ack) — the per-cell timeout clock.
        self.cell_started = 0.0
        #: True between ``assigned[0]``'s begin marker and its result: a
        #: worker death with ``begun`` unset happened *between* cells, so
        #: no cell is blamed and everything assigned is requeued.
        self.begun = False

    def dispatch(self, batch: List[Scenario]) -> None:
        self.conn.send(("run", [json.dumps(s.spec()) for s in batch]))
        self.assigned = deque(batch)
        self.cell_started = time.monotonic()
        self.begun = False


class WorkerPool:
    """A fleet of persistent spawn workers, keyed by source digest."""

    def __init__(self, key: Tuple[Any, ...]):
        import multiprocessing

        self.key = key
        self._ctx = multiprocessing.get_context("spawn")
        self.workers: List[PoolWorker] = []
        #: Total workers ever started (respawns included) — test hook.
        self.spawned_total = 0
        #: Workers replaced after a crash/timeout — test hook.
        self.respawns = 0

    def _spawn(self) -> PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn,),
            daemon=True,
            name=f"repro-pool-{self.spawned_total}",
        )
        proc.start()
        child_conn.close()  # parent keeps only its own end
        self.spawned_total += 1
        return PoolWorker(proc, parent_conn)

    def lease(self, jobs: int) -> List[PoolWorker]:
        """At least ``jobs`` live idle-ready workers (pruning dead ones)."""
        alive = []
        for worker in self.workers:
            if worker.proc.is_alive():
                alive.append(worker)
            else:
                self._reap(worker)
        self.workers = alive
        while len(self.workers) < jobs:
            self.workers.append(self._spawn())
        return self.workers[:jobs]

    def replace(self, worker: PoolWorker) -> PoolWorker:
        """Kill and reap ``worker``; spawn and return its successor."""
        self._reap(worker)
        try:
            self.workers.remove(worker)
        except ValueError:
            pass
        successor = self._spawn()
        self.workers.append(successor)
        self.respawns += 1
        return successor

    def _reap(self, worker: PoolWorker) -> None:
        try:
            worker.conn.close()
        except Exception:
            pass
        proc = worker.proc
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(_REAP_GRACE_S)
                if proc.is_alive():
                    proc.kill()
            proc.join(_REAP_GRACE_S)
        except Exception:
            pass
        try:
            proc.close()
        except Exception:
            pass

    def shutdown(self) -> None:
        """Graceful stop: ask every worker to exit, then reap the fleet."""
        for worker in self.workers:
            try:
                worker.conn.send(("exit",))
            except Exception:
                pass
        for worker in self.workers:
            try:
                worker.proc.join(1.0)
            except Exception:
                pass
            self._reap(worker)
        self.workers = []


# -- process-wide pool ---------------------------------------------------------

_ACTIVE: Optional[WorkerPool] = None


def pool_key() -> Tuple[Any, ...]:
    """Identity of the code/configuration a warm worker embodies.

    Covers the ``repro`` source digest (stale code must never serve a
    cell) and every ``REPRO_*`` environment variable (workers inherit
    the environment at spawn — the sentinel gate travels that way).
    """
    env = tuple(
        sorted(
            (name, value)
            for name, value in os.environ.items()
            if name.startswith("REPRO_")
        )
    )
    return (code_digest(), env)


def get_pool(jobs: int, key: Optional[Tuple[Any, ...]] = None) -> WorkerPool:
    """The process-wide pool, restarted if the key no longer matches."""
    global _ACTIVE
    if key is None:
        key = pool_key()
    if _ACTIVE is not None and _ACTIVE.key != key:
        _ACTIVE.shutdown()
        _ACTIVE = None
    if _ACTIVE is None:
        _ACTIVE = WorkerPool(key)
    _ACTIVE.lease(jobs)
    return _ACTIVE


def shutdown_pool() -> None:
    """Stop the process-wide pool (no-op when none is running)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.shutdown()
        _ACTIVE = None


atexit.register(shutdown_pool)


# -- pooled execution loop -----------------------------------------------------


def run_pooled(
    to_run: List[Scenario],
    jobs: int,
    cache,
    timeout_s: Optional[float],
    report,
    say,
    batch_size: Optional[int] = None,
) -> None:
    """Run ``to_run`` through the persistent pool, filling ``report``.

    The contract of :func:`repro.runner.executor.execute`: results keyed
    by scenario digest, ``CellFailure`` kinds ``exception``/``crash``/
    ``timeout``, per-cell timeout, cache writes for fresh results.
    """
    from repro.runner.executor import CellFailure, _json_roundtrip

    if not to_run:
        return
    pool = get_pool(jobs)
    workers = pool.lease(jobs)
    if batch_size is None:
        batch_size = default_batch_size(len(to_run), jobs)

    pending: Deque[Scenario] = deque(to_run)
    idle: Deque[PoolWorker] = deque(workers)
    busy: List[PoolWorker] = []
    barren_respawns = 0

    def requeue_rest(worker: PoolWorker) -> None:
        # Everything behind the in-flight cell reruns elsewhere, ahead of
        # undispatched work so overall ordering stays close to spec order.
        rest = list(worker.assigned)
        worker.assigned.clear()
        pending.extendleft(reversed(rest))

    def fail_worker(worker: PoolWorker, kind: str, message: str) -> None:
        nonlocal barren_respawns
        busy.remove(worker)
        if worker.begun:
            # Death mid-cell: the in-flight cell is the victim, the rest
            # of the batch reruns elsewhere.
            victim = worker.assigned.popleft()
            requeue_rest(worker)
            report.failures.append(CellFailure(victim, kind, message))
            idle.append(pool.replace(worker))
            return
        # Death *between* cells (acked the previous cell, never began the
        # next): nothing was in flight, so no cell failed — requeue every
        # undelivered spec instead of blaming the head of the batch. The
        # barren counter keeps a fleet that can never begin from looping.
        requeue_rest(worker)
        idle.append(pool.replace(worker))
        barren_respawns += 1
        if barren_respawns > _MAX_BARREN_RESPAWNS:
            raise RuntimeError(
                "worker pool cannot make progress "
                f"({barren_respawns} consecutive between-cell respawns)"
            )

    while pending or busy:
        while pending and idle:
            worker = idle.popleft()
            batch = []
            while pending and len(batch) < batch_size:
                batch.append(pending.popleft())
            try:
                worker.dispatch(batch)
            except Exception:
                # Died between batches: nothing was in flight, so nothing
                # failed — requeue and respawn, but never loop on a fleet
                # that cannot even accept work.
                pending.extendleft(reversed(batch))
                idle.append(pool.replace(worker))
                barren_respawns += 1
                if barren_respawns > _MAX_BARREN_RESPAWNS:
                    raise RuntimeError(
                        "worker pool cannot accept work "
                        f"({barren_respawns} consecutive dispatch failures)"
                    )
                continue
            for scenario in batch:
                say(f"dispatch   {scenario.describe()}")
            busy.append(worker)

        progressed = False
        for worker in list(busy):
            if worker.conn.poll():
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is None:
                    fail_worker(
                        worker,
                        "crash",
                        "worker died without a result "
                        f"(exit code {worker.proc.exitcode})",
                    )
                    continue
                progressed = True
                barren_respawns = 0
                if message[0] == "begin":
                    worker.begun = True
                    worker.cell_started = time.monotonic()
                    continue
                scenario = worker.assigned.popleft()
                worker.begun = False
                worker.cell_started = time.monotonic()
                if message[0] == "ok":
                    _status, payload, elapsed = message
                    payload = _json_roundtrip(payload)
                    report.results[scenario.digest()] = payload
                    report.executed += 1
                    say(f"done       {scenario.describe()}")
                    if cache is not None:
                        cache.put(scenario, payload, elapsed)
                else:
                    _status, error_message, detail = message
                    report.failures.append(
                        CellFailure(scenario, "exception", error_message, detail)
                    )
                if not worker.assigned:
                    busy.remove(worker)
                    idle.append(worker)
            elif not worker.proc.is_alive():
                fail_worker(
                    worker,
                    "crash",
                    "worker died without a result "
                    f"(exit code {worker.proc.exitcode})",
                )
            elif (
                timeout_s is not None
                and time.monotonic() - worker.cell_started > timeout_s
            ):
                fail_worker(
                    worker,
                    "timeout",
                    f"cell exceeded the per-cell timeout of "
                    f"{timeout_s:.0f}s and was killed",
                )

        if busy and not progressed:
            time.sleep(_POLL_INTERVAL_S)
