"""Figure 8: BookKeeper WAN write throughput with iterating writers (§IV-B).

Topology of Fig. 8a: three regions with their own bookies; Virginia hosts
the coordination leader/hub and has no writers; California has 3 writers,
Frankfurt 1 ("the log has a home-region ... while allowing a writer from
another region"). Writers iterate: take the coordination lock on the shared
logical log, record region+ledger in the shared metadata znode, append
entries to their local bookies for a fixed *write duration*, record the
finish, release.

The sweep varies the write duration: the shorter the duration, the more
often coordination happens and the more the coordination system's WAN
latency dominates (Fig. 8b).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bookkeeper import Bookie, BookKeeperClient
from repro.experiments.common import World, build_world
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.workloads import LatencyRecorder
from repro.workloads.driver import drive
from repro.zk.recipes import DistributedLock

__all__ = ["run_fig8_cell"]

LOCK_PATH = "/log/lock"
META_PATH = "/log/meta"
BOOKIES_PER_SITE = 3


def _writer(
    world: World,
    bk: BookKeeperClient,
    lock: DistributedLock,
    region: str,
    write_duration_ms: float,
    deadline_ms: float,
    recorder: LatencyRecorder,
    stats: Dict[str, int],
):
    env = world.env
    zk = bk.zk
    yield zk.connect()
    while env.now < deadline_ms:
        yield from lock.acquire()
        if env.now >= deadline_ms:
            yield from lock.release()
            break
        try:
            handle = yield from bk.create_ledger()
            # Record region + ledger in the shared log metadata (the
            # BookKeeper protocol's writer-registration step).
            yield zk.set_data(
                META_PATH, f"region={region};ledger={handle.ledger_id}".encode()
            )
            stats["handovers"] += 1
            slice_end = min(env.now + write_duration_ms, deadline_ms)
            while env.now < slice_end:
                start = env.now
                yield from bk.add_entry(handle, b"x" * 64)
                recorder.record("entry", start, env.now - start)
                stats["entries"] += 1
            yield zk.set_data(
                META_PATH,
                f"region={region};ledger={handle.ledger_id};"
                f"finished={env.now}".encode(),
            )
            yield from bk.close_ledger(handle)
        finally:
            yield from lock.release()


def run_fig8_cell(
    system: str,
    write_duration_ms: float,
    seed: int = 42,
    total_duration_ms: float = 30000.0,
) -> Dict[str, Any]:
    """One (system, write duration) cell of Fig. 8b."""
    world = build_world(system, seed=seed)
    env, topo, net = world.env, world.topology, world.net

    bookies_by_site: Dict[str, List[Bookie]] = {}
    for site in (VIRGINIA, CALIFORNIA, FRANKFURT):
        bookies = []
        for index in range(BOOKIES_PER_SITE):
            bookie = Bookie(env, net, topo.site(site).address(f"bookie{index}"))
            bookie.start()
            bookies.append(bookie)
        bookies_by_site[site] = bookies

    # Writers: 3 in California, 1 in Frankfurt (Fig. 8a).
    writer_sites = [CALIFORNIA, CALIFORNIA, CALIFORNIA, FRANKFURT]
    recorder = LatencyRecorder(f"fig8-{system}-{write_duration_ms}")
    stats = {"entries": 0, "handovers": 0}

    def orchestrate():
        # Create the shared metadata znode once.
        setup = world.client(VIRGINIA)
        yield setup.connect()
        yield setup.create("/log", b"")
        yield setup.create(META_PATH, b"")
        start = env.now
        deadline = start + total_duration_ms
        procs = []
        for index, site in enumerate(writer_sites):
            zk = world.client(site, request_timeout_ms=30000.0)
            bk = BookKeeperClient(
                env,
                net,
                topo.site(site).address(f"bkwriter{index}"),
                zk,
                [b.addr for b in bookies_by_site[site]],
            )
            lock = DistributedLock(env, zk, LOCK_PATH)
            procs.append(
                env.process(
                    _writer(
                        world, bk, lock, site, write_duration_ms, deadline,
                        recorder, stats,
                    )
                )
            )
        for proc in procs:
            yield proc
        return env.now - start

    elapsed_ms = drive(env, env.process(orchestrate()), 6 * total_duration_ms)
    return {
        "system": system,
        "write_duration_ms": write_duration_ms,
        "entries_per_sec": stats["entries"] / (elapsed_ms / 1000.0),
        "handovers": stats["handovers"],
        "entries_total": stats["entries"],
    }
