"""Direct-call layer probes: one layer at a time, no full stack.

Each probe drives one layer's public objects with a fixed seeded stream
for about a quarter of a CPU second and reports calls per reference-box
CPU second. They exist so that a layer regression smaller than the
end-to-end noise still points at a layer. They are the harness's own:
``repro.bench`` has probes of the same shape, but that file is due to be
rewritten and a yardstick must not move with the thing it measures.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

from repro.net import VIRGINIA, CALIFORNIA, Network, wan_topology
from repro.net.topology import NodeAddress
from repro.sim import Environment, Store, seeded_rng
from repro.substrate import create_peer
from repro.wankeeper.tokens import HubTokenState, SiteTokenState, token_keys
from repro.workloads import LatencyRecorder, ZipfianChooser
from repro.zab import EnsembleConfig
from repro.zab.zxid import Zxid
from repro.zk.data_tree import DataTree
from repro.zk.ops import CreateOp, SetDataOp
from repro.zk.records import WatchEvent, WatchType
from repro.zk.watches import WatchManager

from calibration import REFERENCE_S, calibrate

__all__ = ["PROBES", "run_probes"]

#: A probe prepares its objects from the seed and returns the work to time;
#: the work returns how many units it did.
Probe = Callable[[int], Callable[[], int]]

#: The tree and watch probes replay their precomputed schedule this often,
#: so that timing it costs more than drawing it.
_REPEATS = 5


def _sim_events(seed: int):
    """Store/timeout ring: every actor sleeps, puts to its neighbour, gets."""
    env = Environment()
    n_actors, rounds = 50, 1200
    stores = [Store(env) for _ in range(n_actors)]

    def actor(index: int):
        mine, neighbour = stores[index], stores[(index + 1) % n_actors]
        for round_index in range(rounds):
            yield env.timeout(0.1)
            neighbour.put(round_index)
            yield mine.get()

    for index in range(n_actors):
        env.process(actor(index))

    def work() -> int:
        env.run()
        return env._seq  # kernel events, as the golden digests count them

    return work


def _net_msgs(seed: int):
    """A single-link stream through ``Network.send`` to a consumer inbox."""
    env = Environment()
    net = Network(env, wan_topology(jitter_fraction=0.0))
    src, dst = NodeAddress(VIRGINIA, "probe-src"), NodeAddress(CALIFORNIA, "probe-dst")
    net.register(src)
    received = [0]

    def on_envelope(_envelope) -> None:
        received[0] += 1

    net.register(dst).consume(on_envelope)
    n_messages = 120_000

    def producer():
        for index in range(n_messages):
            net.send(src, dst, index)
            if index % 100 == 99:
                yield env.timeout(1.0)

    env.process(producer())

    def work() -> int:
        env.run()
        return received[0]

    return work


def _zk_tree(seed: int):
    """``DataTree`` apply/read mix over one wide parent."""
    rng = seeded_rng(seed, "probe-tree")
    tree = DataTree()
    counter = [0]

    def next_zxid() -> Zxid:
        counter[0] += 1
        return Zxid(1, counter[0])

    tree.apply(CreateOp("/probe"), next_zxid(), "probe")
    paths = [f"/probe/item{index:04d}" for index in range(400)]
    for path in paths:
        tree.apply(CreateOp(path, b"v0"), next_zxid(), "probe")
    schedule = []
    for index in range(100_000):
        roll, path = rng.random(), paths[rng.randrange(len(paths))]
        if roll < 0.10:
            schedule.append((0, SetDataOp(path, b"v%d" % index)))
        elif roll < 0.55:
            schedule.append((1, path))
        elif roll < 0.95:
            schedule.append((2, path))
        else:
            schedule.append((3, "/probe"))

    def work() -> int:
        for _ in range(_REPEATS):
            for kind, arg in schedule:
                if kind == 1:
                    tree.get_data(arg)
                elif kind == 2:
                    tree.exists(arg)
                elif kind == 3:
                    tree.get_children(arg)
                else:
                    tree.apply(arg, next_zxid(), "probe")
        return _REPEATS * len(schedule)

    return work


def _zk_watches(seed: int):
    """Watch register / fire / miss / drop churn through ``WatchManager``."""
    rng = seeded_rng(seed, "probe-watches")
    paths = [f"/w/p{index:03d}" for index in range(200)]
    cold = [f"/cold/p{index:03d}" for index in range(200)]
    sessions = [f"sess-{index:03d}" for index in range(50)]
    manager = WatchManager()
    schedule = []
    for _ in range(100_000):
        roll = rng.random()
        path, session = paths[rng.randrange(200)], sessions[rng.randrange(50)]
        if roll < 0.25:
            schedule.append((0, path, session))
        elif roll < 0.40:
            schedule.append((1, path, session))
        elif roll < 0.70:
            schedule.append((2, WatchEvent(WatchType.NODE_DATA_CHANGED, path), None))
        elif roll < 0.97:
            miss = cold[rng.randrange(200)]
            schedule.append((2, WatchEvent(WatchType.NODE_CHILDREN_CHANGED, miss), None))
        else:
            schedule.append((3, session, None))

    def work() -> int:
        for _ in range(_REPEATS):
            for kind, arg, session in schedule:
                if kind == 2:
                    manager.trigger(arg)
                elif kind == 0:
                    manager.add_data_watch(arg, session)
                elif kind == 1:
                    manager.add_child_watch(arg, session)
                else:
                    manager.drop_session(arg)
        return _REPEATS * len(schedule)

    return work


def _wankeeper_tokens(seed: int):
    """Admit / retire / grant / recall on the site and hub token tables."""
    rng = seeded_rng(seed, "probe-tokens")
    keys = [f"/app/key{index:04d}" for index in range(400)]
    names = ("virginia", "california", "frankfurt")
    sites = {name: SiteTokenState(name) for name in names}
    hub = HubTokenState()
    schedule = [
        (names[rng.randrange(3)], SetDataOp(keys[rng.randrange(len(keys))], b""))
        for _ in range(120_000)
    ]

    def work() -> int:
        for site, op in schedule:
            state = sites[site]
            needed = token_keys(op)
            if not state.holds_all(needed):
                for key in sorted(needed):
                    owner = hub.where(key)
                    if owner is not None and owner != site:
                        other = sites[owner]
                        other.start_recall(key)
                        other.release(key)
                        hub.accept_return(key)
                    hub.grant(key, site)
                    state.grant(key)
            state.admit(needed)
            state.retire(needed)
        return len(schedule)

    return work


def _substrate_commits(substrate: str):
    def probe(seed: int):
        """A 3-peer single-site ensemble from ``create_peer`` committing a
        fixed stream submitted at its proposer."""
        env = Environment()
        topology = wan_topology(jitter_fraction=0.0)
        net = Network(env, topology, rng=seeded_rng(seed, "probe-net"))
        voters = [topology.site(VIRGINIA).address(f"probe{i}.zab") for i in range(3)]
        config = EnsembleConfig(voters=voters)
        peers = [create_peer(substrate, env, net, addr, config) for addr in voters]
        for peer in peers:
            peer.start()
        env.run(until=2000.0)
        proposer = next(peer for peer in peers if peer.is_leader)
        committed = [0]

        def on_commit(_zxid, _txn) -> None:
            committed[0] += 1

        proposer.on_commit = on_commit
        n_commits = 8000

        def pump():
            for index in range(n_commits):
                proposer.submit(f"txn-{index}")
                yield env.timeout(0.5)

        env.process(pump())

        def work() -> int:
            env.run(until=env.now + n_commits * 0.5 + 2000.0)
            return committed[0]

        return work

    return probe


def _workload_draws(seed: int):
    """``ZipfianChooser.choose`` + ``LatencyRecorder.record``."""
    rng = seeded_rng(seed, "probe-draws")
    chooser = ZipfianChooser(1000)
    recorder = LatencyRecorder("probe")
    n_draws = 200_000

    def work() -> int:
        for _ in range(n_draws):
            recorder.record("read", 0.0, float(chooser.choose(rng)))
        return n_draws

    return work


PROBES: Dict[str, Probe] = {
    "sim.probe_events_per_s": _sim_events,
    "net.probe_msgs_per_s": _net_msgs,
    "zk.probe_tree_ops_per_s": _zk_tree,
    "zk.probe_watch_ops_per_s": _zk_watches,
    "wankeeper.probe_token_ops_per_s": _wankeeper_tokens,
    "zab.probe_commits_per_s": _substrate_commits("zab"),
    "wpaxos.probe_commits_per_s": _substrate_commits("wpaxos"),
    "workloads.probe_draws_per_s": _workload_draws,
}


def run_probes(seed: int) -> Dict[str, float]:
    """Every probe once: units of work per reference-box CPU second."""
    out: Dict[str, float] = {}
    for name, probe in PROBES.items():
        work = probe(seed)
        gc.collect()  # the set-up's garbage is not the probe's to collect
        before = calibrate()
        started = time.process_time()
        units = work()
        cpu_s = time.process_time() - started
        after = calibrate()
        out[name] = units / cpu_s * ((before + after) / 2.0 / REFERENCE_S)
    return out
