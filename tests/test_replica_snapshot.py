"""A replica keeps its applied state and a bounded log suffix.

Nothing applies to a crashed replica, so its state is the snapshot: a
restart resumes at the applied point instead of replaying the log from
zero, the log drops applied entries more than ``DIFF_WINDOW`` below the
apply cursor, and a learner the leader's log no longer reaches installs
the leader's state (SNAP). These tests pin what that must not break —
at-most-once for a write whose commit only the snapshot holds, the
watches an install fires — and the bound itself, in a soak that
classifies every per-replica container as bounded or known-unbounded, on
wk x zab and on zk x wpaxos (whose chosen log keeps a window of applies).
``tests/test_state_transfer_reference.py`` holds the whole thing to the
replay from zero it replaced.
"""

import itertools
import os
import random
from collections import deque

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.wankeeper import build_wankeeper_deployment
from repro.zab import peer as zab_peer
from repro.zab.peer import PeerState
from repro.zk import SessionExpiredError
from repro.zk import server as zk_server

from tests.support import fresh_world, plain_zk, run_app, wpaxos_grid

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
#: Loss only: with duplication on top, this schedule reaches the stale
#: TokenReturn double accept pinned in tests/test_wankeeper_streams.py.
AMBIENT = LinkProfile(loss=0.02)


# -- at-most-once across a state install -------------------------------------


def _origin_write_inside_a_snapshot(monkeypatch, install=None):
    """A follower forwards its client's write, then hears nothing from the
    leader (one-way partition) while the write commits and the leader's log
    moves more than a window past it: it rejoins by SNAP, holding a pending
    write that is committed in the state it installs, with no reply."""
    monkeypatch.setattr(zab_peer, "DIFF_WINDOW", 8)
    env, topo, net = fresh_world(seed=23)
    deployment = plain_zk(env, net, topo)
    leader = deployment.leader
    origin = next(s for s in deployment.servers if s.site == CALIFORNIA)
    if install is not None:
        origin.peer.install_state = lambda state: install(origin, state)
    writer = deployment.client(VIRGINIA)
    client = deployment.client(CALIFORNIA, request_timeout_ms=1000.0)
    client.server_addr = origin.client_addr
    outcome = {}

    def origin_app():
        try:
            yield client.set_data_retrying("/o", b"mine", max_retries=40)
            outcome["result"] = "ok"
        except SessionExpiredError:
            outcome["result"] = "session-expired"

    def app():
        yield writer.connect()
        yield client.connect()
        yield writer.create("/o", b"")
        yield writer.create("/w", b"")
        yield env.timeout(500.0)
        net.partition_one_way(VIRGINIA, CALIFORNIA)
        env.process(origin_app())
        yield env.timeout(500.0)
        for i in range(40):
            yield writer.set_data("/w", str(i).encode())
        net.heal_one_way(VIRGINIA, CALIFORNIA)
        yield env.timeout(20000.0)
        return True

    run_app(env, app())
    return deployment, origin, leader, client, outcome


def test_origin_write_committed_inside_a_snapshot_expires_its_session(monkeypatch):
    installed = []

    def install(server, state):
        installed.append(server.peer._last_applied)
        type(server).install(server, state)

    deployment, origin, leader, client, outcome = _origin_write_inside_a_snapshot(
        monkeypatch, install
    )
    key = (client.session_id, 1)
    # The follower rejoined by SNAP, past the write its client still waits on.
    assert installed and origin.peer.log.base >= installed[0]
    # The retry meets SESSION_EXPIRED; the write applied exactly once.
    assert outcome["result"] == "session-expired"
    assert key not in origin._pending_writes and key not in origin._replies
    for server in deployment.servers:
        assert server.apply_counts[key] == 1
        data, stat = server.tree.get_data("/o")
        assert (data, stat.version) == (b"mine", 1)
    assert len({s.tree.fingerprint() for s in deployment.servers}) == 1


def test_a_naive_install_retries_into_the_table_with_no_reply(monkeypatch):
    """The same schedule with an install that only takes the state: the
    client's retry finds its key committed and no reply to answer with."""

    def naive(server, state):
        for name, value in state.items():
            setattr(server, name, value)

    with pytest.raises(RuntimeError, match="no reply stored"):
        _origin_write_inside_a_snapshot(monkeypatch, naive)


def test_an_install_fires_the_watches_of_what_changed_under_them(monkeypatch):
    """The applies a SNAP jumps over would each have fired a watch: the
    install fires one for every watched path that changed, and none for
    one that did not."""
    monkeypatch.setattr(zab_peer, "DIFF_WINDOW", 8)
    env, topo, net = fresh_world(seed=29)
    deployment = plain_zk(env, net, topo)
    learner = next(s for s in deployment.servers if s.site == FRANKFURT)
    writer = deployment.client(VIRGINIA)
    watcher = deployment.client(FRANKFURT)
    watcher.server_addr = learner.client_addr
    installs = []
    install = learner.peer.install_state
    learner.peer.install_state = lambda state: (installs.append(1), install(state))

    def app():
        yield writer.connect()
        yield watcher.connect()
        for path in ("/x", "/y", "/p"):
            yield writer.create(path, b"")
        yield env.timeout(500.0)
        yield watcher.get_data("/x", watch=True)
        yield watcher.get_data("/y", watch=True)
        yield watcher.get_children("/p", watch=True)
        net.partition_one_way(VIRGINIA, FRANKFURT)
        yield writer.set_data("/x", b"1")
        yield writer.create("/p/c", b"")
        for i in range(30):
            yield writer.set_data("/x", str(i).encode())
        net.heal_one_way(VIRGINIA, FRANKFURT)
        yield env.timeout(10000.0)
        return True

    run_app(env, app())
    assert installs == [1]
    assert [(e.type.name, e.path) for e in watcher.watch_events] == [
        ("NODE_DATA_CHANGED", "/x"), ("NODE_CHILDREN_CHANGED", "/p"),
    ]
    assert learner.watches.watch_count() == 1  # /y's, untouched


# -- bounded-state soak ------------------------------------------------------

#: Multiplies the soak's ops per phase (CI's lossy-soak job runs it long).
SOAK_SCALE = int(os.environ.get("REPRO_SOAK_SCALE", "1"))
#: The log window and the leader's submit window, cut down so that the
#: soak compacts, SNAPs and evicts. The at-most-once window keeps its size:
#: a retry later than it re-applies (as a ZooKeeper retry past the
#: committed log would), and that is not what this test is about.
WINDOW, DEDUP = 16, 64
CACHE = zk_server.REPLY_CACHE_LIMIT

#: Containers that grow with history, and why.
KNOWN_UNBOUNDED = {
    # Level-2 failover replays a new hub's relay streams from seq 1.
    "_seen_wan_ids": "L2 failover replays relay streams from seq 1",
    "_wan_history": "L2 failover replays relay streams from seq 1",
    "_replicate_stream": "a new hub re-absorbs a site's stream from its own count",
    # Only the acting hub leader holds these; they grow with _wan_history.
    "_relay_streams": "the hub leader's view of _wan_history, per site",
}

#: The FIFO windows and their limits.
WINDOWS = {
    "apply_counts": CACHE,
    "_apply_order": CACHE,
    "_replies": CACHE,
    "peer._recent_submits": DEDUP,
    "peer._submit_order": DEDUP,
    # WPaxos: the applies the chosen log holds, and the log itself (the
    # window, each object's newest entry, and at most a few slots above
    # a hole while a resync is on its way).
    "peer._window": 2 * WINDOW,
    "peer._chosen": 2 * WINDOW + 64,
}

_SKIP = {"env", "net", "config", "wan", "host", "sentinel", "_trace", "inbox",
         "client_inbox", "_handlers", "_wan_handlers", "peer", "log", "tree"}
#: The packages whose objects a replica owns (not the kernel's, the net's).
_LAYERS = [["repro", layer] for layer in ("zab", "zk", "wankeeper", "wpaxos")]


def _size(value):
    """Elements in a container, and in the containers directly inside it."""
    size = len(value)
    items = value.values() if isinstance(value, dict) else ()
    return size + sum(len(v) for v in items
                      if isinstance(v, (list, dict, set, deque, tuple)))


def _census(server):
    """Every container a replica holds, by dotted name, with its size."""
    owners = [("", server), ("peer.", server.peer), ("tree.", server.tree)]
    if hasattr(server.peer, "log"):
        owners.append(("peer.log.", server.peer.log))
    sizes, seen = {}, set()
    while owners:
        prefix, owner = owners.pop()
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        fields = getattr(owner, "__dict__", None) or {
            name: getattr(owner, name, None)
            for name in getattr(owner, "__slots__", ())
        }
        for name, value in fields.items():
            if name in _SKIP:
                continue
            if isinstance(value, (list, dict, set, deque)):
                sizes[prefix + name] = _size(value)
            elif type(value).__module__.split(".")[:2] in _LAYERS:
                owners.append((f"{prefix}{name}.", value))
    return sizes


def _soak(stack, faulty, monkeypatch):
    monkeypatch.setattr(zab_peer, "DIFF_WINDOW", WINDOW)
    monkeypatch.setattr(zab_peer, "SUBMIT_DEDUP_LIMIT", DEDUP)
    env, topo, net = fresh_world(seed=5, jitter=0.1 if faulty else 0.0)
    if stack == "wk":
        deployment = build_wankeeper_deployment(env, net, topo)
        deployment.start()
        deployment.stabilize()
    else:
        deployment = wpaxos_grid(env, net, topo)
    crashes = faulty or stack == "wpaxos"
    keys = [f"/soak/k{i}" for i in range(8)]
    ops = 100 * SOAK_SCALE
    census = []

    def actor(index, site, rng):
        client = deployment.client(site, session_timeout_ms=30000.0,
                                   request_timeout_ms=3000.0)
        yield client.connect_retrying(max_retries=10)
        for _ in range(ops):
            key = rng.choice(keys)
            try:
                if rng.random() < 0.6:
                    yield client.set_data_retrying(key, b"v", max_retries=10)
                else:
                    yield client.get_data_retrying(key, max_retries=10)
            except Exception:  # a failed op is not what this test checks
                client = deployment.client(site, session_timeout_ms=30000.0,
                                           request_timeout_ms=3000.0)
                yield client.connect_retrying(max_retries=10)
            yield env.timeout(rng.uniform(20.0, 150.0))

    stop = []

    def nemesis():
        # Every server in turn, leaders included: down 1.5 s of every 4.
        for server in itertools.cycle(deployment.servers):
            yield env.timeout(2500.0)
            if stop:
                return
            server.crash()
            yield env.timeout(1500.0)
            server.restart()

    def phase(first):
        procs = [env.process(actor(i, site, random.Random(i * 31 + first)))
                 for i, site in enumerate(SITES * 2)]
        for proc in procs:
            yield proc

    def app():
        setup = deployment.client(VIRGINIA)
        yield setup.connect()
        yield setup.create("/soak", b"")
        for key in keys:
            yield setup.create(key, b"")
        if faulty:
            for a, b in itertools.combinations(SITES, 2):
                net.degrade(a, b, AMBIENT)
        if crashes:
            env.process(nemesis())
        for first in (0, 1):  # warm-up, then a stretch as long again
            yield env.process(phase(first))
            stop.append(first)
            yield env.timeout(10000.0)  # quiesce: restarts rejoin, queues drain
            census.append({s.name: _census(s) for s in deployment.servers})
        return True

    run_app(env, app(), timeout_ms=3.6e6)
    return deployment, census


@pytest.mark.parametrize("stack,faulty", [
    pytest.param("wk", False, id="clean"),
    pytest.param("wk", True, id="lossy"),
    # Every voter crashed in turn, with no ambient loss: under loss a voter
    # can miss an object's last Learn for good (the strict xfail in
    # tests/test_wpaxos_window.py), and the replicas need not converge.
    pytest.param("wpaxos", False, id="wpaxos-crashes"),
])
def test_replica_state_stays_bounded(stack, faulty, monkeypatch):
    deployment, (warm, end) = _soak(stack, faulty, monkeypatch)
    for server in deployment.servers:
        peer = server.peer
        if stack == "wk":
            # The log: a window below the cursor (compacted in chunks at
            # twice it) plus what is not applied yet.
            assert peer._cursor <= 2 * WINDOW, server.name
            assert len(peer.log) - peer._cursor <= 8, server.name
            assert peer.log.base > zab_peer.Zxid.ZERO, server.name
            # Only the acting hub leader holds relay streams.
            if server is deployment.hub_leader:
                assert server._relay_streams is not None
            else:
                assert server._relay_streams is None, server.name
        else:
            # Compacted, no chosen slot left in _accepted, nothing lost:
            # every object's newest applied entry is held.
            assert peer._base, server.name
            assert not [(obj, slot) for obj, slots in peer._accepted.items()
                        for slot in slots
                        if slot < peer._applied[obj] or slot in peer._chosen.get(obj, ())]
            for obj, chosen in peer._chosen.items():
                applied = peer._applied[obj]
                assert not applied or applied - 1 in chosen, (server.name, obj)
        for name, limit in WINDOWS.items():
            if stack == "wpaxos" and name == "peer._recent_submits":
                limit *= 3  # each id maps to an (obj, slot) pair
            if name in end[server.name]:
                assert end[server.name][name] <= limit, (server.name, name)
        growing = {
            name: (warm[server.name].get(name, 0), size)
            for name, size in end[server.name].items()
            if name.split(".")[-1] not in KNOWN_UNBOUNDED
            and name not in WINDOWS
            and size > warm[server.name].get(name, 0) * 1.25 + 16
        }
        assert not growing, (server.name, growing)
    # The run was a real one: state converged, and the known-unbounded
    # containers did grow with the second stretch.
    assert len({s.tree.fingerprint() for s in deployment.servers}) == 1
    assert all(s.peer.state != PeerState.DOWN for s in deployment.servers)
    if stack == "wk":
        grew = [s for s in deployment.servers
                if end[s.name]["_wan_history"] > warm[s.name]["_wan_history"]]
        assert grew == deployment.servers
