"""Integration tests for the Zab atomic-broadcast layer."""

import pytest

from repro.net import Network, wan_topology, VIRGINIA, CALIFORNIA, FRANKFURT
from repro.sim import Environment, seeded_rng
from repro.substrate.peer import PeerState
from repro.zab import EnsembleConfig, ZabPeer, Zxid


def build_ensemble(
    env,
    net,
    topo,
    voter_sites=(VIRGINIA, VIRGINIA, VIRGINIA),
    observer_sites=(),
    start=True,
):
    voters = [
        topo.site(site).address(f"v{i}") for i, site in enumerate(voter_sites)
    ]
    observers = [
        topo.site(site).address(f"o{i}") for i, site in enumerate(observer_sites)
    ]
    config = EnsembleConfig(voters=voters, observers=observers)
    peers = [ZabPeer(env, net, addr, config) for addr in voters + observers]
    if start:
        for peer in peers:
            peer.start()
    return config, peers


def fresh(jitter=0.0):
    env = Environment()
    topo = wan_topology(jitter_fraction=jitter)
    net = Network(env, topo, rng=seeded_rng(3, "net"))
    return env, topo, net


def leader_of(peers):
    leaders = [p for p in peers if p.is_leader]
    assert len(leaders) == 1, f"expected one leader, got {leaders}"
    return leaders[0]


def test_election_converges():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, topo=topo, net=net)
    env.run(until=1000.0)
    leader = leader_of(peers)
    followers = [p for p in peers if p is not leader]
    assert all(p.state == PeerState.FOLLOWING for p in followers)
    assert all(p.leader_addr == leader.addr for p in followers)


def test_single_voter_self_elects():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,))
    env.run(until=100.0)
    assert peers[0].is_leader


def test_commit_replicates_to_all_voters():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    applied = {peer.addr: [] for peer in peers}
    for peer in peers:
        peer.on_commit = (
            lambda zxid, txn, addr=peer.addr: applied[addr].append((zxid, txn))
        )
    env.run(until=1000.0)
    leader = leader_of(peers)
    leader.submit("txn-1")
    leader.submit("txn-2")
    env.run(until=2000.0)
    for peer in peers:
        assert [txn for _z, txn in applied[peer.addr]] == ["txn-1", "txn-2"]


def test_commit_order_is_zxid_order_everywhere():
    env, topo, net = fresh(jitter=0.2)
    _config, peers = build_ensemble(env, net, topo)
    applied = {peer.addr: [] for peer in peers}
    for peer in peers:
        peer.on_commit = (
            lambda zxid, txn, addr=peer.addr: applied[addr].append(zxid)
        )
    env.run(until=1000.0)
    leader = leader_of(peers)
    for i in range(50):
        leader.submit(f"txn-{i}")
    env.run(until=3000.0)
    for peer in peers:
        zxids = applied[peer.addr]
        assert len(zxids) == 50
        assert zxids == sorted(zxids)


def test_submit_on_non_leader_raises():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    follower = next(p for p in peers if not p.is_leader)
    with pytest.raises(RuntimeError):
        follower.submit("nope")


def test_forwarded_submit_commits():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    committed = []
    for peer in peers:
        peer.on_commit = lambda zxid, txn: committed.append(txn)
    env.run(until=1000.0)
    follower = next(p for p in peers if not p.is_leader)
    follower.forward_submit("fwd-txn")
    env.run(until=2000.0)
    assert "fwd-txn" in committed


def test_observer_learns_commits():
    env, topo, net = fresh()
    _config, peers = build_ensemble(
        env, net, topo, observer_sites=(CALIFORNIA,)
    )
    observer = peers[-1]
    seen = []
    observer.on_commit = lambda zxid, txn: seen.append(txn)
    env.run(until=2000.0)
    assert observer.state == PeerState.OBSERVING
    leader = leader_of(peers[:3])
    leader.submit("to-observer")
    env.run(until=3000.0)
    assert seen == ["to-observer"]


def test_observer_does_not_vote_or_lead():
    env, topo, net = fresh()
    _config, peers = build_ensemble(
        env, net, topo, observer_sites=(CALIFORNIA,)
    )
    env.run(until=2000.0)
    observer = peers[-1]
    assert observer.state == PeerState.OBSERVING
    assert not observer.is_leader


def test_wan_follower_write_needs_wan_roundtrips():
    """A commit with a WAN voter takes at least one WAN RTT to ack."""
    env, topo, net = fresh()
    _config, peers = build_ensemble(
        env, net, topo, voter_sites=(VIRGINIA, CALIFORNIA, FRANKFURT)
    )
    committed_at = {}
    for peer in peers:
        peer.on_commit = (
            lambda zxid, txn, addr=peer.addr: committed_at.setdefault(addr, env.now)
        )
    env.run(until=5000.0)
    leader = leader_of(peers)
    start = env.now
    leader.submit("wan-txn")
    env.run(until=start + 2000.0)
    leader_commit_delay = committed_at[leader.addr] - start
    # Leader needs an ack from one WAN follower: at least one WAN RTT (the
    # smallest one-way in the topology is 35 ms each direction).
    assert leader_commit_delay >= 70.0


def test_pipelined_commit_cost_vs_ensemble_size():
    """The substrate number every figure rests on: pipelined single-site
    commits stay around a millisecond at every ensemble size, and message
    complexity grows with it (propose + ack + commit per follower)."""
    commits = 200
    latencies, messages = [], []
    for count in (1, 3, 5, 7):
        env = Environment()
        topo = wan_topology()
        net = Network(env, topo, rng=seeded_rng(1, "net"))
        _config, peers = build_ensemble(
            env, net, topo, voter_sites=(VIRGINIA,) * count
        )
        env.run(until=2000.0)
        leader = leader_of(peers)
        committed = {"t": None, "n": 0}

        def on_commit(zxid, txn, committed=committed, env=env):
            committed["n"] += 1
            committed["t"] = env.now

        leader.on_commit = on_commit
        messages_before = net.messages_sent
        start = env.now

        def pump(leader=leader, env=env):
            for i in range(commits):
                leader.submit(f"m{i}")
                yield env.timeout(1.0)

        env.process(pump())
        env.run(until=start + commits * 1.0 + 2000.0)
        assert committed["n"] == commits
        latencies.append((committed["t"] - start) / commits)  # ms per commit
        messages.append((net.messages_sent - messages_before) / commits)
    assert all(latency < 5.0 for latency in latencies)
    assert messages == sorted(messages)
    assert messages[-1] > messages[0]


def test_wan_spanning_quorum_pays_a_wan_round_trip():
    """Commit latency with an all-local vs a WAN-spanning quorum — the
    penalty that motivates WanKeeper's site-local level-1 ensembles."""
    latency = {}
    for label, sites in (
        ("local", (VIRGINIA,) * 3),
        ("wan", (VIRGINIA, CALIFORNIA, FRANKFURT)),
    ):
        env = Environment()
        topo = wan_topology()
        net = Network(env, topo, rng=seeded_rng(2, "net"))
        _config, peers = build_ensemble(env, net, topo, voter_sites=sites)
        env.run(until=5000.0)
        leader = leader_of(peers)
        done = {}
        leader.on_commit = lambda zxid, txn, done=done, env=env: done.setdefault(
            "t", env.now
        )
        start = env.now
        leader.submit("probe")
        env.run(until=start + 2000.0)
        latency[label] = done["t"] - start
    assert latency["local"] < 5.0
    # The WAN quorum needs an ack from California: >= 1 CA round trip.
    assert latency["wan"] >= 70.0 - 5.0
    assert latency["wan"] > 10 * latency["local"]


def test_leader_crash_triggers_reelection():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    old_leader = leader_of(peers)
    old_leader.crash()
    env.run(until=5000.0)
    survivors = [p for p in peers if p is not old_leader]
    new_leader = leader_of(survivors)
    assert new_leader is not old_leader
    assert all(
        p.leader_addr == new_leader.addr for p in survivors
    )


def test_no_progress_without_quorum():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    leader = leader_of(peers)
    followers = [p for p in peers if p is not leader]
    for follower in followers:
        follower.crash()
    committed = []
    leader.on_commit = lambda zxid, txn: committed.append(txn)
    # Leader may still accept a submit while it hasn't noticed the crash,
    # but the transaction must never commit.
    try:
        leader.submit("doomed")
    except RuntimeError:
        pass
    env.run(until=10000.0)
    assert committed == []
    assert not leader.is_leader  # stepped down after losing quorum


def test_committed_entries_survive_leader_failover():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    leader = leader_of(peers)
    leader.submit("durable-1")
    leader.submit("durable-2")
    env.run(until=2000.0)
    leader.crash()
    env.run(until=8000.0)
    survivors = [p for p in peers if p is not leader]
    new_leader = leader_of(survivors)
    txns = [entry.txn for entry in new_leader.log]
    assert txns[:2] == ["durable-1", "durable-2"]


def test_restarted_follower_catches_up():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    leader = leader_of(peers)
    follower = next(p for p in peers if not p.is_leader)
    follower.crash()
    for i in range(5):
        leader.submit(f"while-down-{i}")
    env.run(until=3000.0)
    follower.restart()
    env.run(until=8000.0)
    txns = [entry.txn for entry in follower.log]
    assert txns == [f"while-down-{i}" for i in range(5)]
    assert follower.state == PeerState.FOLLOWING


def test_epoch_increases_across_elections():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    first_epoch = leader_of(peers).current_epoch
    old_leader = leader_of(peers)
    old_leader.crash()
    env.run(until=8000.0)
    survivors = [p for p in peers if p is not old_leader]
    assert leader_of(survivors).current_epoch > first_epoch


def test_five_node_ensemble_tolerates_two_failures():
    env, topo, net = fresh()
    _config, peers = build_ensemble(
        env, net, topo, voter_sites=(VIRGINIA,) * 5
    )
    env.run(until=1000.0)
    committed = []
    leader = leader_of(peers)
    followers = [p for p in peers if p is not leader]
    followers[0].crash()
    followers[1].crash()
    env.run(until=3000.0)
    leader = leader_of([p for p in peers if p.is_alive])
    leader.on_commit = lambda zxid, txn: committed.append(txn)
    leader.submit("still-alive")
    env.run(until=6000.0)
    assert committed == ["still-alive"]


def test_partition_heals_and_lagging_follower_recovers():
    env, topo, net = fresh()
    _config, peers = build_ensemble(
        env, net, topo, voter_sites=(VIRGINIA, VIRGINIA, CALIFORNIA)
    )
    env.run(until=2000.0)
    leader = leader_of(peers)
    assert leader.addr.site == VIRGINIA  # 2-of-3 quorum lives in Virginia
    net.partition(VIRGINIA, CALIFORNIA)
    leader.submit("during-partition")
    env.run(until=4000.0)
    net.heal(VIRGINIA, CALIFORNIA)
    env.run(until=20000.0)
    ca_peer = next(p for p in peers if p.addr.site == CALIFORNIA)
    txns = [entry.txn for entry in ca_peer.log]
    assert "during-partition" in txns


def test_zxid_ordering_and_packing():
    a = Zxid(1, 5)
    b = Zxid(2, 0)
    assert a < b
    assert a.next() == Zxid(1, 6)
    assert Zxid.unpack(a.packed()) == a
    with pytest.raises(ValueError):
        a.new_epoch(1)


def test_log_rejects_non_increasing_zxids():
    from repro.zab import TxnLog

    log = TxnLog()
    log.append(Zxid(1, 1), "a")
    with pytest.raises(ValueError):
        log.append(Zxid(1, 1), "b")


def test_log_truncate_and_entries_after():
    from repro.zab import TxnLog

    log = TxnLog()
    for i in range(1, 6):
        log.append(Zxid(1, i), f"t{i}")
    after = log.entries_after(Zxid(1, 3))
    assert [e.txn for e in after] == ["t4", "t5"]
    dropped = log.truncate_after(Zxid(1, 3))
    assert [e.txn for e in dropped] == ["t4", "t5"]
    assert log.last_zxid == Zxid(1, 3)


def test_log_refuses_holes_and_keeps_positional_lookup_exact():
    from repro.zab import TxnLog

    log = TxnLog()
    log.append(Zxid(2, 7), "a")  # an empty log takes any first entry
    log.append(Zxid(2, 8), "b")
    for hole in (Zxid(2, 10), Zxid(2, 7), Zxid(3, 2), Zxid(3, 0), Zxid(1, 9)):
        with pytest.raises(ValueError):
            log.append(hole, "x")
    log.append(Zxid(4, 1), "c")  # a later epoch opens at counter 1
    log.append(Zxid(4, 2), "d")
    assert [e.txn for e in log] == ["a", "b", "c", "d"]
    assert [log.position_of(e.zxid) for e in log] == [0, 1, 2, 3]
    assert log.get(Zxid(4, 2)).txn == "d" and log.contains(Zxid(2, 8))
    # Arithmetic that lands inside another epoch's stretch is not a hit.
    for absent in (Zxid(2, 9), Zxid(2, 6), Zxid(4, 0), Zxid(4, 3), Zxid(3, 1),
                   Zxid.ZERO):
        assert not log.contains(absent) and log.get(absent) is None
    # Zxids the log does not hold still cut it at the right place.
    assert [e.txn for e in log.entries_after(Zxid(3, 5))] == ["c", "d"]
    assert [e.txn for e in log.entries_after(Zxid(2, 6))] == ["a", "b", "c", "d"]
    assert log.entries_after(Zxid(9, 9)) == []


def test_log_truncate_then_reopen_epochs():
    from repro.zab import TxnLog

    log = TxnLog()
    for zxid in (Zxid(1, 1), Zxid(1, 2), Zxid(2, 1), Zxid(2, 2), Zxid(3, 1)):
        log.append(zxid, str(zxid))
    assert [e.zxid for e in log.truncate_after(Zxid(2, 1))] == [
        Zxid(2, 2), Zxid(3, 1)
    ]
    assert log.last_zxid == Zxid(2, 1) and not log.contains(Zxid(3, 1))
    with pytest.raises(ValueError):
        log.append(Zxid(3, 2), "hole")  # epoch 3 must open at 1 again
    log.append(Zxid(2, 2), "again")
    log.append(Zxid(5, 1), "e5")
    assert log.position_of(Zxid(5, 1)) == 4 and log.position_of(Zxid(3, 1)) == -1
    assert log.truncate_after(Zxid.ZERO) and len(log) == 0
    assert log.last_zxid == Zxid.ZERO and not log.contains(Zxid(1, 1))
    log.append(Zxid(7, 3), "fresh")
    assert log.position_of(Zxid(7, 3)) == 0


def test_log_replace_all_checks_order_and_holes():
    from repro.zab import LogEntry, TxnLog

    log = TxnLog()
    log.append(Zxid(1, 1), "old")
    entries = log.entries  # the peer's cursor indexes this very list
    with pytest.raises(ValueError, match="strictly increasing"):
        log.replace_all([LogEntry(Zxid(1, 2), "a"), LogEntry(Zxid(1, 2), "b")])
    with pytest.raises(ValueError, match="hole"):
        log.replace_all([LogEntry(Zxid(1, 2), "a"), LogEntry(Zxid(1, 4), "b")])
    with pytest.raises(ValueError, match="strictly increasing"):
        log.replace_all([LogEntry(Zxid(1, 2), "a")], base=Zxid(1, 2))
    assert [e.txn for e in log] == ["old"]  # a refused snapshot changes nothing
    # A snapshot may open an epoch at any counter.
    log.replace_all(
        [LogEntry(Zxid(1, 5), "a"), LogEntry(Zxid(1, 6), "b"), LogEntry(Zxid(3, 4), "c")]
    )
    assert log.entries is entries and [e.txn for e in log] == ["a", "b", "c"]
    assert log.last_zxid == Zxid(3, 4) and log.position_of(Zxid(3, 4)) == 2
    assert not log.contains(Zxid(1, 1))
    log.append(Zxid(3, 5), "d")
    log.replace_all([])
    assert len(log) == 0 and log.last_zxid == Zxid.ZERO
    # The log above a state snapshot: empty, its tail is the base, and
    # only the base's successor may follow.
    log.replace_all([], base=Zxid(4, 9))
    assert len(log) == 0 and log.last_zxid == log.base == Zxid(4, 9)
    with pytest.raises(ValueError):
        log.append(Zxid(4, 11), "hole")
    log.append(Zxid(4, 10), "e")
    assert log.position_of(Zxid(4, 10)) == 0 and not log.contains(Zxid(4, 9))


def test_log_drop_before_keeps_lookups_and_the_tail():
    from repro.zab import TxnLog

    log = TxnLog()
    zxids = [Zxid(1, c) for c in range(1, 6)] + [Zxid(2, c) for c in range(1, 4)]
    for zxid in zxids:
        log.append(zxid, str(zxid))
    log.drop_before(6)  # through (2, 1)
    assert log.base == Zxid(2, 1) and [e.zxid for e in log] == zxids[6:]
    assert [log.position_of(z) for z in zxids[6:]] == [0, 1]
    assert not any(log.contains(z) for z in zxids[:6])
    assert log._offsets.keys() == {2}  # epoch 1 is wholly gone
    assert log.entries_after(log.base) == log.entries
    assert [e.zxid for e in log.truncate_after(Zxid(2, 2))] == [Zxid(2, 3)]
    assert [e.zxid for e in log.truncate_after(Zxid(2, 1))] == [Zxid(2, 2)]
    assert len(log) == 0 and log.last_zxid == log.base
    log.append(Zxid(2, 2), "again")
    assert log.position_of(Zxid(2, 2)) == 0


class _ListMachine:
    """A state machine whose state is the list of txns it applied."""

    def __init__(self, peer):
        self.applied = []
        self.installs = 0
        peer.on_commit = lambda _zxid, txn: self.applied.append(txn)
        peer.snapshot_state = lambda: list(self.applied)
        peer.install_state = self.install

    def install(self, state):
        self.applied = state
        self.installs += 1


def applied_prefix_is_what_the_cursor_says(peer):
    entries = peer.log.entries
    if peer._cursor == 0:
        return peer._last_applied == peer.log.base
    return entries[peer._cursor - 1].zxid == peer._last_applied


def test_apply_cursor_survives_trunc_snap_and_restart(monkeypatch):
    """TRUNC re-seeks the cursor, SNAP points it past the installed state,
    restart keeps it: after each, commits resume from exactly the first
    entry not yet delivered, and nothing is delivered twice."""
    from repro.substrate import peer as substrate_peer
    from repro.zab.messages import Snap, Trunc

    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    env.run(until=1000.0)
    leader = leader_of(peers)
    follower, lagging = [p for p in peers if p is not leader]
    machines = {peer.addr: _ListMachine(peer) for peer in peers}
    applied = machines[follower.addr].applied
    lagging.crash()
    for i in range(6):
        leader.submit(f"t{i}")
    env.run(until=2000.0)
    assert applied == [f"t{i}" for i in range(6)] and follower._cursor == 6
    # An uncommitted tail the next leader never saw is truncated away.
    epoch = leader.current_epoch
    follower.log.append(Zxid(epoch, 7), "orphan-7")
    follower.log.append(Zxid(epoch, 8), "orphan-8")
    follower._on_trunc(leader.addr, Trunc(leader.addr, Zxid(epoch, 6)))
    assert len(follower.log) == 6 and follower._cursor == 6
    assert applied_prefix_is_what_the_cursor_says(follower)
    # A TRUNC below the applied point (a leader that is wrong about what
    # committed) must not leave the cursor past the end of the log.
    follower._on_trunc(leader.addr, Trunc(leader.addr, Zxid(epoch, 4)))
    assert follower._cursor == len(follower.log) == 4
    # A SNAP at our own applied point installs nothing: the log is the
    # suffix above it, and delivery resumes after it.
    follower._on_snap(leader.addr, Snap(leader.addr, ["not", "taken"],
                                        leader._last_applied, []))
    assert machines[follower.addr].installs == 0 and applied[-1] == "t5"
    assert follower._cursor == 0 and follower.log.base == Zxid(epoch, 6)
    assert applied_prefix_is_what_the_cursor_says(follower)
    # The leader's log keeps two entries below its cursor from here on:
    # the crashed peer's empty tail falls below it, so it rejoins by SNAP.
    monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 2)
    for i in range(6, 9):
        leader.submit(f"t{i}")
    env.run(until=3000.0)
    assert leader.log.base > Zxid.ZERO and len(leader.log) <= 4
    lagging.restart()
    env.run(until=8000.0)
    expected = [f"t{i}" for i in range(9)]
    assert machines[lagging.addr].installs == 1
    assert [m.applied for m in machines.values()] == [expected] * 3
    assert all(applied_prefix_is_what_the_cursor_says(p) for p in peers)
    # Restart resumes at the cursor: nothing is delivered again.
    cursor = follower._cursor
    follower.crash()
    env.run(until=8500.0)
    follower.restart()
    assert follower._cursor == cursor
    leader.submit("t9")
    env.run(until=14000.0)
    assert [m.applied for m in machines.values()] == [expected + ["t9"]] * 3
    assert all(applied_prefix_is_what_the_cursor_says(p) for p in peers)


def test_commit_during_on_commit_is_delivered_once():
    """On a one-voter ensemble a proposal made inside ``on_commit`` commits
    and applies before the outer delivery loop resumes; the shared cursor
    keeps the loop from delivering it a second time."""
    env, topo, net = fresh()
    _config, (peer,) = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,))
    env.run(until=100.0)
    delivered = []

    def on_commit(zxid, txn):
        delivered.append(txn)
        if txn == "a":
            peer.submit("from-a")

    peer.on_commit = on_commit
    peer.submit("a")
    peer.submit("b")
    assert delivered == ["a", "from-a", "b"]
    # A restart resumes after the applied point: nothing is re-delivered.
    peer.crash()
    peer.restart()
    env.run(until=env.now + 1000.0)
    peer.submit("c")
    assert delivered == ["a", "from-a", "b", "c"]


def test_compaction_waits_for_the_outermost_apply(monkeypatch):
    """Compacting under a nested apply would shift the list the outer walk
    indexes: a one-voter ensemble whose ``on_commit`` proposes applies
    inside the call, and the log is cut only once the outer walk ends."""
    from repro.substrate import peer as substrate_peer

    monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 2)
    env, topo, net = fresh()
    _config, (peer,) = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,))
    env.run(until=100.0)
    delivered = []

    def on_commit(zxid, txn):
        delivered.append(txn)
        if txn < 40 and txn % 2 == 0:
            peer.submit(txn + 1)

    peer.on_commit = on_commit
    for txn in range(0, 40, 2):
        peer.submit(txn)
    assert delivered == list(range(40))
    assert len(peer.log) <= 2 * 2 and not peer._applying
    assert applied_prefix_is_what_the_cursor_says(peer)


def test_ensemble_config_validation():
    env, topo, net = fresh()
    a = topo.site(VIRGINIA).address("a")
    b = topo.site(VIRGINIA).address("b")
    with pytest.raises(ValueError):
        EnsembleConfig(voters=[])
    with pytest.raises(ValueError):
        EnsembleConfig(voters=[a, a])
    with pytest.raises(ValueError):
        EnsembleConfig(voters=[a], observers=[a])
    config = EnsembleConfig(voters=[a, b])
    assert config.quorum_size == 2


def test_non_member_peer_rejected():
    env, topo, net = fresh()
    a = topo.site(VIRGINIA).address("a")
    b = topo.site(VIRGINIA).address("b")
    config = EnsembleConfig(voters=[a])
    with pytest.raises(ValueError):
        ZabPeer(env, net, b, config)
