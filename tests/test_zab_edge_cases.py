"""Additional Zab edge cases: observers, snapshots, late joiners."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.substrate.peer import PeerState
from repro.zab import Zxid

from tests.test_zab import build_ensemble, fresh, leader_of


def test_observer_crash_and_restart_catches_up():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, observer_sites=(CALIFORNIA,))
    observer = peers[-1]
    env.run(until=2000.0)
    leader = leader_of(peers[:3])
    leader.submit("before-crash")
    env.run(until=3000.0)
    observer.crash()
    for i in range(5):
        leader.submit(f"while-down-{i}")
    env.run(until=5000.0)
    observer.restart()
    env.run(until=15000.0)
    txns = [entry.txn for entry in observer.log]
    assert txns == ["before-crash"] + [f"while-down-{i}" for i in range(5)]


def test_observer_survives_leader_change():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, observer_sites=(FRANKFURT,))
    observer = peers[-1]
    applied = []
    observer.on_commit = lambda zxid, txn: applied.append(txn)
    env.run(until=2000.0)
    old_leader = leader_of(peers[:3])
    old_leader.submit("first")
    env.run(until=3000.0)
    old_leader.crash()
    env.run(until=15000.0)
    new_leader = leader_of([p for p in peers[:3] if p.is_alive])
    new_leader.submit("second")
    env.run(until=25000.0)
    assert applied == ["first", "second"]


def test_late_joiner_during_heavy_broadcast():
    """A follower joining while proposals stream must not lose any."""
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,) * 5)
    env.run(until=1000.0)
    leader = leader_of(peers)
    victim = next(p for p in peers if not p.is_leader)
    victim.crash()
    env.run(until=2000.0)

    def pump(env, leader):
        for i in range(100):
            if leader.is_leader:
                leader.submit(f"burst-{i}")
            yield env.timeout(2.0)

    env.process(pump(env, leader))
    env.run(until=2050.0)
    victim.restart()  # rejoins mid-burst
    env.run(until=20000.0)
    expected = [f"burst-{i}" for i in range(100)]
    assert [e.txn for e in victim.log] == expected


def test_follower_with_divergent_uncommitted_tail_truncates():
    """An offline follower holding uncommitted entries from a dead epoch
    must have them truncated when it rejoins the new epoch.

    (If such a node instead *wins* the election, Zab legitimately commits
    its tail — so the orphan must sit out the election to be truncated.)
    """
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,) * 5)
    env.run(until=1000.0)
    leader = leader_of(peers)
    followers = [p for p in peers if p is not leader]
    orphan = followers[0]
    # The orphan acked a proposal that never reached a quorum...
    orphan.log.append(Zxid(leader.current_epoch, 999), "orphan-entry")
    # ...and both it and the old leader go down before anyone else saw it.
    orphan.crash()
    leader.crash()
    env.run(until=15000.0)
    new_leader = leader_of([p for p in peers if p.is_alive])
    clean = new_leader.submit("clean-entry")
    env.run(until=18000.0)
    orphan.restart()
    env.run(until=35000.0)
    assert all(e.txn != "orphan-entry" for e in orphan.log)
    # Its tail is off the new leader's history, so it rejoined by SNAP:
    # the clean entry is below its log, in the state it installed.
    assert orphan.log.base >= clean and orphan._last_applied >= clean
    assert orphan.state == PeerState.FOLLOWING


def test_two_voter_ensemble_blocks_on_single_failure():
    """Quorum of 2-voter ensemble is 2: one crash halts progress (no
    split-brain)."""
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, voter_sites=(VIRGINIA,) * 2)
    env.run(until=1000.0)
    leader = leader_of(peers)
    follower = next(p for p in peers if p is not leader)
    follower.crash()
    env.run(until=10000.0)
    assert not leader.is_leader  # stepped down; no quorum


def test_commits_delivered_metric():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    for peer in peers:
        peer.on_commit = lambda zxid, txn: None
    env.run(until=1000.0)
    leader = leader_of(peers)
    for i in range(7):
        leader.submit(f"m{i}")
    env.run(until=3000.0)
    for peer in peers:
        assert peer.commits_delivered == 7


def test_packed_zxid_is_zookeeper_layout():
    zxid = Zxid(3, 17)
    assert zxid.packed() == (3 << 32) | 17


def test_peer_start_twice_rejected():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, start=False)
    peers[0].start()
    with pytest.raises(RuntimeError):
        peers[0].start()


def test_restart_running_peer_rejected():
    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo)
    with pytest.raises(RuntimeError):
        peers[0].restart()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_observer_that_loses_informs_resyncs_and_converges(seed):
    """Informs carry committed state over links that may drop them, and an
    observer used to append whatever came next: it applied past the hole,
    and its tail was then beyond anything a DIFF could fill. It must detect
    the gap like a follower does — and notice from the leader's pings when
    the lost Inform was the last one."""
    from repro.experiments.common import build_world
    from repro.net import LinkProfile
    from tests.support import run_app

    world = build_world("zk_observer", seed=seed)
    env, net, deployment = world.env, world.net, world.deployment
    for site in (CALIFORNIA, FRANKFURT):
        net.degrade(VIRGINIA, site, LinkProfile(loss=0.2))
    client = world.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/k", b"0")
        for i in range(200):
            yield client.set_data("/k", b"%d" % i)
        for i in range(19):
            yield client.create(f"/k/c{i}", b"")

    run_app(env, app())
    net.restore_all()
    env.run(until=env.now + 60000.0)
    leader = deployment.site_leader(VIRGINIA).peer
    observers = [s.peer for s in deployment.servers if s.peer.is_observer]
    assert len(observers) == 2 and len(leader.log) >= 220
    assert [len(peer.log) for peer in observers] == [len(leader.log)] * 2
    assert len(set(deployment.tree_fingerprints().values())) == 1
    for peer in observers:
        assert [e.zxid for e in peer.log] == [e.zxid for e in leader.log]


def test_observer_that_loses_the_last_inform_learns_it_from_a_ping():
    """Nothing follows the last Inform to expose the gap; the leader's
    pings carry its commit point, and an observer checks it as a follower
    does."""
    from repro.net import LinkProfile

    env, topo, net = fresh()
    _config, peers = build_ensemble(env, net, topo, observer_sites=(CALIFORNIA,))
    observer = peers[-1]
    applied = []
    observer.on_commit = lambda zxid, txn: applied.append(txn)
    env.run(until=2000.0)
    leader = leader_of(peers[:3])
    leader.submit("first")
    env.run(until=3000.0)
    # Shorter than the election timeout: the observer never goes probing.
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0), symmetric=False)
    leader.submit("lost")
    env.run(until=env.now + 120.0)
    net.restore_all()
    assert applied == ["first"]
    env.run(until=env.now + 2000.0)
    assert [entry.txn for entry in observer.log] == ["first", "lost"]
    assert applied == ["first", "lost"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("victim_site", [VIRGINIA, FRANKFURT])
def test_a_voter_restarted_mid_election_is_not_told_to_follow_itself(
    seed, victim_site
):
    """Crashed and restarted within a millisecond of the first election,
    a voter whose vote from before the crash the others elected hears
    from them that it leads. Joining "itself" as a follower sent it a
    FollowerInfo, and from then on the peers vouched for each other's
    phantom leaders: the ensemble stayed leaderless, every epoch 0. It
    must vote again instead, and the ensemble elect."""
    from repro.zk import build_zk_deployment
    from tests.support import fresh_world

    env, topo, net = fresh_world(seed=seed)
    deployment = build_zk_deployment(
        env, net, topo, voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT)
    )
    deployment.start()
    victim = deployment.by_site[victim_site][0]
    victim.crash()
    env.run(until=1.0)
    victim.restart()
    env.run(until=60000.0)
    assert any(server.is_leader for server in deployment.servers)
    assert all(server.peer.current_epoch > 0 for server in deployment.servers)
