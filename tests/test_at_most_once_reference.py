"""One at-most-once table against the two it replaced, in twin worlds.

Each test builds two seeded worlds that differ only in the server class:
the product (``apply_counts`` is the one table; every table shares the
txn's own ``key``) and ``tests/reference_at_most_once.py`` (the reply
cache beside a separately bounded count probe, tuples built per replica).
Both run the same client schedule in lockstep, one slice of sim time at a
time, on every stack we ship — wk x zab, zk x zab, zk x wpaxos — clean,
and with 2 % loss and duplication on every WAN link, a leader crash and
restart, (with the log window cut to 2 entries) a follower that rejoins
by SNAP, and a committed write routed a second time. After each slice
the sends, the clients' histories, every replica's commit and apply
sequence, the at-most-once counters and the kernel's event sequence must
agree; at the end so must ``apply_counts`` and the replies the origins
keep. The twins are ``tests/twins.py``'s.
"""

import pytest

from repro.wankeeper import deployment as wk_deployment
from repro.wankeeper.tokens import token_keys
from repro.wpaxos.messages import ResyncSnap
from repro.substrate import peer as substrate_peer
from repro.zab.messages import Snap
from repro.zk import deployment as zk_deployment
from repro.zk.ops import SetDataOp

from tests.reference_at_most_once import (
    ReferenceWanKeeperServer,
    ReferenceZkServer,
    TwoTableAtMostOnce,
)
from tests.twins import SITES, Twin, run_twins

KEYS = tuple(f"/amo/k{i}" for i in range(4))
OPS_PER_CLIENT = 40
CLIENTS_PER_SITE = 2
STACKS = ("wk-zab", "zk-zab", "zk-wpaxos")


def state_as_sent(body):
    """A state transfer's state is a fresh copy per send: compare the
    rest of it."""
    if isinstance(body, Snap):
        body = (Snap, body.sender, body.zxid, body.entries)
    elif isinstance(body, ResyncSnap):
        body = (ResyncSnap, body.applied, body.entries)
    return repr(body)


def world(stack, reference, seed, faulty):
    """One twin on the product's servers or on the reference's."""
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(zk_deployment, "ZkServer", ReferenceZkServer)
            patch.setattr(
                wk_deployment, "WanKeeperServer", ReferenceWanKeeperServer
            )
        twin = Twin(stack, seed, normalize=state_as_sent,
                    jitter=0.1 if faulty else 0.0)
    assert all(isinstance(s, TwoTableAtMostOnce) == reference
               for s in twin.servers)
    twin.writes = []
    for server in twin.servers:
        record_writes(twin, server)
    # Under faults the clients give up on a reply early: their retries
    # reach the origin after the commit, or race it into a second one.
    twin.start_clients(SITES * CLIENTS_PER_SITE, keys=KEYS, ops=OPS_PER_CLIENT,
                       write_share=0.7, pace=(20.0, 200.0),
                       timeout_ms=300.0 if faulty else 3000.0)
    return twin


def record_writes(twin, server):
    """Keep each set_data ``server`` applies in ``twin.writes``, in order
    over all replicas: the replay routes one of them again."""
    commit_client_txn = server._commit_client_txn

    def applied(zxid, txn):
        outcome = commit_client_txn(zxid, txn)
        if isinstance(txn.op, SetDataOp):
            twin.writes.append(txn)
        return outcome

    server._commit_client_txn = applied


def snap_a_follower(twin):
    """Crash a live follower of the leader (on wpaxos, where every voter
    leads, a voter of another site): with the log window at 2 entries it
    falls below the others' logs, and rejoins by SNAP (ResyncSnap)."""
    deployment = twin.deployment
    if twin.stack == "zk-wpaxos":
        candidates = [s for s in twin.servers if s.site != twin.leader_site]
    else:
        # California's site leader on wk; on zk the ensemble's, in
        # whichever site the crash moved it to.
        leader = (deployment.site_leader(twin.leader_site)
                  or next(filter(None, map(deployment.site_leader, SITES))))
        candidates = [s for s in twin.servers if s is not leader
                      and s.peer.leader_addr == leader.peer.addr]
    twin.snapped = next(s for s in candidates if s.is_alive)
    twin.snapped.crash()


def rejoin_by_snap(twin):
    twin.snapped.restart()


def replay_a_committed_write(twin):
    """Route the latest committed set_data again, as a re-routed in-flight
    write does after a leader change: it commits a second time and every
    replica must suppress it."""
    txn = twin.writes[-1]
    deployment = twin.deployment
    if twin.stack == "zk-wpaxos":
        # Any other voter takes it as new: it steals the object.
        router = next(s for s in twin.servers if s.client_addr != txn.origin)
    elif twin.stack == "wk-zab":
        # The token holder commits it at once; a hub *admit* would see
        # the id in _seen_wan_ids and drop it, and so would the hub a
        # site forwards to while its grant is still on the way.
        hub = deployment.hub_leader
        for txn in reversed(twin.writes):
            (key,) = token_keys(txn.op)
            owner = hub.hub_tokens.where(key)
            router = hub if owner is None else deployment.site_leader(owner)
            if owner is None or router.site_tokens.holds(key):
                break
    else:
        # The ensemble's leader, in whichever site the crash moved it to.
        router = next(filter(None, map(deployment.site_leader, SITES)))
    router._route_write(txn)
    twin.replayed = (router.name, txn)


#: (offset ms, action): loss from the first write, a leader down and back,
#: a SNAP on zab, a committed write routed again, then repair and a quiet
#: tail.
FAULTS = [(0.0, Twin.lossy), (3000.0, Twin.crash_leader),
          (5500.0, Twin.restart_crashed), (8000.0, snap_a_follower),
          (10000.0, replay_a_committed_write), (13000.0, rejoin_by_snap),
          (14000.0, Twin.heal)]


def counters(twin):
    return [(s.name, s.duplicate_commits_suppressed, s.replies_from_cache,
             s.commits_applied, s.writes_accepted) for s in twin.servers]


def apply_counts(twin):
    return {s.name: list(s.apply_counts.items()) for s in twin.servers}


def stored_replies(twin, reference):
    if reference:
        return {s.name: {k: v for k, v in s._reply_cache.items()
                         if v is not None} for s in twin.servers}
    return {s.name: dict(s._replies) for s in twin.servers}


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("stack", STACKS)
def test_one_table_matches_the_two_it_replaced(stack, faulty, monkeypatch):
    seed = 61
    if faulty:
        monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 2)
    product = world(stack, reference=False, seed=seed, faulty=faulty)
    reference = world(stack, reference=True, seed=seed, faulty=faulty)
    twins = (product, reference)
    run_twins(product, reference, FAULTS if faulty else [], 30000.0,
              ["sent", "history", *(f"logs[{s.name}]" for s in product.servers)],
              same=(counters,))
    assert all(p.triggered and p.ok for twin in twins for p in twin.procs)

    assert apply_counts(product) == apply_counts(reference)
    assert (stored_replies(product, reference=False)
            == stored_replies(reference, reference=True))
    assert product.failures == reference.failures
    trees = [s.tree.fingerprint() for s in product.servers]
    assert trees == [s.tree.fingerprint() for s in reference.servers]
    if stack != "zk-wpaxos" or not faulty:
        # Under loss a WPaxos voter can miss the Learn of an object's last
        # chosen slot; only a later Learn on that object reveals the hole,
        # so this schedule may leave one voter a write behind in both
        # worlds (pinned as a strict xfail in tests/test_wpaxos_window.py).
        assert len(set(trees)) == 1
    # The schedule reached the at-most-once paths it is meant to pin.
    writes = len(SITES) * CLIENTS_PER_SITE * OPS_PER_CLIENT // 2
    assert sum(s.commits_applied for s in product.servers) > writes
    if faulty:
        assert product.replayed[0] == reference.replayed[0]
        assert sum(s.duplicate_commits_suppressed for s in product.servers) > 0
        assert sum(s.replies_from_cache for s in product.servers) > 0
        assert all(max(s.apply_counts.values()) == 1 for s in product.servers)
        assert product.snapped.name == reference.snapped.name
        assert product.installs[product.snapped.name]
        assert product.installs == reference.installs
