"""One at-most-once table against the two it replaced, in twin worlds.

Each test builds two seeded worlds that differ only in the server class:
the product (``apply_counts`` is the one table; every table shares the
txn's own ``key``) and ``tests/reference_at_most_once.py`` (the reply
cache beside a separately bounded count probe, tuples built per replica).
Both run the same client schedule in lockstep, one slice of sim time at a
time, on every stack we ship — wk x zab, zk x zab, zk x wpaxos — clean,
and with 2 % loss and duplication on every WAN link, a leader crash and
restart, (with the log window cut to 2 entries) a follower that rejoins
by SNAP, and a committed write routed a second time.
After each slice the sends, every replica's
commit and apply sequence, the at-most-once counters and the kernel's
event sequence must agree; at the end so must ``apply_counts`` and the
replies the origins keep.
"""

import itertools
import random

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper import deployment as wk_deployment
from repro.wankeeper.tokens import token_keys
from repro.wpaxos.messages import ResyncSnap
from repro.substrate import peer as substrate_peer
from repro.zab.messages import Snap
from repro.zk import ConnectionLossError, SessionExpiredError
from repro.zk import deployment as zk_deployment
from repro.zk.ops import SetDataOp

from tests.reference_at_most_once import (
    ReferenceWanKeeperServer,
    ReferenceZkServer,
    TwoTableAtMostOnce,
)
from tests.support import fresh_world, plain_zk

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
KEYS = tuple(f"/amo/k{i}" for i in range(4))
OPS_PER_CLIENT = 40
CLIENTS_PER_SITE = 2
SLICE_MS = 250.0
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)
STACKS = ("wk-zab", "zk-zab", "zk-wpaxos")


class World:
    """One deployment, its clients, and everything the twins compare."""

    def __init__(self, stack, reference, seed, faulty):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                patch.setattr(zk_deployment, "ZkServer", ReferenceZkServer)
                patch.setattr(
                    wk_deployment, "WanKeeperServer", ReferenceWanKeeperServer
                )
            env, topo, net = fresh_world(seed=seed, jitter=0.1 if faulty else 0.0)
            if stack == "wk-zab":
                deployment = build_wankeeper_deployment(env, net, topo)
                deployment.start()
                deployment.stabilize()
            else:
                deployment = plain_zk(
                    env, net, topo, substrate=stack.split("-")[1]
                )
        assert all(isinstance(s, TwoTableAtMostOnce) == reference
                   for s in deployment.servers)
        self.stack, self.env, self.net = stack, env, net
        self.deployment = deployment
        self.servers = deployment.servers
        self.sent = []
        net.tap(self._record_send)
        self.commits = {}
        self.writes = []
        self.installs = []
        for server in self.servers:
            self._record_commits(server)
            self._record_installs(server)
        self.failures = 0
        # Under faults the clients give up on a reply early: their retries
        # reach the origin after the commit, or race it into a second one.
        self.timeout_ms = 300.0 if faulty else 3000.0
        self.procs = [
            env.process(self._client(site, random.Random(seed * 100 + i), i == 0))
            for i, site in enumerate(SITES * CLIENTS_PER_SITE)
        ]

    def _record_send(self, envelope):
        body = envelope.body
        # A state transfer's state is a fresh copy per send.
        if isinstance(body, Snap):
            body = (Snap, body.sender, body.zxid, body.entries)
        elif isinstance(body, ResyncSnap):
            body = (ResyncSnap, body.applied, body.entries)
        self.sent.append((self.env.now, str(envelope.src), str(envelope.dst),
                          repr(body)))

    def _record_commits(self, server):
        log = self.commits[server.name] = []
        env = self.env
        on_commit = server.peer.on_commit
        commit_client_txn = server._commit_client_txn

        def committed(zxid, payload):
            log.append((env.now, "commit", repr(zxid), repr(payload)))
            on_commit(zxid, payload)

        def applied(zxid, txn):
            outcome = commit_client_txn(zxid, txn)
            log.append((env.now, "apply", txn.session_id, txn.cxid,
                        None if outcome is None else outcome.ok))
            if isinstance(txn.op, SetDataOp):
                self.writes.append(txn)
            return outcome

        if on_commit == commit_client_txn:
            on_commit = applied  # a ZkServer's peer hands its commits straight in
        server.peer.on_commit = committed
        server._commit_client_txn = applied

    def _record_installs(self, server):
        install = server.peer.install_state

        def installed(state):
            self.installs.append(server.name)
            install(state)

        server.peer.install_state = installed

    def _client(self, site, rng, creates_keys):
        env = self.env
        client = self.deployment.client(
            site, session_timeout_ms=30000.0, request_timeout_ms=self.timeout_ms
        )
        yield client.connect_retrying(max_retries=10)
        if creates_keys:
            for key in ("/amo",) + KEYS:
                yield client.create_retrying(key, b"", max_retries=10)
        else:
            yield env.timeout(1500.0)
        for n in range(OPS_PER_CLIENT):
            key = rng.choice(KEYS)
            try:
                if rng.random() < 0.7:
                    yield client.set_data_retrying(
                        key, f"{site}-{n}".encode(), max_retries=10
                    )
                else:
                    yield client.get_data_retrying(key, max_retries=10)
            except (ConnectionLossError, SessionExpiredError) as exc:
                self.failures += 1
                if isinstance(exc, SessionExpiredError):
                    client = self.deployment.client(
                        site, session_timeout_ms=30000.0,
                        request_timeout_ms=self.timeout_ms,
                    )
                    yield client.connect_retrying(max_retries=10)
            yield env.timeout(rng.uniform(20.0, 200.0))

    # -- faults -----------------------------------------------------------

    def lossy(self):
        for a, b in itertools.combinations(SITES, 2):
            self.net.degrade(a, b, AMBIENT)

    def heal(self):
        self.net.restore_all()

    def _leader(self):
        if self.stack == "wk-zab":
            return self.deployment.site_leader(CALIFORNIA)
        return self.deployment.leader

    def crash_leader(self):
        self.crashed = self._leader()
        self.crashed.crash()

    def restart_crashed(self):
        self.crashed.restart()

    def snap_a_follower(self):
        """Crash one follower of the leader (on wpaxos, where every voter
        leads, another voter): with the log window at 2 entries it falls
        below the others' logs, and rejoins by SNAP (ResyncSnap)."""
        leader = self._leader()
        self.snapped = next(
            s for s in self.servers
            if s is not leader and s.is_alive
            and (self.stack == "zk-wpaxos"
                 or s.peer.leader_addr == leader.peer.addr)
        )
        self.snapped.crash()

    def rejoin_by_snap(self):
        self.snapped.restart()

    def replay_a_committed_write(self):
        """Route the latest committed set_data again, as a re-routed
        in-flight write does after a leader change: it commits a second
        time and every replica must suppress it."""
        txn = self.writes[-1]
        if self.stack == "zk-wpaxos":
            # Any other voter takes it as new: it steals the object.
            router = next(s for s in self.servers if s.client_addr != txn.origin)
        elif self.stack == "wk-zab":
            # The token holder commits it at once; a hub *admit* would see
            # the id in _seen_wan_ids and drop it, and so would the hub a
            # site forwards to while its grant is still on the way.
            hub = self.deployment.hub_leader
            for txn in reversed(self.writes):
                (key,) = token_keys(txn.op)
                owner = hub.hub_tokens.where(key)
                router = hub if owner is None else self.deployment.site_leader(owner)
                if owner is None or router.site_tokens.holds(key):
                    break
        else:
            router = self._leader()
        router._route_write(txn)
        self.replayed = (router.name, txn)

    # -- observations -------------------------------------------------------

    def counters(self):
        return [(s.name, s.duplicate_commits_suppressed, s.replies_from_cache,
                 s.commits_applied, s.writes_accepted) for s in self.servers]

    def apply_counts(self):
        return {s.name: list(s.apply_counts.items()) for s in self.servers}

    def stored_replies(self, reference):
        if reference:
            return {s.name: {k: v for k, v in s._reply_cache.items()
                             if v is not None} for s in self.servers}
        return {s.name: dict(s._replies) for s in self.servers}


def _first_divergence(name, ours, theirs, start=0):
    for i in range(start, max(len(ours), len(theirs))):
        a = ours[i] if i < len(ours) else "<missing>"
        b = theirs[i] if i < len(theirs) else "<missing>"
        if a != b:
            return f"{name}[{i}]:\n  product   {a!r}\n  reference {b!r}"
    return None


def _lockstep(product, reference, until, cursors):
    """Run both worlds slice by slice up to ``until``, comparing as we go."""
    while product.env.now < until:
        stop = min(until, product.env.now + SLICE_MS)
        product.env.run(until=stop)
        reference.env.run(until=stop)
        found = _first_divergence("sent", product.sent, reference.sent,
                                  cursors.get("sent", 0))
        assert found is None, f"t={stop}: {found}"
        cursors["sent"] = len(product.sent)
        for name, log in product.commits.items():
            found = _first_divergence(f"commits[{name}]", log,
                                      reference.commits[name],
                                      cursors.get(name, 0))
            assert found is None, f"t={stop}: {found}"
            cursors[name] = len(log)
        assert product.counters() == reference.counters(), f"t={stop}"
        assert product.env._seq == reference.env._seq, f"t={stop}"


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("stack", STACKS)
def test_one_table_matches_the_two_it_replaced(stack, faulty, monkeypatch):
    seed = 61
    if faulty:
        monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 2)
    product = World(stack, reference=False, seed=seed, faulty=faulty)
    reference = World(stack, reference=True, seed=seed, faulty=faulty)
    twins = (product, reference)
    cursors = {}
    start = product.env.now
    assert reference.env.now == start
    if faulty:
        # (offset ms, action): loss from the first write, a leader down and
        # back, a SNAP on zab, a committed write routed again, then repair
        # and a quiet tail.
        steps = [(0.0, "lossy"), (3000.0, "crash_leader"),
                 (5500.0, "restart_crashed"), (8000.0, "snap_a_follower"),
                 (10000.0, "replay_a_committed_write"),
                 (13000.0, "rejoin_by_snap"), (14000.0, "heal")]
        for offset, action in steps:
            _lockstep(product, reference, start + offset, cursors)
            for world in twins:
                getattr(world, action)()
    _lockstep(product, reference, start + 30000.0, cursors)
    assert all(p.triggered and p.ok for world in twins for p in world.procs)

    assert product.apply_counts() == reference.apply_counts()
    assert (product.stored_replies(reference=False)
            == reference.stored_replies(reference=True))
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
        assert product.snapped.name in product.installs
        assert product.installs == reference.installs
