"""State transfer against the replay from zero it replaced, in twin worlds.

Each test builds two seeded worlds that differ only in the substrate
peer: the product (``zab`` / ``wpaxos``: a restart keeps the replica's
state and resumes at its applied point, the log keeps a window of applied
entries, and a learner below it takes a copy of another replica's state)
and ``tests/reference_replay.py`` (``zab-replay`` / ``wpaxos-replay``: a
restart, and a Zab SNAP, re-apply the whole durable log from zero, and
the log keeps everything). Both run the same client schedule in lockstep,
one slice of sim time at a time. On wk x zab and zk x zab: a clean run;
2 % loss and duplication with a leader crash and restart; and, with the
log window cut to 8 entries, a follower that is down long enough to
rejoin by SNAP. On zk x wpaxos (three voters a zone): a clean run; voters
crashed and restarted, with no ambient loss; and, with the window cut to
8 applies, a voter down long enough to rejoin by ResyncSnap. After each
slice the clients' histories, the messages sent (a DIFF, a SNAP, a
whole-log SNAP, a ResyncRsp and a ResyncSnap each count as one sync
message) and the kernel event count must agree; at the end so must the
trees, ``apply_counts`` (in order on zab; on wpaxos the reference replays
a restarted replica object by object, so only the contents), and
``replies_from_cache`` and ``duplicate_commits_suppressed`` — less what
the reference counts again while it replays, and what the product's
learner never applied because the state it installed already held it.
The last test pins the oracles' own reset: a replaying restart empties
the server above it, so the replay applies everything again.
"""

import itertools
import random

import pytest

from repro.invariants import InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.substrate import SUBSTRATES, SubstrateSpec
from repro.wankeeper import build_wankeeper_deployment
from repro.wpaxos.messages import ResyncRsp, ResyncSnap
from repro.wpaxos.peer import WPaxosPeer
from repro.zab import peer as zab_peer
from repro.zab.messages import Diff, Snap
from repro.zk import ConnectionLossError, SessionExpiredError, ZkError

from tests.reference_replay import WholeLogSnap
from tests.support import fresh_world, plain_zk, run_app, wpaxos_grid

pytestmark = pytest.mark.usefixtures("zab_replay", "wpaxos_replay")

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
KEYS = tuple(f"/st/k{i}" for i in range(6))
OPS_PER_CLIENT = 50
SLICE_MS = 250.0
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)
SYNC = (Diff, Snap, WholeLogSnap, ResyncRsp, ResyncSnap)


class World:
    """One deployment, its clients, and everything the twins compare."""

    def __init__(self, stack, substrate, seed, case):
        env, topo, net = fresh_world(seed=seed, jitter=0.1 if case == "lossy" else 0.0)
        if stack == "wk":
            deployment = build_wankeeper_deployment(env, net, topo, substrate=substrate)
            deployment.start()
            deployment.stabilize()
        elif stack == "zk":
            deployment = plain_zk(env, net, topo, substrate=substrate)
        else:
            deployment = wpaxos_grid(env, net, topo, substrate=substrate)
        self.stack, self.case, self.env, self.net = stack, case, env, net
        self.deployment = deployment
        self.servers = deployment.servers
        # The server a SNAP case takes down: one no client talks to.
        if stack == "wk":
            leader = deployment.site_leader(CALIFORNIA)
            self.victim = next(s for s in deployment.by_site[CALIFORNIA]
                               if s is not leader)
            self.homes = {site: deployment.site_leader(site) for site in SITES}
        else:
            self.victim = [s for s in self.servers if s.site == FRANKFURT][-1]
            self.homes = {site: next(s for s in self.servers if s.site == site)
                          for site in (VIRGINIA, CALIFORNIA)}
        self.sent, self.history = [], []
        net.tap(self._record_send)
        self.applies = {server.name: [] for server in self.servers}
        self.installs = {server.name: [] for server in self.servers}
        for server in self.servers:
            self._record_applies(server)
        self.procs = [
            env.process(self._client(i, site, random.Random(seed * 100 + i)))
            for i, site in enumerate(sorted(self.homes) * 2)
        ]

    def _record_send(self, envelope):
        body = envelope.body
        kind = "sync" if isinstance(body, SYNC) else repr(body)
        self.sent.append((self.env.now, str(envelope.src), str(envelope.dst), kind))

    def _record_applies(self, server):
        """Each apply as ``((domain, position), key, suppressed)``: one
        domain and the zxid on zab, the object and its slot on wpaxos. An
        install as ``(domain, low, high)``: it holds every position in
        ``(low, high]``."""
        log = self.applies[server.name]
        installs = self.installs[server.name]
        commit_client_txn = server._commit_client_txn
        peer = server.peer
        wpaxos = isinstance(peer, WPaxosPeer)

        def applied(zxid, txn):
            outcome = commit_client_txn(zxid, txn)
            where = (peer._object_of(txn), zxid.counter) if wpaxos else ("", zxid)
            log.append((where, txn.key, outcome is None))
            return outcome

        server._commit_client_txn = applied
        if wpaxos:
            install = peer._install

            def installed(msg, ahead):
                before = {obj: peer._applied.get(obj, 0) for obj in ahead}
                install(msg, ahead)
                points = dict(msg.applied)
                installs.extend((obj, before[obj] - 1, points[obj] - 1)
                                for obj in ahead)

            peer._install = installed
            return
        on_snap = peer._on_snap

        def snapped(src, msg):
            before = peer._last_applied
            on_snap(src, msg)
            if peer._last_applied != before:
                installs.append(("", before, msg.zxid))

        peer._handlers[Snap] = snapped

    def _client(self, index, site, rng):
        env = self.env
        client = self.deployment.client(site, session_timeout_ms=30000.0,
                                        request_timeout_ms=1000.0)
        client.server_addr = self.homes[site].client_addr
        yield client.connect_retrying(max_retries=10)
        if index == 0:
            for key in ("/st",) + KEYS:
                yield client.create_retrying(key, b"", max_retries=10)
        else:
            yield env.timeout(1500.0)
        for n in range(OPS_PER_CLIENT):
            key = rng.choice(KEYS)
            write = rng.random() < 0.6
            try:
                if write:
                    result = yield client.set_data_retrying(
                        key, f"{site}-{n}".encode(), max_retries=10
                    )
                    result = result.version
                else:
                    data, _stat = yield client.get_data_retrying(key, max_retries=10)
                    result = data
            except (ConnectionLossError, SessionExpiredError, ZkError) as exc:
                result = type(exc).__name__
            self.history.append((env.now, index, write, key, result))
            yield env.timeout(rng.uniform(10.0, 120.0))

    # -- faults ---------------------------------------------------------------

    def lossy(self):
        for a, b in itertools.combinations(SITES, 2):
            self.net.degrade(a, b, AMBIENT)

    def heal(self):
        self.net.restore_all()

    def crash_leader(self):
        self.crashed = (self.deployment.site_leader(CALIFORNIA)
                        if self.stack == "wk" else self.deployment.leader)
        self.crashed.crash()

    def crash_home(self):
        """The voter California's clients talk to, and the owner of what
        they last wrote."""
        self.crashed = self.homes[CALIFORNIA]
        self.crashed.crash()

    def crash_victim(self):
        self.crashed = self.victim
        self.crashed.crash()

    def restart_crashed(self):
        self.crashed.restart()

    # -- observations ---------------------------------------------------------

    def first_applies(self, name):
        """The apply events of one server less a replay's second delivery
        of a position."""
        seen = set()
        kept = []
        for event in self.applies[name]:
            if event[0] not in seen:
                seen.add(event[0])
                kept.append(event)
        return kept


def _first_divergence(name, ours, theirs, start):
    for i in range(start, max(len(ours), len(theirs))):
        a = ours[i] if i < len(ours) else "<missing>"
        b = theirs[i] if i < len(theirs) else "<missing>"
        if a != b:
            return f"{name}[{i}]:\n  zab        {a!r}\n  zab-replay {b!r}"
    return None


def _lockstep(product, reference, until, cursors):
    while product.env.now < until:
        stop = min(until, product.env.now + SLICE_MS)
        product.env.run(until=stop)
        reference.env.run(until=stop)
        for name in ("sent", "history"):
            ours, theirs = getattr(product, name), getattr(reference, name)
            found = _first_divergence(name, ours, theirs, cursors.get(name, 0))
            assert found is None, f"t={stop}: {found}"
            cursors[name] = len(ours)
        assert product.env._seq == reference.env._seq, f"t={stop}"


STEPS = {
    "clean": [],
    "lossy": [(0.0, "lossy"), (3000.0, "crash_leader"),
              (5500.0, "restart_crashed"), (14000.0, "heal")],
    "crash": [(3000.0, "crash_home"), (5500.0, "restart_crashed"),
              (7000.0, "crash_victim"), (9500.0, "restart_crashed")],
    "snap": [(2000.0, "crash_victim"), (7000.0, "restart_crashed")],
}
CASES = [(stack, case) for stack in ("wk", "zk")
         for case in ("clean", "lossy", "snap")]
CASES += [("zk-wpaxos", case) for case in ("clean", "crash", "snap")]


@pytest.mark.parametrize("stack,case", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_state_transfer_matches_replay_from_zero(stack, case, monkeypatch):
    if case == "snap":
        monkeypatch.setattr(zab_peer, "DIFF_WINDOW", 8)
    seed = 71
    substrate = "wpaxos" if stack == "zk-wpaxos" else "zab"
    product = World(stack, substrate, seed, case)
    reference = World(stack, f"{substrate}-replay", seed, case)
    twins = (product, reference)
    cursors = {}
    start = product.env.now
    assert reference.env.now == start
    for offset, action in STEPS[case]:
        _lockstep(product, reference, start + offset, cursors)
        for world in twins:
            getattr(world, action)()
    _lockstep(product, reference, start + 30000.0, cursors)
    assert all(p.triggered and p.ok for world in twins for p in world.procs)

    names = [s.name for s in product.servers]
    trees = [s.tree.fingerprint() for s in product.servers]
    assert trees == [s.tree.fingerprint() for s in reference.servers]
    assert len(set(trees)) == 1
    for ours, theirs in zip(product.servers, reference.servers):
        if substrate == "wpaxos":
            assert ours.apply_counts == theirs.apply_counts
        else:
            assert list(ours.apply_counts.items()) == list(theirs.apply_counts.items())
        assert ours.replies_from_cache == theirs.replies_from_cache
    # Apply by apply: what the product applied is what the reference
    # applied the first time, less what a SNAP's state already held.
    for name, ours, theirs in zip(names, product.servers, reference.servers):
        assert product.first_applies(name) == product.applies[name]
        skipped = [
            event for event in reference.first_applies(name)
            if any(domain == event[0][0] and low < event[0][1] <= high
                   for domain, low, high in product.installs[name])
        ]
        expected = [e for e in reference.first_applies(name) if e not in skipped]
        assert product.applies[name] == expected, name
        # The counters count exactly these events, on either side.
        for server, events in ((ours, expected),
                               (theirs, reference.applies[name])):
            suppressed = sum(e[2] for e in events)
            assert server.duplicate_commits_suppressed == suppressed, name
            assert server.commits_applied == len(events) - suppressed, name

    # The schedule reached the paths it is meant to pin.
    assert sum(s.commits_applied for s in product.servers) > 100
    if case != "clean":
        crashed = product.crashed.name
        assert reference.applies[crashed] != reference.first_applies(crashed)
        assert product.first_applies(crashed) == product.applies[crashed]
    installed = [name for name in names if product.installs[name]]
    if case == "snap":
        assert installed == [product.victim.name]
        assert not any(reference.installs.values())
    else:
        assert installed == []


# -- hand-made mutants of the WPaxos peer, each caught by a twin leg ----------


class RestartForgetsApplied(WPaxosPeer):
    """Mutant: a restart resets the applied points over the kept state."""

    def restart(self):
        self._applied = {}
        super().restart()


class CompactionOffByOne(WPaxosPeer):
    """Mutant: compaction drops the slot after the one leaving the window."""

    def _compact(self, count):
        window, applied, base = self._window, self._applied, self._base
        for _ in range(count):
            obj = window.popleft()
            slot = base.get(obj, 0)
            base[obj] = slot + 1
            chosen = self._chosen[obj]
            chosen.pop(slot - 1, None)
            if slot + 2 < applied[obj]:
                chosen.pop(slot + 1, None)


@pytest.mark.parametrize("mutant,case", [
    (RestartForgetsApplied, "crash"),
    (CompactionOffByOne, "snap"),
], ids=["restart-forgets-applied", "compaction-off-by-one"])
def test_the_wpaxos_twins_catch_a_mutant(mutant, case, monkeypatch):
    monkeypatch.setitem(SUBSTRATES, "wpaxos",
                        SubstrateSpec("wpaxos", mutant, single_leader=False))
    with pytest.raises((AssertionError, KeyError, InvariantViolation)):
        test_state_transfer_matches_replay_from_zero("zk-wpaxos", case, monkeypatch)


@pytest.mark.parametrize("stack", ["wk", "zk-wpaxos"])
def test_a_replaying_restart_rebuilds_its_server_from_empty(stack):
    """The oracles' default ``on_reset`` (``reset_server_above``) empties
    the server above the peer, WAN state included, so the replay applies
    every txn again instead of suppressing it as a duplicate."""
    env, topo, net = fresh_world(seed=5)
    if stack == "wk":
        deployment = build_wankeeper_deployment(env, net, topo, substrate="zab-replay")
        deployment.start()
        deployment.stabilize()
        leader = deployment.site_leader(CALIFORNIA)
        victim, sibling = [s for s in deployment.by_site[CALIFORNIA] if s is not leader]
    else:
        deployment = wpaxos_grid(env, net, topo, substrate="wpaxos-replay")
        victim, sibling = [s for s in deployment.servers if s.site == FRANKFURT][1:]
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/st", b"")
        for key in KEYS:
            yield client.create(key, b"")
            yield client.set_data(key, b"1")
        return True

    run_app(env, app())
    env.run(until=env.now + 1000.0)
    suppressed = victim.duplicate_commits_suppressed
    victim.crash()
    victim.restart()
    if stack == "wk":  # the replay waits for the leader's sync
        assert not any(victim.tree.exists(key) for key in KEYS)
        assert victim.apply_counts == {} and victim._seen_wan_ids == set()
    env.run(until=env.now + 3000.0)
    assert victim.tree.fingerprint() == sibling.tree.fingerprint()
    assert victim.duplicate_commits_suppressed == suppressed
