"""The replica commit path against the one it replaced.

``repro.zab`` keeps a positional log, tuple-ordered zxids, a one-hop inbox
consumer and an apply cursor; ``tests/reference_zab.py`` is the peer, log
and zxid from before that, registered here as substrate
``"zab-reference"``. Nothing about the protocol was meant to move, so the
two must be indistinguishable from outside: the same seeded world sends
the same messages at the same instants, delivers the same commits to every
replica (the reference then delivers them again from zero after a restart,
where the product resumes after what it delivered) and costs the kernel
the same number of events (less the two a
crash spends stopping the reference's generator ticker, which the product's
``Ticker`` does with a flag) — only the number of Python calls it takes
differs, and that is pinned at the bottom.
(``tests/test_substrate_contract.py`` runs its scenarios over the
reference as well.)
"""

import functools
import os
import random
import sys

import pytest

import repro.substrate.peer
import repro.zab
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.substrate import SUBSTRATES, SubstrateSpec
from repro.wankeeper import build_wankeeper_deployment
from repro.zk import ConnectionLossError, ZkError, build_zk_deployment
from tests import reference_zab, test_perf_golden
from tests.support import fresh_world

pytestmark = pytest.mark.usefixtures("zab_reference")

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)
#: Message fields that carry a zxid, whatever the message.
ZXID_FIELDS = ("zxid", "last_zxid", "last_committed", "committed_to", "truncate_to")
#: Whose leader the lossy run crashes: the zk ensemble's one leader, which
#: election puts in its leader site, or California's site leader.
VICTIM_SITE = {"zk": VIRGINIA, "wk": CALIFORNIA}


def pair(zxid):
    """A zxid of either implementation as a plain tuple."""
    return None if zxid is None else (zxid.epoch, zxid.counter)


class World:
    """One seeded deployment on one Zab implementation, with everything
    the two implementations must agree on recorded."""

    def __init__(self, system, substrate, seed, lossy):
        self.system = system
        self.lossy = lossy
        self.env, self.topo, self.net = fresh_world(
            seed=seed, jitter=0.1 if lossy else 0.0
        )
        if system == "zk":
            self.deployment = build_zk_deployment(
                self.env, self.net, self.topo, leader_site=VIRGINIA,
                voting_sites=SITES, substrate=substrate,
            )
        else:
            self.deployment = build_wankeeper_deployment(
                self.env, self.net, self.topo, l2_site=VIRGINIA,
                substrate=substrate,
            )
        self.sends = []  # (src, dst, message type, zxids, entry zxids, instant)
        self.commits = {}  # server -> [(zxid, txn repr)]
        self.net.tap(self._on_send)
        for server in self.deployment.servers:
            self._record_commits(server)
        self.deployment.start()
        self.deployment.stabilize()

    def _on_send(self, envelope):
        body = envelope.body
        self.sends.append((
            str(envelope.src), str(envelope.dst), type(body).__name__,
            tuple(pair(getattr(body, name, None)) for name in ZXID_FIELDS),
            tuple(pair(entry.zxid) for entry in getattr(body, "entries", ())),
            envelope.send_time,
        ))

    def _record_commits(self, server):
        log = self.commits[server.name] = []
        deliver = server.peer.on_commit

        @functools.wraps(deliver)
        def on_commit(zxid, txn):
            log.append((pair(zxid), repr(txn)))
            deliver(zxid, txn)

        server.peer.on_commit = on_commit

    def leader_to_crash(self):
        return self.deployment.site_leader(VICTIM_SITE[self.system])

    def run(self, seed, ops=60):
        env = self.env
        keys = [f"/d/k{index}" for index in range(12)]
        clients = [
            self.deployment.client(site, request_timeout_ms=1000.0)
            for site in SITES
        ]

        def boot():
            for client in clients:
                yield client.connect()
            yield clients[0].create("/d", b"")
            for key in keys:
                yield clients[0].create(key, b"")

        def actor(index, client):
            rng = random.Random(f"{seed}.{index}")
            for _ in range(ops):
                # Mostly the site's own keys, sometimes anyone's.
                own = keys[index * 4:index * 4 + 4]
                key = rng.choice(own if rng.random() < 0.8 else keys)
                try:
                    if rng.random() < 0.6:
                        yield client.set_data_retrying(
                            key, b"%d" % rng.randrange(1000), max_retries=10
                        )
                    else:
                        yield client.get_data_retrying(key, max_retries=10)
                except (ConnectionLossError, ZkError):
                    pass
                yield env.timeout(rng.uniform(0.0, 40.0))

        def nemesis():
            yield env.timeout(700.0)
            victim = self.leader_to_crash()
            victim.crash()
            yield env.timeout(1500.0)
            victim.restart()

        env.run(until=env.process(boot()))
        if self.lossy:
            # Inside the sites too: a WanKeeper ensemble never leaves one.
            for index, site_a in enumerate(SITES):
                for site_b in SITES[index:]:
                    self.net.degrade(site_a, site_b, AMBIENT)
            env.process(nemesis())
        actors = [env.process(actor(i, c)) for i, c in enumerate(clients)]
        env.run(until=env.all_of(actors))
        self.net.restore_all()
        env.run(until=env.now + 20000.0)
        return self


def first_deliveries(delivered):
    """Drop what a replay from zero delivers again: every delivery at or
    below the newest zxid delivered before it."""
    kept = []
    for zxid, txn in delivered:
        if not kept or zxid > kept[-1][0]:
            kept.append((zxid, txn))
    return kept


def first_divergence(label, new, old):
    for index, (a, b) in enumerate(zip(new, old)):
        if a != b:
            return f"{label} #{index}: zab {a!r} != zab-reference {b!r}"
    if len(new) != len(old):
        longer, name = (new, "zab") if len(new) > len(old) else (old, "zab-reference")
        at = min(len(new), len(old))
        return f"{label} #{at}: only {name} goes on, with {longer[at]!r}"
    return None


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("system", ["zk", "wk"])
def test_same_seeded_world_sends_commits_and_schedules_identically(
    system, seed, lossy
):
    new = World(system, "zab", seed, lossy).run(seed)
    old = World(system, "zab-reference", seed, lossy).run(seed)
    assert type(old.deployment.servers[0].peer) is reference_zab.ZabPeer
    assert type(new.deployment.servers[0].peer) is repro.zab.ZabPeer
    assert len(new.sends) > 1000 and all(new.commits.values())
    assert not first_divergence("send", new.sends, old.sends)
    assert sorted(new.commits) == sorted(old.commits)
    for server, delivered in new.commits.items():
        assert first_deliveries(delivered) == delivered
        assert not first_divergence(
            f"commit at {server}", delivered,
            first_deliveries(old.commits[server]),
        )
    assert new.env.now == old.env.now
    # The reference peer keeps the generator ticker that ``Ticker`` replaced
    # (the zk / wankeeper layers above it tick the same way in both worlds),
    # so this is also Ticker's differential test: same instants, same
    # sequence numbers, until a crash. Stopping a generator costs two
    # entries a flag needs neither of, the interrupt and the process's
    # completion; the lossy worlds crash one peer, once.
    peer_tickers_crashed = 1 if lossy else 0
    assert old.env._seq - new.env._seq == 2 * peer_tickers_crashed
    # And the run was a real one: every replica ends on the same tree.
    for world in (new, old):
        trees = {s.tree.fingerprint() for s in world.deployment.servers}
        assert len(trees) == 1
    if lossy:
        assert new.net.messages_dropped > 0 and new.net.messages_duplicated > 0


# -- the oracle is the old code ---------------------------------------------------


@pytest.mark.parametrize(
    "system, golden, peers",
    [("zk", test_perf_golden.GOLDEN_ZK_HISTORY, 3),
     ("wk", test_perf_golden.GOLDEN_WK_HISTORY, 9)],
)
def test_reference_zab_reproduces_the_golden_histories(
    monkeypatch, system, golden, peers
):
    made = []

    def factory(*args, **kwargs):
        made.append(reference_zab.ZabPeer(*args, **kwargs))
        return made[-1]

    # build_world takes the default substrate: answer to its name.
    monkeypatch.setitem(
        SUBSTRATES, "zab", SubstrateSpec("zab", factory, single_leader=True)
    )
    assert test_perf_golden.history_digest(system) == golden
    assert len(made) == peers
    assert all(type(peer.log) is reference_zab.TxnLog for peer in made)


# -- what one write costs in Python calls (counts, no wall clock) ----------------

# The peer base is counted with the backend, as the ledger folds
# repro.substrate frames into the backend under test.
ZAB_FILES = {
    os.path.join(os.path.dirname(repro.zab.__file__), name)
    for name in os.listdir(os.path.dirname(repro.zab.__file__))
    if name.endswith(".py")
} | {repro.substrate.peer.__file__, reference_zab.__file__}


def zab_calls_per_write(substrate, repeats=3):
    """Python frames entered in ``repro/zab/*.py`` and the peer base (or
    the reference) for one write through a follower of a one-site three-voter ensemble."""
    env, topo, net = fresh_world()
    deployment = build_zk_deployment(
        env, net, topo, leader_site=VIRGINIA, substrate=substrate,
    )
    deployment.start()
    deployment.stabilize()
    follower = next(s for s in deployment.servers if s is not deployment.leader)
    client = deployment.client(VIRGINIA)
    client.server_addr = follower.client_addr
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in ZAB_FILES:
            calls[0] += 1

    costs = []

    def app():
        yield client.connect()
        yield client.create("/k", b"0")
        # Off the 50 ms heartbeat grid, each window closed well before the
        # next tick: the only zab frames in it are this write's.
        yield env.timeout(50.0 - env.now % 50.0 + 7.3)
        for _ in range(repeats):
            calls[0] = 0
            outer = sys.getprofile()
            sys.setprofile(profiler)
            try:
                yield client.set_data("/k", b"1")
                yield env.timeout(10.0)  # the other follower's commit too
            finally:
                sys.setprofile(outer)
            costs.append(calls[0])

    env.run(until=env.process(app()))
    assert len(set(costs)) == 1, costs  # no background timer in the window
    delivered = {server.peer.commits_delivered for server in deployment.servers}
    assert len(delivered) == 1 and delivered.pop() >= 1 + repeats
    return costs[0]


def test_zab_calls_of_one_write_are_pinned(monkeypatch):
    """An extra hop on the commit path moves the first number, on any box.

    Product, 33: seven delivered messages (forward, two proposals, two
    acks, two commits) at one _on_envelope and one handler each; on the
    follower the client talks to, is_leader, forward_submit and _send; on
    the leader, is_leader, submit_dedup_id and _remember_submit twice
    (taking the forward in, then proposing it), _propose, is_leader for the
    zk layer's reply path, and one _maybe_commit; three log appends, three
    _apply_up_to, and a position_of under each follower's commit.
    Reference, 94: the same, plus a _dispatch per message, a _send per
    fan-out target, is_quorum -> quorum_size, _follows, last_zxid, and
    under all of it 15 packed(), 10 Zxid.__le__ and 9 Zxid.__hash__.
    """
    # The bare path, as the ledger runs it: the sentinel orders and hashes
    # the zxids it is shown, which costs the reference 7 more dunder calls.
    monkeypatch.setenv("REPRO_SENTINEL", "0")
    product = zab_calls_per_write("zab")
    reference = zab_calls_per_write("zab-reference")
    assert (product, reference) == (PINNED_PRODUCT, PINNED_REFERENCE)
    assert product < reference


PINNED_PRODUCT, PINNED_REFERENCE = 33, 94
