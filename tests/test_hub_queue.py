"""The level-2 broker's wait queue: oracle, cost counts, admin pins.

``ReferenceHubBroker`` is the scan-everything pump the keyed wait index
replaced: one list, a full FIFO pass on every pump, a queue walk for every
"is this key wanted" question. It lives here as a differential oracle —
both brokers are driven alone (stub consensus, recorded sends), each inside
a real ``WanKeeperServer`` (``ReferenceHubServer`` hosts the oracle),
through the same seeded schedules and must serialize, grant, recall and
invalidate identically, instant for instant. The one deliberate difference from the
pre-index code is shared by both: a queued admin pin counts as wanting its
keys (see ``test_queued_admin_pin_blocks_the_policy_grant``).
"""

import random
from collections import deque

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.net.topology import NodeAddress
from repro.sim import Environment, seeded_rng
from repro.wankeeper.fractional import (
    ReadInvalidate,
    ReadInvalidateAck,
    ReadLeaseRequest,
)
from repro.wankeeper.hubqueue import HubBroker, HubQueue, QueuedTxn
from repro.wankeeper.messages import (
    TokenRecall,
    TokenReturn,
    TokenSyncOp,
    WanSubmit,
    WanTxn,
)
from repro.wankeeper.policy import AlwaysMigratePolicy, ConsecutiveAccessPolicy
from repro.wankeeper.server import HUB, WanConfig, WanKeeperServer
from repro.wankeeper.tokens import HubTokenState, token_key, token_keys
from repro.zab.config import EnsembleConfig
from repro.zab.zxid import Zxid
from repro.zk.ops import (
    CloseSessionOp,
    CreateOp,
    MultiOp,
    SetDataOp,
    Txn,
)

TOKYO = "tokyo"
REMOTE_SITES = (CALIFORNIA, FRANKFURT, TOKYO)
KEYS = tuple(f"/k{i}" for i in range(6))


# --------------------------------------------------------------- the oracle


class _ListQueue:
    """The pre-index queue: a list plus a hand-synchronised id set."""

    def __init__(self):
        self.items = []
        self.ids = set()
        # The product's commit hooks poke these; the oracle ignores them.
        self.stale = False
        self.waiters = {}

    def __contains__(self, wan_id):
        return wan_id in self.ids

    def add(self, entry):
        self.items.append(entry)
        self.ids.add(entry.wan_id)


class ReferenceHubBroker(HubBroker):
    """HubBroker with the scan-everything pump."""

    def __init__(self, host):
        super().__init__(host)
        self.queue = _ListQueue()

    def _needed(self, entry):
        if entry.admin_keys is not None:
            return set(entry.admin_keys)
        op = entry.txn.op
        if isinstance(op, CloseSessionOp):
            return {
                token_key(path)
                for path in self.host.tree.ephemerals_of(op.session_id)
            }
        return token_keys(op)

    def key_wanted(self, key):
        return any(key in self._needed(entry) for entry in self.queue.items)

    def pump(self):
        host = self.host
        if not host.peer.is_leader:
            return
        if self.pumping:
            self.pump_again = True
            return
        self.pumping = True
        try:
            progress = True
            while progress:
                progress = False
                self.pump_again = False
                for entry in list(self.queue.items):
                    if entry not in self.queue.items:
                        continue
                    needed = self._needed(entry)
                    missing = {
                        key for key in needed if not host.hub_tokens.at_hub(key)
                    }
                    lease_holders = host._reads.live_holders(needed)
                    if missing or lease_holders:
                        if missing:
                            self.request_recalls(missing)
                        if lease_holders:
                            host._reads.send_invalidates(lease_holders)
                        continue
                    self.queue.items.remove(entry)
                    self.queue.ids.discard(entry.wan_id)
                    self.serialize(
                        entry.txn, needed, entry.origin_site,
                        admin_grant=entry.admin_grant,
                    )
                    progress = True
                progress = progress or self.pump_again
        finally:
            self.pumping = False


class ReferenceHubServer(WanKeeperServer):
    """WanKeeperServer hosting the reference broker."""

    def _reset_wan_leader_state(self):
        super()._reset_wan_leader_state()
        self._hub = ReferenceHubBroker(self)
        self._wan_handlers = self._wan_handler_table()


# -------------------------------------------------------------- the harness


class _StubPeer:
    """Consensus stand-in: this server leads, commits are ours to time."""

    is_leader = True

    def __init__(self, server, sync):
        self.server = server
        self.sync = sync  # single-voter ensemble: submit commits re-entrantly
        self.pending = deque()
        self.committed = 0
        self.proposals = []

    def submit(self, payload):
        now = self.server.env.now
        if isinstance(payload, WanTxn):
            self.proposals.append((
                now, "wan-txn", payload.wan_id, payload.serialized_at,
                tuple((g.key, g.site) for g in payload.grants),
            ))
        else:
            self.proposals.append((now, type(payload).__name__, repr(payload)))
        if self.sync:
            self._commit(payload)
        else:
            self.pending.append(payload)

    def commit_next(self):
        if self.pending:
            self._commit(self.pending.popleft())

    def _commit(self, payload):
        self.committed += 1
        self.server._on_commit(Zxid(1, self.committed), payload)


class _SendLog:
    def __init__(self, env):
        self.env = env
        self.sent = []

    def send(self, src, dst, msg):
        self.sent.append((self.env.now, str(dst), repr(msg)))

    def of_type(self, cls):
        prefix = cls.__name__
        return [row for row in self.sent if row[2].startswith(prefix)]


class Broker:
    """One hub leader driven alone, through its real entry points."""

    def __init__(self, cls, sync, policy=AlwaysMigratePolicy):
        self.env = Environment()
        topo = wan_topology()
        net = Network(self.env, topo, rng=seeded_rng(1, "net"))
        zab_addr = NodeAddress(VIRGINIA, "wk0.zab")
        self.addr = NodeAddress(VIRGINIA, "wk0")
        wan = WanConfig(
            sites=(VIRGINIA,) + REMOTE_SITES,
            l2_site=VIRGINIA,
            site_server_addrs={VIRGINIA: (self.addr,)},
            policy_factory=policy,
            read_mode="fractional",
            read_lease_ms=900.0,
        )
        self.hub = cls(
            self.env, net, zab_addr, self.addr,
            EnsembleConfig(voters=[zab_addr]), wan, name="hub",
        )
        self.peer = self.hub.peer = _StubPeer(self.hub, sync)
        self.net = self.hub.net = _SendLog(self.env)
        self.leaders = {site: NodeAddress(site, "wk0") for site in REMOTE_SITES}
        self.hub._site_leaders.update(self.leaders)
        self.cxid = 0
        self.submitted = []
        self.lease_requests = 0
        # Records every key under test exists, so lease reads succeed.
        for path in KEYS + ("/e",):
            self.hub_write(CreateOp(path, b"0"))
        self.settle()

    # -- inputs ---------------------------------------------------------

    def _txn(self, session, op, site):
        self.cxid += 1
        return Txn(session, self.cxid, NodeAddress(site, "wk0"), op)

    def hub_write(self, op, session="hub-s"):
        self.hub._leader_route(self._txn(session, op, VIRGINIA))

    def submit(self, site, op, session=None):
        txn = self._txn(session or f"{site}-s", op, site)
        self.submitted.append((site, txn))
        self.resubmit(len(self.submitted) - 1)
        return txn

    def resubmit(self, index):
        site, txn = self.submitted[index % len(self.submitted)]
        self.hub._on_client_message(
            self.leaders[site], WanSubmit(site, self.leaders[site], txn)
        )

    def away(self):
        return sorted(self.hub.hub_tokens.location)

    def give_back(self, key):
        owner = self.hub.hub_tokens.where(key)
        self.hub._on_client_message(
            self.leaders[owner], TokenReturn(owner, self.leaders[owner], (key,))
        )

    def token_sync(self, site, keys):
        self.peer.submit(TokenSyncOp(site, tuple(keys)))

    def lease(self, site, key):
        self.lease_requests += 1
        reader = NodeAddress(site, "wk1")
        self.hub._on_client_message(
            reader,
            ReadLeaseRequest(reader, site, key, key, "data", self.lease_requests),
        )

    def lease_ack(self, index):
        held = sorted(
            (key, holder)
            for key, holders in self.hub._reads.holders.items()
            for holder in holders
        )
        if held:
            key, holder = held[index % len(held)]
            self.hub._on_client_message(
                holder, ReadInvalidateAck(holder, (key,))
            )

    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    def tick(self):
        self.hub._wan_tick()

    def settle(self):
        while self.peer.pending:
            self.peer.commit_next()

    # -- observations ---------------------------------------------------

    def serialized(self):
        return [row for row in self.peer.proposals
                if row[1] == "wan-txn" and row[3] == HUB]

    def observed(self):
        hub = self.hub
        return (
            self.peer.proposals,
            self.net.sent,
            sorted(hub.hub_tokens.location.items()),
            sorted(hub._hub.recall_sent_at.items()),
            sorted(hub._reads.holders),
            hub.tokens_granted,
            hub.tokens_recalled,
        )

    def queued_ids(self):
        queue = self.hub._hub.queue
        if isinstance(queue, HubQueue):
            return list(queue.entries)
        return [entry.wan_id for entry in queue.items]


# ----------------------------------------------------- differential oracle


def _schedule(rng, steps):
    """Seeded broker inputs; state-dependent picks are made by index so
    the same schedule drives both brokers.

    Leases and session teardowns force a full pass on every pump, so each
    seed switches them on or off: schedules without them live on the
    skip-the-pass path, schedules with them on the wake-up conditions.
    """
    weights = {
        "write": 26, "hub-write": 5, "multi": 6, "pin": 4, "return": 14,
        "sync": 2, "resubmit": 3, "commit": 12, "tick": 3, "advance": 7,
        "ephemeral": rng.choice((0, 5)), "close": rng.choice((0, 4)),
        "lease": rng.choice((0, 6, 14)), "lease-ack": rng.choice((0, 4, 8)),
    }
    kinds = sorted(weights)
    sites = (VIRGINIA,) + REMOTE_SITES
    delays = (0.1, 1.0, 33.3, 100.0, 133.7, 399.9, 400.0, 950.0)
    ops = []
    for kind in rng.choices(kinds, [weights[k] for k in kinds], k=steps):
        site = rng.choice(REMOTE_SITES)
        key = rng.choice(KEYS)
        pick = rng.randrange(1 << 16)
        args = {
            "write": (site, key),
            "hub-write": (key,),
            "multi": (site, key, KEYS[pick % len(KEYS)]),
            "ephemeral": (site, pick % 3, pick % 4),
            "close": (site, pick % 3),
            "pin": (key, sites[pick % len(sites)]),
            "return": (pick,),
            "sync": (site, pick, key),
            "lease": (site, key),
            "lease-ack": (pick,),
            "resubmit": (pick,),
            "commit": (1 + pick % 3,),
            "tick": (),
            "advance": (delays[pick % len(delays)],),
        }[kind]
        ops.append((kind,) + args)
    return ops


def _apply(broker, op):
    kind = op[0]
    if kind == "write":
        broker.submit(op[1], SetDataOp(op[2], b"w"))
    elif kind == "hub-write":
        broker.hub_write(SetDataOp(op[1], b"h"))
    elif kind == "multi":
        broker.submit(op[1], MultiOp((SetDataOp(op[2], b"a"),
                                      SetDataOp(op[3], b"b"))))
    elif kind == "ephemeral":
        _, site, session, node = op
        broker.submit(site, CreateOp(f"/e/s{session}n{node}", ephemeral=True),
                      session=f"eph-{session}")
    elif kind == "close":
        broker.submit(op[1], CloseSessionOp(f"eph-{op[2]}"))
    elif kind == "pin":
        broker.hub.assign_token(op[1], op[2])
    elif kind == "return":
        away = broker.away()
        if away:
            broker.give_back(away[op[1] % len(away)])
    elif kind == "sync":
        _, site, cut, extra = op
        held = sorted(broker.hub.hub_tokens.held_by(site))
        broker.token_sync(site, held[: cut % (len(held) + 1)] + [extra])
    elif kind == "lease":
        broker.lease(op[1], op[2])
    elif kind == "lease-ack":
        broker.lease_ack(op[1])
    elif kind == "resubmit":
        if broker.submitted:
            broker.resubmit(op[1])
    elif kind == "commit":
        for _ in range(op[1]):
            broker.peer.commit_next()
    elif kind == "tick":
        broker.tick()
    elif kind == "advance":
        broker.advance(op[1])
    else:  # pragma: no cover - schedule generator and applier disagree
        raise AssertionError(op)


def _drain(broker):
    """Bring every token home until the queue empties (bounded)."""
    for _ in range(200):
        broker.settle()
        if not broker.queued_ids() and not broker.away():
            return
        for key in broker.away():
            broker.give_back(key)
        broker.lease_ack(0)
        broker.advance(100.0)
        broker.tick()


@pytest.mark.parametrize("sync", [False, True], ids=["quorum", "single-voter"])
@pytest.mark.parametrize(
    "policy", [AlwaysMigratePolicy, ConsecutiveAccessPolicy],
    ids=["always", "consecutive"],
)
def test_indexed_pump_matches_reference_pump(sync, policy):
    exercised = {"queued": 0, "recalls": 0, "invalidates": 0, "grants": 0}
    for seed in range(12):
        ops = _schedule(random.Random(f"hub-queue:{seed}"), 260)
        indexed = Broker(WanKeeperServer, sync, policy)
        reference = Broker(ReferenceHubServer, sync, policy)
        for step, op in enumerate(ops):
            _apply(indexed, op)
            _apply(reference, op)
            where = f"seed {seed} step {step} {op}"
            assert indexed.queued_ids() == reference.queued_ids(), where
            assert indexed.observed() == reference.observed(), where
            exercised["queued"] = max(exercised["queued"],
                                      len(indexed.queued_ids()))
        _drain(indexed)
        _drain(reference)
        assert indexed.observed() == reference.observed(), f"seed {seed} drain"
        assert indexed.queued_ids() == reference.queued_ids() == []
        # The index must be empty exactly when the queue is.
        queue = indexed.hub._hub.queue
        assert not queue.waiters and not queue.tree_dependent and not queue.fresh
        exercised["recalls"] += len(indexed.net.of_type(TokenRecall))
        exercised["invalidates"] += len(indexed.net.of_type(ReadInvalidate))
        exercised["grants"] += indexed.hub.tokens_granted
    # The schedules must actually reach the paths under comparison.
    assert exercised["queued"] >= 16
    assert exercised["recalls"] >= 150
    assert exercised["invalidates"] >= 5
    assert exercised["grants"] >= 150


def test_synchronous_commits_reenter_the_pump_safely():
    """PR 6's crash: a single-voter hub commits inside ``serialize``,
    the commit hook pumps, and the outer pass must neither lose nor
    reorder the entries behind it."""
    broker = Broker(WanKeeperServer, sync=True, policy=ConsecutiveAccessPolicy)
    broker.token_sync(CALIFORNIA, ["/k0"])
    waiting = [broker.submit(FRANKFURT, SetDataOp("/k0", bytes([i])))
               for i in range(5)]
    assert len(broker.queued_ids()) == 5
    before = len(broker.serialized())
    broker.give_back("/k0")
    assert broker.queued_ids() == []
    assert [row[2] for row in broker.serialized()[before:]] == [
        (txn.session_id, txn.cxid) for txn in waiting
    ]


@pytest.mark.parametrize("cls", [WanKeeperServer, ReferenceHubServer])
def test_lease_expiry_noticed_outside_a_pass_wakes_the_queue(cls):
    """``_leader_route`` prunes expired leases too; when that empties
    ``_reads.holders`` nothing else would make the next pump look at the
    entry the lease was blocking."""
    broker = Broker(cls, sync=False, policy=ConsecutiveAccessPolicy)
    broker.lease(CALIFORNIA, "/k0")
    assert broker.hub._reads.holders
    broker.submit(FRANKFURT, SetDataOp("/k0", b"w"))
    assert len(broker.queued_ids()) == 1
    assert len(broker.net.of_type(ReadInvalidate)) == 1
    broker.advance(broker.hub.wan.read_lease_ms + 1.0)
    broker.hub_write(SetDataOp("/k0", b"h"))
    assert not broker.hub._reads.holders and len(broker.queued_ids()) == 1
    broker.settle()
    assert broker.queued_ids() == []


# ------------------------------------------------------- admin-pin bugfix


@pytest.mark.parametrize("sync", [False, True], ids=["quorum", "single-voter"])
def test_queued_admin_pin_blocks_the_policy_grant(sync):
    """A write queued ahead of ``assign_token(K, B)`` must not be handed K.

    Before the wait index counted ``admin_keys``, the write was serialized
    with a policy grant of K to its own site: a single-voter hub then
    recalled K a second time for the pin, and a quorum hub put two grants
    of one token in flight.
    """
    broker = Broker(WanKeeperServer, sync, AlwaysMigratePolicy)
    key = "/k0"
    broker.token_sync(TOKYO, [key])
    broker.settle()
    write = broker.submit(CALIFORNIA, SetDataOp(key, b"w"))
    broker.hub.assign_token(key, FRANKFURT)
    assert len(broker.queued_ids()) == 2
    before = len(broker.serialized())
    broker.give_back(key)
    broker.settle()
    broker.advance(2 * broker.hub.wan.recall_retry_ms)
    broker.tick()
    broker.settle()

    assert broker.queued_ids() == []
    recalls = broker.net.of_type(TokenRecall)
    assert len(recalls) == 1 and recalls[0][1] == str(broker.leaders[TOKYO])
    first, second = broker.serialized()[before:]
    assert first[2] == (write.session_id, write.cxid) and first[4] == ()
    assert second[4] == ((key, FRANKFURT),)
    assert broker.hub.hub_tokens.where(key) == FRANKFURT


# ------------------------------------------------------------ cost counts


class _Counters:
    def __init__(self, monkeypatch):
        self.at_hub = 0
        self.txn_eq = 0
        self.passes = 0
        real_at_hub = HubTokenState.at_hub
        real_eq = Txn.__eq__
        real_begin = HubQueue.begin_pass

        def at_hub(state, key):
            self.at_hub += 1
            return real_at_hub(state, key)

        def txn_eq(txn, other):
            self.txn_eq += 1
            return real_eq(txn, other)

        def begin_pass(queue):
            self.passes += 1
            return real_begin(queue)

        monkeypatch.setattr(HubTokenState, "at_hub", at_hub)
        monkeypatch.setattr(Txn, "__eq__", txn_eq)
        monkeypatch.setattr(HubQueue, "begin_pass", begin_pass)

    def take(self):
        counts = (self.at_hub, self.txn_eq, self.passes)
        self.at_hub = self.txn_eq = self.passes = 0
        return counts


def test_pump_cost_does_not_scale_with_queue_depth(monkeypatch):
    """No wall clock: the quadratic is pinned by counting probes."""
    depth = 256
    broker = Broker(WanKeeperServer, sync=False, policy=ConsecutiveAccessPolicy)
    blocked = [f"/b{i}" for i in range(depth)]
    broker.token_sync(CALIFORNIA, blocked)
    broker.settle()
    for key in blocked:
        broker.submit(FRANKFURT, SetDataOp(key, b"w"))
    assert len(broker.queued_ids()) == depth
    assert len(broker.net.of_type(TokenRecall)) == depth
    broker.hub_write(SetDataOp("/k1", b"h"))  # proposed, not yet committed

    counts = _Counters(monkeypatch)
    # A hub commit that moves no token pumps in O(1).
    broker.peer.commit_next()
    assert counts.take() == (0, 0, 0)
    for _ in range(3):
        broker.hub._hub.pump()
    assert counts.take() == (0, 0, 0)

    # Admitting entry 257 evaluates that entry alone.
    broker.submit(TOKYO, MultiOp((SetDataOp("/b0", b"m"), SetDataOp("/b1", b"m"))))
    assert len(broker.queued_ids()) == depth + 1
    assert counts.take() == (2, 0, 0)

    # One returned key: exactly one pass, each entry's keys probed once,
    # and the one entry it unblocks is serialized.
    before = len(broker.serialized())
    broker.give_back("/b7")
    assert counts.take() == (0, 0, 0)  # the accept is only proposed
    broker.peer.commit_next()
    assert counts.take() == (depth + 2, 0, 1)
    assert len(broker.serialized()) == before + 1
    assert len(broker.queued_ids()) == depth
    # ... and that entry's own commit finds nothing further to do.
    broker.peer.commit_next()
    assert counts.take() == (0, 0, 0)

    # The recall-retry watermark: nothing an instant before it is due,
    # one pass re-sending every outstanding recall at the instant it is.
    sent = len(broker.net.of_type(TokenRecall))
    first_stamp = min(broker.hub._hub.recall_sent_at.values())
    retry = broker.hub.wan.recall_retry_ms
    broker.env.run(until=first_stamp + retry - 0.001)
    broker.tick()
    assert counts.take() == (0, 0, 0)
    assert len(broker.net.of_type(TokenRecall)) == sent
    broker.env.run(until=first_stamp + retry)
    broker.tick()
    assert counts.take()[2] == 1
    assert len(broker.net.of_type(TokenRecall)) == sent + depth - 1
    broker.tick()
    assert counts.take() == (0, 0, 0)


def test_queued_txn_is_slotted_and_identity_compared():
    txn = Txn("s", 1, None, SetDataOp("/k0", b"x"))
    one, other = QueuedTxn(txn, "a"), QueuedTxn(txn, "a")
    assert one != other and one == one
    assert not hasattr(one, "__dict__")
    assert one.needed == {"/k0"} and one.wan_id == ("s", 1)
    assert one.admin_keys is None and one.admin_grant is None
    assert QueuedTxn(Txn("s", 2, None, CloseSessionOp("s")), "a").needed is None
