"""Each WanKeeper role alone: go-back-N sender, failover tally, lease tables.

No ``Network`` and no ``env.run``: the collaborators read their host through
a handful of named attributes, so a ``SimpleNamespace`` stands in for the
server and a list records what would have been sent.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.net.topology import NodeAddress
from repro.wankeeper.failover import L2Failover
from repro.wankeeper.fractional import (
    ReadInvalidate,
    ReadInvalidateAck,
    ReadLeaseGrant,
    ReadLeaseRequest,
    StrongReads,
)
from repro.wankeeper.messages import (
    L2PromotionRequest,
    L2PromotionVote,
    L2Promoted,
    WanEpochOp,
)
from repro.wankeeper.streams import GoBackN
from repro.wankeeper.tokens import HubTokenState, SiteTokenState
from repro.zk.errors import NoNodeError
from repro.zk.ops import GetDataOp
from repro.zk.protocol import OpReply, OpRequest

# ------------------------------------------------------------- go-back-N

WINDOW = 4
STALL_MS = 50.0


class _Receiver:
    """In-order receiver with a cumulative ack, as both stream ends are."""

    def __init__(self):
        self.accepted = []

    def on_data(self, seq):
        """Returns the ack to send back, or None for an out-of-order drop."""
        applied = len(self.accepted)
        if seq == applied + 1:
            self.accepted.append(seq)
            return seq
        return applied if seq <= applied else None


class _Link:
    """Sender, receiver and the two lossy channels between them."""

    def __init__(self):
        self.sender = GoBackN(acked=0)
        self.receiver = _Receiver()
        self.length = 0
        self.now = 0.0
        self.data = []
        self.acks = []

    def flush(self, rewind):
        sender = self.sender
        acked, floor = sender.acked, max(sender.sent, sender.acked or 0)
        due = sender.due(self.length, self.now, WINDOW, rewind)
        if acked is None:
            assert not due, "a new leader sent before hearing a watermark"
            return
        assert all(seq <= acked + WINDOW for seq in due), "sent past the window"
        assert all(seq <= self.length for seq in due), "sent past the log"
        if not rewind:
            assert all(seq > floor for seq in due), "resent without a stall"
        self.data.extend(due)

    def tick(self, dt):
        self.now += dt
        self.flush(rewind=self.sender.stalled(self.now, STALL_MS))


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "flush", "tick", "data", "data-dup", "data-drop",
             "ack", "ack-dup", "ack-drop", "new-leader", "watermark"]
        ),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(_STEPS)
def test_go_back_n_delivers_everything_once_in_order(steps):
    link = _Link()
    for kind, pick in steps:
        if kind == "append":
            link.length += 1 + pick % 5
        elif kind == "flush":
            link.flush(rewind=False)
        elif kind == "tick":
            link.tick((10.0, 40.0, 60.0)[pick % 3])
        elif kind.startswith("data") and link.data:
            index = pick % len(link.data)  # any position: reordering
            seq = link.data[index] if kind == "data-dup" else link.data.pop(index)
            if kind != "data-drop":
                ack = link.receiver.on_data(seq)
                if ack is not None:
                    link.acks.append(ack)
        elif kind.startswith("ack") and link.acks:
            index = pick % len(link.acks)
            seq = link.acks[index] if kind == "ack-dup" else link.acks.pop(index)
            if kind != "ack-drop":
                before = link.sender.acked or 0
                link.sender.ack(seq)
                assert link.sender.acked == max(before, seq)
        elif kind == "new-leader":
            link.sender = GoBackN()  # knows nothing until a watermark
        elif kind == "watermark":
            link.sender.ack(len(link.receiver.accepted))  # heartbeat
        assert link.receiver.accepted == list(
            range(1, len(link.receiver.accepted) + 1)
        )
    # The network heals: heartbeats, stall rewinds and in-order delivery
    # must finish the job however the schedule left things.
    for _ in range(link.length + 2):
        link.sender.ack(len(link.receiver.accepted))
        link.tick(STALL_MS + 1.0)
        for seq in sorted(link.data):
            ack = link.receiver.on_data(seq)
            if ack is not None:
                link.sender.ack(ack)
        link.data.clear()
    assert link.receiver.accepted == list(range(1, link.length + 1))


def test_go_back_n_window_stall_and_rewind():
    sender = GoBackN(acked=0)
    assert list(sender.due(10, 0.0, 4, False)) == [1, 2, 3, 4]
    assert list(sender.due(10, 1.0, 4, False)) == []  # window full
    sender.ack(2)
    assert list(sender.due(10, 2.0, 4, False)) == [5, 6]
    assert not sender.stalled(52.0, 50.0) and sender.stalled(52.1, 50.0)
    assert list(sender.due(10, 60.0, 4, True)) == [3, 4, 5, 6]
    sender.ack(1)  # a reordered, older ack never moves it back
    assert sender.acked == 2
    sender.ack(6)
    assert not sender.stalled(1e9, 50.0)  # nothing outstanding
    fresh = GoBackN()
    assert fresh.acked is None and list(fresh.due(10, 0.0, 4, True)) == []
    fresh.ack(0)  # a watermark of zero still ends the wait
    assert list(fresh.due(10, 0.0, 4, False)) == [1, 2, 3, 4]


# ------------------------------------------------------------ stub hosts

SITES = ("a", "b", "c", "d", "e")


def _addr(site, name="wk0"):
    return NodeAddress(site, name)


def _host(site, l2_site="c", **extra):
    sent, proposed = [], []
    wan = SimpleNamespace(
        sites=SITES,
        enable_l2_failover=True,
        l2_failover_timeout_ms=10000.0,
        site_server_addrs={s: (_addr(s), _addr(s, "wk1")) for s in SITES},
        read_mode="fractional",
        read_lease_ms=900.0,
        recall_retry_ms=400.0,
    )
    host = SimpleNamespace(
        env=SimpleNamespace(now=0.0),
        net=SimpleNamespace(send=lambda src, dst, msg: sent.append((dst, msg))),
        peer=SimpleNamespace(is_leader=True),
        client_addr=_addr(site),
        site=site,
        name=f"{site}/wk0",
        wan=wan,
        wan_epoch=0,
        current_l2_site=l2_site,
        is_hub_site=site == l2_site,
        sentinel=None,
        _trace=None,
        _propose=proposed.append,
        sent=sent,
        proposed=proposed,
        **extra,
    )
    return host


# -------------------------------------------------------- failover tally


def test_successor_is_the_smallest_non_hub_site():
    assert L2Failover(_host("b", l2_site="c")).successor_site() == "a"
    assert L2Failover(_host("b", l2_site="a")).successor_site() == "b"


def test_hub_is_presumed_alive_for_a_full_window_after_the_reset():
    host = _host("a")
    host.env.now = 5000.0
    failover = L2Failover(host)  # a new leader is fresh as of now
    host.env.now = 15000.0
    assert not failover.hub_looks_dead()
    host.env.now = 15000.1
    assert failover.hub_looks_dead()
    host.wan.enable_l2_failover = False
    assert not failover.hub_looks_dead()


def test_promotion_needs_a_majority_of_sites_and_commits_once():
    host = _host("a")
    failover = L2Failover(host)
    failover.start_promotion()
    # Asked every server of every other site but the (dead) hub's.
    asked = {dst.site for dst, msg in host.sent}
    assert asked == {"b", "d", "e"} and len(host.sent) == 6
    assert all(msg == L2PromotionRequest("a", host.client_addr, 1)
               for _dst, msg in host.sent)
    assert host.proposed == []  # own vote: 1 of 5
    failover.on_promotion_vote(_addr("b"), L2PromotionVote("b", _addr("b"), 1, True))
    failover.on_promotion_vote(_addr("b"), L2PromotionVote("b", _addr("b"), 1, True))
    assert host.proposed == []  # a repeated vote is still one site: 2 of 5
    failover.on_promotion_vote(_addr("d"), L2PromotionVote("d", _addr("d"), 1, True))
    assert host.proposed == [WanEpochOp(1, "a")]  # 3 of 5
    failover.on_promotion_vote(_addr("e"), L2PromotionVote("e", _addr("e"), 1, True))
    failover.start_promotion()  # the next tick, before the marker applies
    assert host.proposed == [WanEpochOp(1, "a")]


def test_stale_epoch_and_dissenting_votes_are_ignored():
    host = _host("a")
    failover = L2Failover(host)
    failover.start_promotion()
    for voter, epoch, agree in (("b", 0, True), ("d", 2, True), ("e", 1, False)):
        failover.on_promotion_vote(
            _addr(voter), L2PromotionVote(voter, _addr(voter), epoch, agree)
        )
    assert failover.promotion_votes == {"a"} and host.proposed == []
    host.peer.is_leader = False  # a deposed leader tallies nothing
    failover.on_promotion_vote(_addr("b"), L2PromotionVote("b", _addr("b"), 1, True))
    assert failover.promotion_votes == {"a"}


def test_a_site_votes_yes_only_for_the_successor_of_a_silent_hub():
    host = _host("b")
    failover = L2Failover(host)

    def vote(candidate, epoch):
        del host.sent[:]
        failover.on_promotion_request(
            _addr(candidate), L2PromotionRequest(candidate, _addr(candidate), epoch)
        )
        (dst, reply), = host.sent
        assert dst == _addr(candidate) and reply.voter_site == "b"
        return reply.agree

    assert not vote("a", 1)  # the hub was heard from within the window
    host.env.now = 10000.1
    assert vote("a", 1)
    assert not vote("d", 1)  # not the deterministic successor
    assert not vote("a", 2)  # not the next epoch
    failover.last_hub_contact = host.env.now
    assert not vote("a", 1)


def test_a_newer_epoch_announcement_is_adopted_through_the_log():
    host = _host("c")  # the demoted hub hears the new one
    failover = L2Failover(host)
    failover.on_promoted(_addr("a"), L2Promoted("a", 1, _addr("a")))
    assert host.proposed == [WanEpochOp(1, "a")]
    host.wan_epoch = 1
    failover.on_promoted(_addr("a"), L2Promoted("a", 1, _addr("a")))
    assert len(host.proposed) == 1


# ----------------------------------------------------------- lease tables


class _Tree:
    def get_data(self, path):
        if path == "/gone":
            raise NoNodeError(path)
        return (b"v", "stat")


def _reads_host(site, l2_site="c"):
    pumps = []
    hub = SimpleNamespace(
        queue=SimpleNamespace(stale=False),
        inflight_keys={},
        key_wanted=lambda key: False,
        request_recalls=lambda keys: pumps.append(("recall", sorted(keys))),
        pump=lambda: pumps.append("pump"),
    )
    replies = []
    host = _host(
        site, l2_site,
        tree=_Tree(),
        hub_tokens=HubTokenState(),
        site_tokens=SiteTokenState(site),
        reads_served=0,
        _hub=hub,
        _l2_addr=_addr(l2_site),
        _read_reply=lambda src, msg: replies.append((src, msg)),
    )
    host.pumps, host.local_replies = pumps, replies
    return host


def test_grant_invalidate_ack_clears_holders_and_wakes_the_queue():
    host = _reads_host("c")
    table = StrongReads(host)
    reader = _addr("a", "wk1")
    table.on_request(reader, ReadLeaseRequest(reader, "a", "/k", "/k", "data", 7))
    (dst, grant), = host.sent
    assert dst == reader and grant == ReadLeaseGrant(
        7, "/k", "/k", True, (b"v", "stat"), None, 900.0
    )
    assert table.holders == {"/k": {reader: 900.0}}

    # A write to /k: the holder must be invalidated first, once per period.
    holders = table.live_holders({"/k", "/other"})
    assert holders == {"/k": [reader]}
    del host.sent[:]
    table.send_invalidates(holders)
    table.send_invalidates(holders)
    assert host.sent == [(reader, ReadInvalidate(("/k",)))]
    host.env.now = 400.0
    table.send_invalidates(holders)
    assert len(host.sent) == 2

    assert not host._hub.queue.stale and host.pumps == []
    table.on_invalidate_ack(reader, ReadInvalidateAck(reader, ("/k",)))
    assert table.holders == {} and table.live_holders({"/k"}) == {}
    assert host._hub.queue.stale and host.pumps == ["pump"]


def test_lease_expiry_is_the_liveness_backstop():
    host = _reads_host("c")
    table = StrongReads(host)
    reader = _addr("a", "wk1")
    table.on_request(reader, ReadLeaseRequest(reader, "a", "/k", "/k", "data", 1))
    host.env.now = 900.0  # the unreachable holder never acks
    assert table.live_holders({"/k"}) == {}
    assert table.holders == {} and host._hub.queue.stale


def test_hub_parks_a_read_until_the_token_is_home_and_no_write_is_due():
    host = _reads_host("c")
    table = StrongReads(host)
    reader = _addr("a", "wk1")
    host.hub_tokens.grant("/k", "b")
    table.on_request(reader, ReadLeaseRequest(reader, "a", "/k", "/k", "data", 1))
    assert host.sent == [] and host.pumps == [("recall", ["/k"])]
    host.hub_tokens.accept_return("/k")
    host._hub.inflight_keys["/k"] = 1  # a hub write on /k is proposed
    table.pump()
    assert host.sent == [] and len(table.parked) == 1
    host._hub.inflight_keys.clear()
    table.pump()
    assert [msg.request_id for _dst, msg in host.sent] == [1] and not table.parked
    # A forwarded (lease=False) read waits for the token only, and an error
    # travels back as a code with no lease attached.
    del host.sent[:]
    host._hub.inflight_keys["/gone"] = 1
    table.on_request(
        reader, ReadLeaseRequest(reader, "a", "/gone", "/gone", "data", 2, lease=False)
    )
    (_dst, grant), = host.sent
    assert (grant.ok, grant.error_code, grant.lease_until) == (False, "no_node", 0.0)
    assert "/gone" not in table.holders


def _get(cxid, path="/k"):
    return OpRequest("sess", cxid, GetDataOp(path))


def test_reader_forwards_caches_serves_and_drops_a_lease():
    host = _reads_host("a")
    cache = StrongReads(host)
    client = _addr("a", "client1@a")
    cache.read(client, _get(1))
    (dst, request), = host.sent
    assert dst == host._l2_addr and request == ReadLeaseRequest(
        host.client_addr, "a", "/k", "/k", "data", 1, lease=True
    )
    cache.on_grant(dst, ReadLeaseGrant(1, "/k", "/k", True, (b"v", "s"), None, 900.0))
    assert host.sent[-1] == (client, OpReply("sess", 1, ok=True, value=(b"v", "s")))
    assert not cache.pending and not cache.request_of and host.reads_served == 1

    cache.read(client, _get(2))  # under the lease: no WAN trip
    assert len(host.sent) == 3 and host.sent[-1][0] == client
    cache.on_invalidate(dst, ReadInvalidate(("/k",)))
    assert host.sent[-1] == (dst, ReadInvalidateAck(host.client_addr, ("/k",)))
    cache.read(client, _get(3))
    assert isinstance(host.sent[-1][1], ReadLeaseRequest)

    # Holding the write token makes the local replica authoritative.
    host.site_tokens.grant("/k")
    cache.read(client, _get(4))
    assert host.local_replies == [(client, _get(4))]


def test_a_retried_read_reuses_its_entry_and_abandoned_ones_age_out():
    host = _reads_host("a")
    cache = StrongReads(host)
    client = _addr("a", "client1@a")
    cache.read(client, _get(1))
    host.env.now = 600.0
    cache.read(client, _get(1))  # the client's retry: same session, same cxid
    assert [msg.request_id for _dst, msg in host.sent] == [1, 1]
    assert len(cache.pending) == 1
    cache.read(client, _get(2))
    assert cache.request_counter == 2 and len(cache.pending) == 2

    host.env.now = 600.0 + host.wan.l2_failover_timeout_ms
    cache.expire()
    assert len(cache.pending) == 2  # not yet: measured from the last ask
    host.env.now += 0.1
    cache.expire()
    assert not cache.pending and not cache.request_of
    before = len(host.sent)
    cache.on_grant(
        host._l2_addr, ReadLeaseGrant(1, "/k", "/k", True, (b"v", "s"), None, 0.0)
    )
    assert len(host.sent) == before  # a grant for a swept entry is ignored
