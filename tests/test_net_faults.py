"""Unit tests for the lossy-link fault model (LinkProfile + tagged drops)."""

import random

import pytest

from repro.net import (
    CALIFORNIA,
    FRANKFURT,
    VIRGINIA,
    LinkProfile,
    Network,
    Site,
    wan_topology,
)
from repro.sim import Environment, seeded_rng


def make_net(jitter=0.0, seed=1):
    env = Environment()
    topo = wan_topology(jitter_fraction=jitter)
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    return env, topo, net


def endpoints(topo, net, src_site=VIRGINIA, dst_site=CALIFORNIA):
    src = topo.site(src_site).address("src")
    dst = topo.site(dst_site).address("dst")
    net.register(src)
    inbox = net.register(dst)
    return src, dst, inbox


def drain(env, inbox):
    """Run the simulation dry and return (arrival time, body) pairs."""
    arrivals = []

    def receiver():
        while True:
            _src, _dst, body = yield inbox.get()
            arrivals.append((env.now, body))

    env.process(receiver())
    env.run()
    return arrivals


def test_link_profile_validates_probabilities():
    with pytest.raises(ValueError):
        LinkProfile(loss=1.5)
    with pytest.raises(ValueError):
        LinkProfile(duplicate=-0.1)
    with pytest.raises(ValueError):
        LinkProfile(delay_factor=0.0)
    profile = LinkProfile(loss=0.5, duplicate=0.5, delay_factor=2.0)
    assert profile.loss == 0.5


def test_total_loss_drops_everything_tagged_as_loss():
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0))
    for i in range(5):
        net.send(src, dst, f"m{i}")
    assert drain(env, inbox) == []
    assert net.messages_dropped == 5
    assert net.drops_by_reason["loss"] == 5


def test_duplication_delivers_copies_in_fifo_order():
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(duplicate=1.0))
    net.send(src, dst, "a")
    net.send(src, dst, "b")
    arrivals = drain(env, inbox)
    # Each message delivered twice; FIFO per pair holds across copies.
    assert [body for _t, body in arrivals] == ["a", "a", "b", "b"]
    times = [t for t, _body in arrivals]
    assert times == sorted(times)
    assert net.messages_duplicated == 2


def test_gray_delay_factor_multiplies_latency():
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    baseline = topo.one_way(src, dst)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(delay_factor=8.0))
    net.send(src, dst, "slow")
    arrivals = drain(env, inbox)
    assert arrivals == [(baseline * 8.0, "slow")]


def test_one_way_partition_blocks_single_direction():
    env, topo, net = make_net()
    fwd_src = topo.site(VIRGINIA).address("v")
    rev_src = topo.site(CALIFORNIA).address("c")
    net.register(fwd_src)
    rev_inbox = net.register(rev_src)

    net.partition_one_way(VIRGINIA, CALIFORNIA)
    assert net.partitioned_one_way(VIRGINIA, CALIFORNIA)
    assert not net.partitioned_one_way(CALIFORNIA, VIRGINIA)
    net.send(fwd_src, rev_src, "blocked")
    assert net.drops_by_reason["partition"] == 1
    net.send(rev_src, fwd_src, "allowed")  # reverse direction still works

    fwd_inbox = net.inbox(fwd_src)
    got = []

    def receiver():
        _src, _dst, body = yield fwd_inbox.get()
        got.append(body)

    env.process(receiver())
    env.run()
    assert got == ["allowed"]
    assert len(rev_inbox) == 0

    net.heal_one_way(VIRGINIA, CALIFORNIA)
    assert not net.partitioned_one_way(VIRGINIA, CALIFORNIA)


def test_heal_clears_one_way_partitions_too():
    _env, _topo, net = make_net()
    net.partition_one_way(VIRGINIA, FRANKFURT)
    net.partition_one_way(FRANKFURT, VIRGINIA)
    net.heal(VIRGINIA, FRANKFURT)
    assert not net.partitioned_one_way(VIRGINIA, FRANKFURT)
    assert not net.partitioned_one_way(FRANKFURT, VIRGINIA)


def test_asymmetric_degrade_and_restore():
    _env, _topo, net = make_net()
    profile = LinkProfile(loss=0.3)
    net.degrade(VIRGINIA, CALIFORNIA, profile, symmetric=False)
    assert net.link_profile(VIRGINIA, CALIFORNIA) is profile
    assert net.link_profile(CALIFORNIA, VIRGINIA) is None
    net.degrade(CALIFORNIA, FRANKFURT, profile)
    assert net.link_profile(FRANKFURT, CALIFORNIA) is profile
    net.restore(VIRGINIA, CALIFORNIA)
    assert net.link_profile(VIRGINIA, CALIFORNIA) is None
    net.restore_all()
    assert net.link_profile(CALIFORNIA, FRANKFURT) is None


def test_clean_links_draw_no_randomness():
    """Determinism guard: without a profile, send() must not consume RNG."""
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    before = net.rng.getstate()
    for i in range(3):
        net.send(src, dst, i)
    assert net.rng.getstate() == before
    # With a profile the link does draw (loss and duplication checks).
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=0.5, duplicate=0.5))
    net.send(src, dst, "x")
    assert net.rng.getstate() != before


def test_message_stats_reports_drop_reasons_and_duplicates():
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0))
    net.send(src, dst, "lost")
    net.restore_all()
    net.crash(dst)
    net.send(src, dst, "to-crashed")
    net.restart(dst)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(duplicate=1.0))
    net.send(src, dst, "twice")
    assert net.drops_by_reason == {"loss": 1, "crash": 1}
    assert net.messages_dropped == 2
    assert net.messages_duplicated == 1
    assert net.messages_sent == 3


def test_network_counters_accumulate_across_fault_windows():
    """The counters never reset: a window's drops and duplicates are the
    difference of two readings, and the earlier window's stay counted."""
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0))
    for _ in range(3):
        net.send(src, dst, "pre-window-loss")
    net.restore_all()
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(duplicate=1.0))
    net.send(src, dst, "pre-window-dup")
    net.restore_all()
    assert net.drops_by_reason == {"loss": 3}
    assert net.messages_duplicated == 1

    drops_before = net.drops_by_reason.copy()
    duplicated_before = net.messages_duplicated
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0))
    net.send(src, dst, "in-window-loss")
    assert net.drops_by_reason - drops_before == {"loss": 1}
    assert net.messages_duplicated - duplicated_before == 0
    assert net.drops_by_reason == {"loss": 4}


# -- a typo'd site name is an error, not a fault that matches nothing ----------------


@pytest.mark.parametrize("install", [
    lambda net: net.partition("virgina", CALIFORNIA),
    lambda net: net.partition(CALIFORNIA, "virgina"),
    lambda net: net.partition_one_way("virgina", CALIFORNIA),
    lambda net: net.partition_one_way(CALIFORNIA, "virgina"),
    lambda net: net.degrade("virgina", CALIFORNIA, LinkProfile(loss=1.0)),
    lambda net: net.degrade(CALIFORNIA, "virgina", LinkProfile(loss=1.0),
                            symmetric=False),
], ids=["partition-a", "partition-b", "one-way-src", "one-way-dst",
        "degrade-a", "degrade-b"])
def test_fault_on_an_unknown_site_is_rejected(install):
    """Regression: this used to return, lose no message, and leave the whole
    network on the tracked path until someone restored the same typo."""
    env, topo, net = make_net()
    src, dst, inbox = endpoints(topo, net)
    with pytest.raises(ValueError) as raised:
        install(net)
    assert str(raised.value) == (
        "unknown site 'virgina' (known sites: virginia, california, frankfurt)"
    )
    assert "\n" not in str(raised.value)
    # Nothing was installed: the network is still on its no-fault path.
    assert net._fast
    before = net.rng.getstate()
    net.send(src, dst, "through")
    assert drain(env, inbox) == [(35.0, "through")]
    assert net.rng.getstate() == before and not net._last_delivery


def test_a_site_added_after_construction_is_known():
    _env, topo, net = make_net()
    topo.sites["oregon"] = Site("oregon")
    for other in (VIRGINIA, CALIFORNIA, FRANKFURT):
        topo.set_one_way("oregon", other, 30.0)
    net.partition("oregon", VIRGINIA)
    net.degrade(CALIFORNIA, "oregon", LinkProfile(duplicate=0.5))
    assert net.partitioned("oregon", VIRGINIA)


def test_heal_and_restore_stay_lenient_about_site_names():
    """Clean-up is idempotent: clearing what was never installed is fine."""
    _env, _topo, net = make_net()
    net.heal("virgina", CALIFORNIA)
    net.heal_one_way("virgina", CALIFORNIA)
    net.restore("virgina", CALIFORNIA)
    net.heal_all()
    net.restore_all()
    assert net._fast


# -- FIFO across every path transition -------------------------------------------------

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
SHAPES = (
    LinkProfile(delay_factor=0.25),  # shrinking: may not undercut the fast path
    LinkProfile(delay_factor=4.0),   # stretching: the fast path must wait it out
    LinkProfile(duplicate=0.7),
    LinkProfile(duplicate=0.7, delay_factor=0.25),
    LinkProfile(loss=0.3, duplicate=0.7, delay_factor=4.0),
)


class CountingDict(dict):
    """``Network._last_delivery`` that counts its writes: the tracked path
    writes one per scheduled copy, the fast path none."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(10))
def test_fifo_holds_across_every_path_transition(seed, jitter):
    """Faults toggle between sends (fast -> tracked -> fast, links shrinking
    and stretching, duplicates): on every ordered pair arrival order is send
    order, nothing reaches a node that is down, and the fast path is used
    again only once every delivery scheduled under a fault is in the past
    (tracked sends made after the faults cleared keep the healthy constant
    delay, so fast sends behind them cannot overtake)."""
    env, topo, net = make_net(jitter=jitter, seed=seed)
    rng = random.Random(f"fifo-{seed}")
    table = net._last_delivery = CountingDict()
    nodes = [topo.site(site).address(f"n{i}") for site in SITES for i in range(2)]
    sent, arrived = {}, {}

    def on_arrival(msg):
        # Each send carries its own number: the body names the arrival.
        src, dst, body = msg
        assert not net.is_down(dst)
        arrived.setdefault((src, dst), []).append(body)

    for addr in nodes:
        net.register(addr).consume(on_arrival)
    envelopes = []
    net.tap(envelopes.append)

    def faults_installed():
        return (
            any(net.is_down(addr) for addr in nodes)
            or any(net.partitioned_one_way(a, b) or net.link_profile(a, b)
                   for a in SITES for b in SITES)
        )

    last_faulty_arrival = 0.0
    fast_sends = tracked_sends = path_changes = 0
    was_fast = True
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.74:
            src, dst = rng.sample(nodes, 2)
            writes, dropped = table.writes, net.messages_dropped
            net.send(src, dst, len(envelopes))
            envelope = envelopes[-1]
            if net.messages_dropped != dropped:
                continue
            sent.setdefault((src, dst), []).append(envelope.body)
            fast = table.writes == writes
            if fast:
                fast_sends += 1
                assert jitter == 0.0 and not faults_installed()
                assert env.now >= last_faulty_arrival
                assert env.now >= net._fast_ok_after
            else:
                tracked_sends += 1
                assert table[(src, dst)] == envelope.deliver_time
                if faults_installed():
                    last_faulty_arrival = max(last_faulty_arrival,
                                              envelope.deliver_time)
            path_changes += fast != was_fast
            was_fast = fast
        elif roll < 0.86:
            env.run(until=env.now + rng.choice((0.1, 1.0, 20.0, 60.0)))
        elif roll < 0.88:
            addr = rng.choice(nodes)
            if net.is_down(addr):
                net.restart(addr)
            elif not any(net.is_down(other) for other in nodes):
                net.crash(addr)
        elif roll < 0.90:
            a, b = rng.sample(SITES, 2)
            rng.choice((net.partition, net.partition_one_way, net.heal))(a, b)
        elif roll < 0.94:
            a, b = rng.choice(SITES), rng.choice(SITES)
            net.degrade(a, b, rng.choice(SHAPES), symmetric=rng.random() < 0.5)
        else:
            for addr in nodes:
                if net.is_down(addr):
                    net.restart(addr)
            net.heal_all()
            net.restore_all()
            if rng.random() < 0.5:  # or the next sends find it not yet re-armed
                env.run(until=env.now + 400.0)
    env.run()

    assert tracked_sends > 300 and net.messages_duplicated > 10
    if jitter == 0.0:
        assert fast_sends > 200 and path_changes > 30
    else:
        assert fast_sends == 0
    for pair, seqs in arrived.items():
        # Send order; a duplicate sits right behind its original.
        assert seqs == sorted(seqs), pair
        assert set(seqs) <= set(sent[pair])
        assert max(seqs.count(seq) for seq in set(seqs)) <= 2
