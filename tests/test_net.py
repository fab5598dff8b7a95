"""Unit tests for the simulated network layer."""

import pytest

from repro.net import (
    CALIFORNIA,
    FRANKFURT,
    VIRGINIA,
    Network,
    NodeAddress,
    Topology,
    wan_topology,
)
from repro.sim import Environment, StoreClosed, seeded_rng


def make_net(jitter=0.0):
    env = Environment()
    topo = wan_topology(jitter_fraction=jitter)
    net = Network(env, topo, rng=seeded_rng(1, "net"))
    return env, topo, net


def test_wan_topology_sites():
    topo = wan_topology()
    assert set(topo.site_names()) == {VIRGINIA, CALIFORNIA, FRANKFURT}


def test_wan_rtts_match_paper_regions():
    topo = wan_topology()
    assert topo.rtt(VIRGINIA, CALIFORNIA) == pytest.approx(70.0)
    assert topo.rtt(VIRGINIA, FRANKFURT) == pytest.approx(90.0)
    assert topo.rtt(CALIFORNIA, FRANKFURT) == pytest.approx(150.0)


def test_intra_site_latency_small():
    topo = wan_topology()
    a = topo.site(VIRGINIA).address("a")
    b = topo.site(VIRGINIA).address("b")
    assert topo.one_way(a, b) < 1.0


def test_topology_missing_latency_rejected():
    with pytest.raises(ValueError):
        Topology(["x", "y"], one_way_ms={})


def test_topology_unknown_site_rejected():
    with pytest.raises(ValueError):
        Topology(["x"], one_way_ms={frozenset({"x", "zz"}): 10.0})


def test_topology_non_positive_latency_rejected():
    with pytest.raises(ValueError):
        Topology(["x", "y"], one_way_ms={frozenset({"x", "y"}): 0.0})


def test_set_one_way_override():
    topo = wan_topology()
    topo.set_one_way(VIRGINIA, CALIFORNIA, 10.0)
    assert topo.rtt(VIRGINIA, CALIFORNIA) == pytest.approx(20.0)


def test_message_delivery_with_wan_delay():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    inbox = net.register(dst)
    arrivals = []

    def receiver(env, inbox):
        _src, _dst, body = yield inbox.get()
        arrivals.append((env.now, body))

    env.process(receiver(env, inbox))
    net.send(src, dst, "hello")
    env.run()
    assert arrivals == [(35.0, "hello")]


def test_local_delivery_fast():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("a")
    dst = topo.site(VIRGINIA).address("b")
    net.register(src)
    inbox = net.register(dst)
    arrivals = []

    def receiver(env, inbox):
        _src, _dst, body = yield inbox.get()
        arrivals.append(env.now)

    env.process(receiver(env, inbox))
    net.send(src, dst, "x")
    env.run()
    assert arrivals[0] < 1.0


def test_fifo_per_pair_even_with_jitter():
    env, topo, net = make_net(jitter=0.5)
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(FRANKFURT).address("dst")
    net.register(src)
    inbox = net.register(dst)
    received = []

    def receiver(env, inbox):
        while True:
            _src, _dst, body = yield inbox.get()
            received.append(body)

    env.process(receiver(env, inbox))
    for i in range(100):
        net.send(src, dst, i)
    env.run(until=10000.0)
    assert received == list(range(100))


def test_unknown_destination_rejected():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("ghost")
    net.register(src)
    with pytest.raises(ValueError):
        net.send(src, dst, "x")


def test_double_registration_rejected():
    env, topo, net = make_net()
    addr = topo.site(VIRGINIA).address("a")
    net.register(addr)
    with pytest.raises(ValueError):
        net.register(addr)


def test_crash_drops_messages():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    net.register(dst)
    net.crash(dst)
    net.send(src, dst, "lost")
    env.run()
    assert net.messages_dropped == 1


def test_crash_closes_inbox():
    env, topo, net = make_net()
    addr = topo.site(VIRGINIA).address("n")
    inbox = net.register(addr)
    failures = []

    def receiver(env, inbox):
        try:
            yield inbox.get()
        except StoreClosed:
            failures.append(env.now)

    env.process(receiver(env, inbox))
    env.run(until=1.0)
    net.crash(addr)
    env.run()
    assert failures == [1.0]


def test_crash_mid_flight_drops():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    net.register(dst)
    net.send(src, dst, "in-flight")
    env.run(until=10.0)  # message still in flight (needs 35 ms)
    net.crash(dst)
    env.run()
    assert net.messages_dropped == 1


def test_restart_allows_delivery_again():
    env, topo, net = make_net()
    src = topo.site(VIRGINIA).address("src")
    dst = topo.site(CALIFORNIA).address("dst")
    net.register(src)
    inbox = net.register(dst)
    net.crash(dst)
    net.send(src, dst, "lost")
    env.run()
    net.restart(dst)
    got = []

    def receiver(env, inbox):
        _src, _dst, body = yield inbox.get()
        got.append(body)

    env.process(receiver(env, inbox))
    net.send(src, dst, "after-restart")
    env.run()
    assert got == ["after-restart"]


def test_partition_blocks_both_directions():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.partition(VIRGINIA, CALIFORNIA)
    net.send(va, ca, "x")
    net.send(ca, va, "y")
    env.run()
    assert net.messages_dropped == 2


def test_partition_does_not_affect_other_pairs():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    fr = topo.site(FRANKFURT).address("fr")
    net.register(va)
    inbox = net.register(fr)
    net.partition(VIRGINIA, CALIFORNIA)
    got = []

    def receiver(env, inbox):
        _src, _dst, body = yield inbox.get()
        got.append(body)

    env.process(receiver(env, inbox))
    net.send(va, fr, "ok")
    env.run()
    assert got == ["ok"]


def test_heal_restores_connectivity():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    inbox = net.register(ca)
    net.partition(VIRGINIA, CALIFORNIA)
    net.send(va, ca, "lost")
    env.run()
    net.heal(VIRGINIA, CALIFORNIA)
    got = []

    def receiver(env, inbox):
        _src, _dst, body = yield inbox.get()
        got.append(body)

    env.process(receiver(env, inbox))
    net.send(va, ca, "found")
    env.run()
    assert got == ["found"]


def test_partition_mid_flight_drops():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.send(va, ca, "in-flight")
    env.run(until=5.0)
    net.partition(VIRGINIA, CALIFORNIA)
    env.run()
    assert net.messages_dropped == 1


def test_tap_sees_all_sends():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    seen = []
    net.tap(lambda envelope: seen.append(envelope.body))
    net.send(va, ca, "one")
    net.send(va, ca, "two")
    assert seen == ["one", "two"]


def test_message_counters():
    env, topo, net = make_net()
    va = topo.site(VIRGINIA).address("va")
    ca = topo.site(CALIFORNIA).address("ca")
    net.register(va)
    net.register(ca)
    net.send(va, ca, "x", size_bytes=100)
    assert net.messages_sent == 1
    assert net.bytes_sent == 100
