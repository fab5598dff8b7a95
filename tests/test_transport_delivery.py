"""One kernel entry per delivered message, held to the pair it replaced.

``Network._deliver`` hands an idle consumer its ``(src, dst, body)``
directly when both same-instant lanes are empty: the ``_run_consumer``
entry it would have queued is then the very next one ``run()`` pops, so
calling it in place moves no handler. When a lane holds anything it queues
that entry as before. ``tests/reference_transport.py`` keeps the old pair
(``_deliver``, then ``_run_consumer`` as a second kernel entry, and an
``Envelope`` per message) as ``ReferenceNetwork``. Below: what one hop
costs on each, as counts, and a same-instant fan-out where both paths of
the product run and every handler runs in the reference's order.
"""

import gc
import random
import sys

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.sim.kernel import PRIORITY_URGENT
from tests.reference_transport import ReferenceNetwork

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
RUN = Environment.run.__code__

# -- what one hop costs: Python frames and kernel dispatches ------------------------


def ping_pong(network_class, rounds=3):
    """A Virginia node and a California node bat one message back and forth
    on a fault-free, jitter-free network; returns the name of every Python
    frame entered under ``env.run`` and how many of them ``run`` itself
    called (its dispatches)."""
    env = Environment()
    net = network_class(env, wan_topology(jitter_fraction=0.0))
    a = net.topology.site(VIRGINIA).address("a")
    b = net.topology.site(CALIFORNIA).address("b")

    def on_a(msg):
        if msg[2] < 2 * rounds - 1:
            net.send(a, b, msg[2] + 1)

    def on_b(msg):
        net.send(b, a, msg[2] + 1)

    net.register(a).consume(on_a)
    net.register(b).consume(on_b)
    net.send(a, b, 0)
    frames, dispatches = [], [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code is not RUN:
            frames.append(frame.f_code.co_name)
            dispatches[0] += frame.f_back.f_code is RUN

    outer = sys.getprofile()
    # A collection that happens to fall inside the window runs
    # ``gc.callbacks`` (hypothesis registers one): frames, but not a hop's.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        env.run()
    finally:
        sys.setprofile(outer)
        if gc_was_enabled:
            gc.enable()
    assert net.messages_sent == 2 * rounds
    return frames, dispatches[0]


#: network -> the frames from a heap pop to the handler, the handler
#: included, and the kernel dispatches among them, for one delivery.
PINNED = {
    Network: (["_deliver", "on_b"], 1),
    ReferenceNetwork: (["_deliver", "_run_consumer", "on_b"], 2),
}
#: What each network's ``send`` enters (outside the delivery).
SEND_FRAMES = {Network: ["send"], ReferenceNetwork: ["send", "__init__"]}


@pytest.mark.parametrize("network_class", list(PINNED),
                         ids=lambda cls: cls.__name__)
def test_one_hop_is_pinned(network_class):
    """An extra frame or kernel entry per hop moves these, on any box."""
    rounds = 3
    frames, dispatches = ping_pong(network_class, rounds)
    hop, hop_dispatches = PINNED[network_class]
    sent = SEND_FRAMES[network_class]
    trip = hop + sent + [hop[0], *hop[1:-1], "on_a"] + sent
    # Every hop but the last sends the next message.
    assert frames == (trip * rounds)[:-len(sent)]
    assert dispatches == 2 * rounds * hop_dispatches


# -- a same-instant fan-out: lanes busy, order unchanged ----------------------------


class FanOut:
    """Nine nodes, three per site, on a topology whose same-site pairs
    have zero latency: every handler fans its message out to three nodes
    (often at its own instant), now and then also queues an urgent call
    and a zero-delay callback, so messages meet one another and busy
    consumers in both same-instant lanes. The log is every handler run,
    in order."""

    def __init__(self, network_class, seed, jitter, hops=4):
        self.env = env = Environment()
        topo = wan_topology(local_one_way_ms=0.0, jitter_fraction=jitter)
        self.net = network_class(env, topo, rng=seeded_rng(seed, "net"))
        self.rng = random.Random(f"fan-out-{seed}")
        self.hops = hops
        self.log = []
        self.nodes = [
            topo.site(site).address(f"n{index}")
            for site in SITES for index in range(3)
        ]
        for addr in self.nodes:
            self.net.register(addr).consume(
                lambda msg, addr=addr: self.on_message(addr, msg)
            )
        self.count = 0

    def next_body(self, hop):
        self.count += 1
        return (self.count, hop)

    def on_message(self, addr, msg):
        src, dst, body = msg
        assert dst == addr
        env, rng = self.env, self.rng
        self.log.append(("msg", str(addr), str(src), body, env.now.hex()))
        hop = body[1]
        if hop >= self.hops:
            return
        for target in rng.sample(self.nodes, 3):
            # Two in three stay inside the site: delivered at this instant.
            if rng.random() < 2 / 3:
                target = self.nodes[self.nodes.index(addr) // 3 * 3
                                    + rng.randrange(3)]
            self.net.send(addr, target, self.next_body(hop + 1))
        roll = rng.random()
        if roll < 0.2:
            env.call_soon(self.on_call, ("urgent", body), PRIORITY_URGENT)
        elif roll < 0.4:
            env.call_in(0.0, self.on_call, ("soon", body))

    def on_call(self, tag):
        self.log.append(("call", tag, self.env.now.hex()))

    def run(self, roots=3):
        for index in range(roots):
            src, dst = self.rng.sample(self.nodes, 2)
            self.net.send(src, dst, self.next_body(0))
        self.env.run()
        return self.log


def direct_deliveries(world):
    """Count, on the product, the deliveries that took the direct call:
    the consumer frame whose caller is ``_deliver``."""
    direct = [0, 0]  # direct, queued
    deliver = Network._deliver.__code__

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "<lambda>":
            direct[frame.f_back.f_code is not deliver] += 1

    outer = sys.getprofile()
    sys.setprofile(profiler)
    try:
        world.run()
    finally:
        sys.setprofile(outer)
    return direct


@pytest.mark.parametrize("jitter", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(6))
def test_fan_out_handlers_run_in_the_reference_order(seed, jitter):
    new = FanOut(Network, seed, jitter)
    old = FanOut(ReferenceNetwork, seed, jitter)
    direct, queued = direct_deliveries(new)
    log, ref_log = new.log, old.run()
    assert len(log) == len(ref_log) > 300
    for index, (a, b) in enumerate(zip(log, ref_log)):
        assert a == b, f"handler run #{index}"
    # Same kernel sequence numbers and clock, same RNG draws.
    assert (new.env._seq, new.env.now) == (old.env._seq, old.env.now)
    assert new.net.rng.getstate() == old.net.rng.getstate()
    # Both delivery paths ran: lanes were empty at some pops, not at others.
    assert direct > 2 and queued > 250
