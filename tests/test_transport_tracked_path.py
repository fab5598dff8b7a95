"""The tracked transport path against the one it replaced.

Below its no-fault fast path ``Network.send`` is straight-line code: the
crash, partition, loss and duplication checks, the jitter draw, the
per-pair FIFO floor and the heap push all happen in one Python frame.
``tests/reference_transport.py`` holds what that replaced — ``send`` plus
``_schedule_delivery``, ``Topology.one_way``, ``Random.uniform``,
``env.now`` and ``env.call_in`` — as ``ReferenceNetwork``. Nothing a seeded
run can observe was meant to move, so twin worlds on the same seeded RNG
are driven through the same fault schedules and compared after every step,
down to the RNG state and the bits of every delivery instant; a full
``wk_faulty``-shaped stack is compared by its tap stream and commit
sequences; hand-made mutants of the new code show the comparison can see;
and the Python frames a send costs are pinned as counts at the bottom.
"""

import functools
import gc
import inspect
import itertools
import random
import sys
import textwrap

import pytest

import repro.net.transport
from repro.net import (
    CALIFORNIA,
    FRANKFURT,
    VIRGINIA,
    LinkProfile,
    Network,
    NodeAddress,
    wan_topology,
)
from repro.sim import Environment, seeded_rng
from repro.trace import TraceBuffer
from repro.wankeeper import build_wankeeper_deployment
from repro.zk import ConnectionLossError, ZkError
from tests.reference_transport import ReferenceNetwork, ReferenceNodeAddress

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
WAN_PAIRS = tuple(itertools.combinations(SITES, 2))
NODES_PER_SITE = 2
N_NODES = NODES_PER_SITE * len(SITES)
SEEDS = tuple(range(1, 13))
JITTERS = (0.0, 0.05, 0.1)

STRETCH = LinkProfile(delay_factor=4.0)
PROFILES = (
    LinkProfile(loss=0.3),
    LinkProfile(duplicate=0.4),
    LinkProfile(loss=0.1, duplicate=0.1),
    LinkProfile(loss=0.2, duplicate=0.3, delay_factor=4.0),
    LinkProfile(duplicate=0.5, delay_factor=0.25),
    LinkProfile(delay_factor=0.25),
    STRETCH,
)


def local_ms(seed):
    """Every third schedule runs on zero-delay loopback inside a site, so
    a tracked delivery can land on the sending instant itself."""
    return 0.0 if seed % 3 == 0 else 0.25


# -- seeded fault schedules ---------------------------------------------------------


def make_schedule(seed, steps=320):
    """A list of network operations, a pure function of ``seed``."""
    rng = random.Random(f"tracked-path-{seed}")
    ops = []
    down = set()

    def site_pair():
        return tuple(rng.sample(SITES, 2))

    def send():
        src = rng.randrange(N_NODES)
        # One send in six stays inside the site (or is a self-send).
        if rng.random() < 1 / 6:
            dst = src - src % NODES_PER_SITE + rng.randrange(NODES_PER_SITE)
        else:
            dst = rng.randrange(N_NODES)
        return ("send", src, dst, rng.choice((64, 256, 1500)))

    # Prologue, inside the first one-way delay of the run (0 < now < delay):
    # every WAN link stretched x4 under one message per ordered pair, then
    # restored, so the sends that follow are placed by a FIFO floor far more
    # than 2 x now ahead — where now + (deliver_at - now) != deliver_at.
    ops.append(("advance", rng.uniform(0.05, 0.2)))
    for a, b in WAN_PAIRS:
        ops.append(("degrade", a, b, STRETCH, True))
    for src, dst in itertools.permutations(range(N_NODES), 2):
        ops.append(("send", src, dst, 256))
    ops.append(("restore_all",))
    for _ in range(40):
        ops.append(("advance", rng.uniform(0.1, 3.0)))
        ops.append(send())

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.50:
            ops.append(send())
        elif roll < 0.56:
            burst = send()
            ops.extend([burst] * rng.randint(2, 6))
        elif roll < 0.74:
            ops.append(("advance", rng.choice((
                0.0, rng.uniform(0.01, 1.0), rng.uniform(5.0, 90.0),
            ))))
        elif roll < 0.79:
            up = [n for n in range(N_NODES) if n not in down]
            if down and (not up or rng.random() < 0.6):
                node = rng.choice(sorted(down))
                down.discard(node)
                ops.append(("restart", node))
            else:
                node = rng.choice(up)
                down.add(node)
                ops.append(("crash", node))
        elif roll < 0.84:
            kind = rng.choice(("partition", "partition_one_way", "heal",
                               "heal_one_way"))
            ops.append((kind, *site_pair()))
        elif roll < 0.97:
            if rng.random() < 0.75:
                a, b = site_pair()
                if rng.random() < 0.25:
                    b = a  # inside one site
                ops.append(("degrade", a, b, rng.choice(PROFILES),
                            rng.random() < 0.5))
            else:
                ops.append(("restore", *site_pair()))
        else:
            # Everything clears and the clock runs past every tracked
            # delivery: without jitter the fast path comes back.
            for node in sorted(down):
                ops.append(("restart", node))
            down.clear()
            ops.extend([("heal_all",), ("restore_all",), ("advance", 700.0)])
    return ops


class World:
    """One network on one seeded RNG, with everything a seeded run could
    observe of it within reach."""

    def __init__(self, network_class, seed, jitter):
        self.env = Environment()
        self.topo = wan_topology(
            local_one_way_ms=local_ms(seed), jitter_fraction=jitter
        )
        self.net = network_class(
            self.env, self.topo, rng=seeded_rng(seed, "net")
        )
        # Every drop and fault transition the network reports, in order.
        self.net.trace = self.trace = TraceBuffer(capacity=1 << 16)
        self.sent = []
        self.net.tap(self.sent.append)
        self.nodes = [
            self.topo.site(site).address(f"n{index}")
            for site in SITES
            for index in range(NODES_PER_SITE)
        ]
        self.arrivals = {str(addr): [] for addr in self.nodes}
        for addr in self.nodes:
            self.net.register(addr).consume(
                functools.partial(self._on_arrival, self.arrivals[str(addr)])
            )

    def _on_arrival(self, log, msg):
        # Every send's body is its own number (the count of earlier sends).
        log.append((msg[2], self.env.now.hex()))

    def apply(self, op):
        """Run one schedule step; returns what it did to the message."""
        kind, args = op[0], op[1:]
        net = self.net
        if kind == "send":
            src, dst, size = args
            dropped = net.messages_dropped
            net.send(self.nodes[src], self.nodes[dst], len(self.sent), size)
            envelope = self.sent[-1]
            if net.messages_dropped != dropped:
                return (envelope.seq, self.trace.tail(1)[0][5]["reason"])
            return (envelope.seq, envelope.deliver_time.hex())
        if kind == "advance":
            self.env.run(until=self.env.now + args[0])
        elif kind in ("crash", "restart"):
            getattr(net, kind)(self.nodes[args[0]])
        elif kind == "degrade":
            net.degrade(args[0], args[1], args[2], symmetric=args[3])
        else:
            getattr(net, kind)(*args)
        return None

    def snapshot(self):
        env, net = self.env, self.net
        return {
            "env._seq": env._seq,
            "env.now": env.now.hex(),
            "heap": sorted(
                (when.hex(), seq) for when, seq, _entry in env._queue
            ),
            "same-instant bucket": len(env._normal_now),
            "rng state": net.rng.getstate(),
            "messages_sent": net.messages_sent,
            "messages_dropped": net.messages_dropped,
            "messages_duplicated": net.messages_duplicated,
            "bytes_sent": net.bytes_sent,
            "drops_by_reason": sorted(net.drops_by_reason.items()),
            "_last_delivery": sorted(
                (str(src), str(dst), at.hex())
                for (src, dst), at in net._last_delivery.items()
            ),
            "_fast": net._fast,
            "_fast_horizon": net._fast_horizon.hex(),
            "_slow_floor": net._slow_floor.hex(),
            "_fast_ok_after": net._fast_ok_after.hex(),
            "trace events": self.trace.total_emitted,
            "arrivals": sum(len(log) for log in self.arrivals.values()),
        }

    def final(self):
        """After the run: the state, the arrival order at every inbox and
        the whole drop / fault stream."""
        return {
            **self.snapshot(),
            "arrival order": [
                (inbox, *arrival)
                for inbox, log in self.arrivals.items() for arrival in log
            ],
            "drop stream": self.trace.events(),
        }


def differing(ours, theirs):
    """The first field two snapshots disagree on, as a sentence."""
    for field in ours:
        a, b = ours[field], theirs[field]
        if a != b:
            if isinstance(a, list):  # name the entry, not the table
                a, b = next(
                    pair for pair in itertools.zip_longest(a, b)
                    if pair[0] != pair[1]
                )
            return f"{field} has {a!r}, the reference has {b!r}"
    return None


def divergence(network_class, seed, jitter):
    """Drive ``network_class`` and the reference through schedule ``seed``
    in lockstep; the first thing they disagree on, or None."""
    new = World(network_class, seed, jitter)
    old = World(ReferenceNetwork, seed, jitter)
    where = f"seed {seed}, jitter {jitter}"
    for index, op in enumerate(make_schedule(seed)):
        outcome, ref_outcome = new.apply(op), old.apply(op)
        found = (
            f"sent {outcome!r}, the reference {ref_outcome!r}"
            if outcome != ref_outcome
            else differing(new.snapshot(), old.snapshot())
        )
        if found:
            return f"{where}, step {index} ({op[0]}): {found}"
    new.env.run()
    old.env.run()
    found = differing(new.final(), old.final())
    return found and f"{where}, run dry: {found}"


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_tracked_path_matches_the_reference_step_by_step(seed, jitter):
    assert not divergence(Network, seed, jitter)


def test_the_schedules_reach_every_branch_of_the_tracked_path():
    """What the comparison above covers, counted on the reference."""
    reasons = set()
    duplicated = at_boot = same_instant = back_on_fast = off_by_an_ulp = 0
    for seed, jitter in itertools.product(SEEDS, JITTERS):
        world = World(ReferenceNetwork, seed, jitter)
        env, net = world.env, world.net
        scheduled = {}  # body -> envelope.deliver_time
        for op in make_schedule(seed):
            outcome = world.apply(op)
            if op[0] == "send" and outcome[1].startswith("0x"):
                deliver_at = outcome[1]
                scheduled[world.sent[-1].body] = deliver_at
                at_boot += 0.0 < env.now < 0.25
                same_instant += float.fromhex(deliver_at) == env.now
                # Faults came (the FIFO table is not empty) and went.
                back_on_fast += (
                    jitter == 0.0 and net._fast
                    and env.now >= net._fast_ok_after
                )
        env.run()
        reasons.update(net.drops_by_reason)
        duplicated += net.messages_duplicated
        # The kernel instant is the round trip, not deliver_time (of a
        # duplicated message, the second copy's).
        arrived_at = {
            body: at for log in world.arrivals.values() for body, at in log
        }
        off_by_an_ulp += sum(
            at != scheduled[body] for body, at in arrived_at.items()
        )
    assert reasons == {"crash", "partition", "loss"}
    assert duplicated > 150
    assert at_boot > 1000 and same_instant > 1000
    assert back_on_fast > 300
    assert off_by_an_ulp > 25


# -- hand-made mutants: the comparison can see --------------------------------------

#: name -> (old, new) source patches of ``Network.send`` (dedented once).
MUTANTS = {
    "duplicate draw before the loss draw": [(
        '''\
        if profile.loss > 0.0 and draw() < profile.loss:
            self._drop("loss", msg)
            return
        if profile.duplicate > 0.0 and draw() < profile.duplicate:
            copies = 2
            self.messages_duplicated += 1
''',
        '''\
        if profile.duplicate > 0.0 and draw() < profile.duplicate:
            copies = 2
        if profile.loss > 0.0 and draw() < profile.loss:
            self._drop("loss", msg)
            return
        self.messages_duplicated += copies - 1
''',
    )],
    "_slow_floor clamp for every profile": [(
        "if factor < 1.0 and self._slow_floor > deliver_at:",
        "if profile is not None and self._slow_floor > deliver_at:",
    )],
    "crash check on dst only": [(
        "if down and (src in down or dst in down):",
        "if down and dst in down:",
    )],
    "one jitter draw reused for both copies": [
        ("    while copies:\n",
         "    stretch = 1.0 + jitter * draw() if jitter > 0 else 1.0\n"
         "    while copies:\n"),
        ("deliver_at = now + delay * (1.0 + jitter * draw())",
         "deliver_at = now + delay * stretch"),
    ],
    "no FIFO floor on a healthy link": [(
        "floor = last_delivery.get(key, 0.0)",
        "floor = last_delivery.get(key, 0.0) if profile is not None else 0.0",
    )],
    "same-instant delivery pushed to the heap": [(
        "if when == now:", "if False:",
    )],
    "heap instant without the now + (deliver_at - now) round trip": [(
        "when = now + (deliver_at - now)", "when = deliver_at",
    )],
    "jitter folded into a sum": [(
        "deliver_at = now + delay * (1.0 + jitter * draw())",
        "deliver_at = now + (delay + delay * jitter * draw())",
    )],
    "partition probe skipped for the one-way kind": [(
        "        or pair in self._oneway_partitions\n", "",
    )],
}


def mutate(patches):
    """``Network`` with ``send`` re-compiled from its patched source."""
    source = textwrap.dedent(inspect.getsource(Network.send))
    for old, new in patches:
        assert source.count(old) == 1, f"mutation site not found: {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(repro.net.transport))
    exec(compile(source, "<mutant Network.send>", "exec"), namespace)
    return type("Mutant", (Network,), {"__slots__": (),
                                       "send": namespace["send"]})


def caught(network_class):
    """The first schedule on which ``network_class`` leaves the reference."""
    for seed, jitter in itertools.product(SEEDS, JITTERS):
        found = divergence(network_class, seed, jitter)
        if found:
            return found
    return None


def test_recompiled_send_is_still_the_product():
    """The mutation harness itself moves nothing."""
    assert caught(mutate([])) is None


@pytest.mark.parametrize("name", list(MUTANTS))
def test_every_mutant_is_caught(name):
    assert caught(mutate(MUTANTS[name])), name


# -- a whole stack shaped like the ledger's wk_faulty -------------------------------

AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)


def faulty_stack(network_class, seed=5):
    """wk x zab under 10 % jitter, 2 % loss and duplication on every WAN
    pair, paced clients, and each site's leader crashed in turn."""
    env = Environment()
    topo = wan_topology(jitter_fraction=0.1)
    net = network_class(env, topo, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(
        env, net, topo, l2_site=VIRGINIA, processing_delay_ms=0.02
    )
    envelopes = []
    net.tap(envelopes.append)
    commits = {}
    for server in deployment.servers:
        log = commits[server.name] = []

        def on_commit(zxid, txn, log=log, deliver=server.peer.on_commit):
            log.append((tuple(zxid), repr(txn)))
            deliver(zxid, txn)

        server.peer.on_commit = on_commit
    deployment.start()
    deployment.stabilize()
    keys = [f"/d/k{index}" for index in range(12)]
    clients = [
        (index, deployment.client(site, session_timeout_ms=30_000.0,
                                  request_timeout_ms=1000.0))
        for index, site in enumerate(SITES)
        for _ in range(2)
    ]

    def boot():
        for _site, client in clients:
            yield client.connect()
        yield clients[0][1].create("/d", b"")
        for key in keys:
            yield clients[0][1].create(key, b"")
        yield env.timeout(1000.0)

    def actor(number, site_index, client, t0):
        rng = random.Random(f"{seed}.{number}")
        own = keys[site_index * 4:site_index * 4 + 4]
        for k in range(36):
            due = t0 + number * 17.0 + k * 250.0
            if env.now < due:
                yield env.timeout(due - env.now)
            try:
                if rng.random() < 0.5:
                    yield client.set_data_retrying(
                        rng.choice(own), b"%d" % k, max_retries=10
                    )
                else:
                    yield client.get_data_retrying(rng.choice(own), max_retries=10)
            except (ConnectionLossError, ZkError):
                pass

    def nemesis():
        yield env.timeout(1000.0)
        for site in SITES:
            leader = deployment.site_leader(site)
            leader.crash()
            yield env.timeout(1500.0)
            leader.restart()
            yield env.timeout(1500.0)

    env.run(until=env.process(boot()))
    for site_a, site_b in WAN_PAIRS:
        net.degrade(site_a, site_b, AMBIENT)
    env.process(nemesis())
    actors = [
        env.process(actor(number, site_index, client, env.now))
        for number, (site_index, client) in enumerate(clients)
    ]
    env.run(until=env.all_of(actors))
    net.restore_all()
    env.run(until=env.now + 20_000.0)
    stream = [
        (e.seq, str(e.src), str(e.dst), type(e.body).__name__,
         e.send_time.hex(), e.deliver_time.hex(), e.size_bytes)
        for e in envelopes
    ]
    return stream, commits, deployment, net, env


def test_wk_faulty_shaped_stack_is_identical_on_both_networks():
    stream, commits, deployment, net, env = faulty_stack(Network)
    ref_stream, ref_commits, _d, ref_net, ref_env = faulty_stack(ReferenceNetwork)
    assert type(net) is Network and type(ref_net) is ReferenceNetwork
    assert len(stream) > 10_000
    for index, (a, b) in enumerate(zip(stream, ref_stream)):
        assert a == b, f"send #{index}"
    assert len(stream) == len(ref_stream)
    assert commits == ref_commits and all(commits.values())
    assert (env._seq, env.now) == (ref_env._seq, ref_env.now)
    assert net.rng.getstate() == ref_net.rng.getstate()
    assert net.drops_by_reason == ref_net.drops_by_reason
    assert net.messages_duplicated == ref_net.messages_duplicated > 0
    assert {"crash", "loss"} <= set(net.drops_by_reason)
    # And the run was a real one: every replica ends on the same tree.
    assert len({s.tree.fingerprint() for s in deployment.servers}) == 1


# -- what one tracked send costs in Python frames (counts, no wall clock) -----------


def frames_per_send(network_class, address_class, case):
    """Python-level calls (``sys.setprofile`` "call" events, any file) made
    by one ``send`` on the tracked path, in the situation ``case`` names."""
    env = Environment()
    topo = wan_topology(jitter_fraction=0.1)  # jitter: no fast path, ever
    net = network_class(env, topo, rng=random.Random(0))
    src = address_class(VIRGINIA, "src")
    dst = address_class(CALIFORNIA, "dst")
    idle = address_class(FRANKFURT, "idle")
    for addr in (src, dst, idle):
        net.register(addr)
    if case == "degraded link":
        net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(delay_factor=4.0))
    elif case == "duplicated copy":
        net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(duplicate=1.0))
    elif case == "lost":
        net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=1.0))
    elif case == "partitioned":
        net.partition(VIRGINIA, CALIFORNIA)
    elif case == "crashed destination":
        net.crash(dst)
    elif case == "healthy link, a crash elsewhere":
        net.crash(idle)
    else:
        assert case == "healthy link under jitter"
    net.send(src, dst, "warm-up")  # Counter.__missing__, first dict slots
    calls = []

    def profiler(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    outer = sys.getprofile()
    # A collection that happens to fall inside the window runs
    # ``gc.callbacks`` (hypothesis registers one): frames, but not the send's.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        net.send(src, dst, "measured")
    finally:
        sys.setprofile(outer)
        if gc_was_enabled:
            gc.enable()
    return calls


#: case -> frames of the reference network over the reference address; on a
#: healthy link they are send, Envelope.__init__, partitioned_one_way,
#: partitioned, _schedule_delivery, one_way, uniform, call_in and seven
#: NodeAddress.__hash__. (Two fewer per copy than when this was written:
#: the reference's two ``env.now`` reads per copy were property frames
#: until the clock became a plain attribute. The product's frames never
#: included them.)
REFERENCE_FRAMES = {
    "healthy link under jitter": 15,
    "healthy link, a crash elsewhere": 15,
    "degraded link": 15,
    "duplicated copy": 23,
    "lost": 8,
    "partitioned": 8,
    "crashed destination": 6,
}
DROPPED = ("lost", "partitioned", "crashed destination")


@pytest.mark.parametrize("case", list(REFERENCE_FRAMES))
def test_frames_of_one_tracked_send_are_pinned(case):
    """An extra hop on the tracked path moves the first number, on any box."""
    product = frames_per_send(Network, NodeAddress, case)
    reference = frames_per_send(ReferenceNetwork, ReferenceNodeAddress, case)
    # No tap is registered, so no Envelope is built.
    if case in DROPPED:
        assert product == ["send", "_drop"]
    else:
        assert product == ["send"]
        assert len(reference) >= 15
    assert len(reference) == REFERENCE_FRAMES[case]
    # The address type alone: the reference network over tuple addresses.
    assert len(frames_per_send(ReferenceNetwork, NodeAddress, case)) < len(reference)
