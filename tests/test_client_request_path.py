"""Differential tests: the ZkClient request path against its old self.

The product client completes a logical op with one Event and no Process,
and keeps one armed timeout per client; ``tests/reference_client.py``
keeps the previous implementation (a driver Process per ``*_retrying``
call, one ``call_in`` guard per attempt). Both are driven here with the
same seeded schedules and the same hand-made races, and everything a
caller — or the server — can see must agree: per op the issue instant,
the completion instant, success, the value or the exception type; the
three client counters; and the ``Network.tap`` stream of request sends.
"""

import random

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.zk import ZkClient
from repro.zk.protocol import (
    ConnectRequest,
    OpRequest,
    SessionExpiredNotice,
)

from tests import test_perf_golden
from tests.reference_client import ReferenceClient
from tests.support import fresh_world, plain_zk

CLIENTS = (ZkClient, ReferenceClient)


class World:
    """One deployment plus the observations the two clients must share."""

    def __init__(self, client_cls, seed=11, jitter=0.0):
        self.client_cls = client_cls
        self.env, self.topo, self.net = fresh_world(seed=seed, jitter=jitter)
        self.deployment = plain_zk(self.env, self.net, self.topo)
        self.clients = []
        self.ops = []  # (client, label, start, end, ok, value | exc type)
        self.sends = []  # (instant, client, cxid | "connect")
        self.net.tap(self._on_send)

    def _on_send(self, envelope):
        body = envelope.body
        if isinstance(body, OpRequest):
            self.sends.append((self.env.now, envelope.src.name, body.cxid))
        elif isinstance(body, ConnectRequest):
            self.sends.append((self.env.now, envelope.src.name, "connect"))

    def server(self, site):
        return self.deployment.server_at(site)

    def client(self, site, server_site=None, **kwargs):
        name = f"c{len(self.clients)}"
        client = self.client_cls(
            self.env,
            self.net,
            self.topo.site(site).address(f"{name}@{site}"),
            self.server(server_site or site).client_addr,
            name=name,
            **kwargs,
        )
        self.clients.append(client)
        return client

    def track(self, client, label, issue):
        """Issue one call; log how and when it ends. Returns its event
        (None when the call itself raised)."""
        start = self.env.now
        try:
            event = issue()
        except Exception as exc:
            self.ops.append(
                (client.name, label, start, start, False, type(exc).__name__)
            )
            return None

        def done(fired):
            outcome = fired._value if fired._ok else type(fired._exception).__name__
            self.ops.append(
                (client.name, label, start, self.env.now, fired._ok, outcome)
            )

        event.callbacks.append(done)
        return event

    def call(self, client, label, issue):
        """Generator: issue one call and wait for it, swallowing failure."""
        event = self.track(client, label, issue)
        if event is None:
            return None
        try:
            return (yield event)
        except Exception:
            return None

    def run(self, *apps, until=120000.0):
        for app in apps:
            self.env.process(app)
        self.env.run(until=until)
        return self.observed()

    def observed(self):
        return {
            "ops": self.ops,
            "sends": self.sends,
            "counters": [
                (c.name, c.ops_completed, c.ops_failed, c.retries_performed,
                 c.expired, c.session_id)
                for c in self.clients
            ],
        }


def both(scenario, **world_kwargs):
    """Run ``scenario(world)`` under each client; demand identical
    observations. Returns the product client's world and observations."""
    outcomes = []
    for cls in CLIENTS:
        world = World(cls, **world_kwargs)
        outcomes.append((world, scenario(world)))
    (world, new), (_ref_world, ref) = outcomes
    assert new["ops"] == ref["ops"]
    assert new["sends"] == ref["sends"]
    assert new["counters"] == ref["counters"]
    assert new["ops"], "scenario recorded nothing"
    return world, new


def ops_of(observed, label):
    return [op for op in observed["ops"] if op[1] == label]


# -- the oracle is the old client ------------------------------------------------


@pytest.mark.parametrize(
    "system, golden",
    [("zk", test_perf_golden.GOLDEN_ZK_HISTORY),
     ("wk", test_perf_golden.GOLDEN_WK_HISTORY)],
)
def test_reference_client_reproduces_the_golden_histories(
    monkeypatch, system, golden
):
    import repro.zk.deployment

    monkeypatch.setattr(repro.zk.deployment, "ZkClient", ReferenceClient)
    assert test_perf_golden.history_digest(system) == golden


# -- seeded schedules --------------------------------------------------------------


def mixed_workload(world, client, rng, ops, keys, max_retries=8):
    """A seeded op stream: retrying and plain calls, sequential and in
    bursts of three, re-connecting after a session expiry."""
    connected = yield from world.call(
        client, "connect", lambda: client.connect_retrying(max_retries=10)
    )
    if connected is None:
        return
    done = 0
    while done < ops:
        if client.expired or client.session_id is None:
            yield world.env.timeout(rng.uniform(50.0, 300.0))
            yield from world.call(
                client, "reconnect",
                lambda: client.reconnect(client.server_addr),
            )
            continue
        # A burst is all-retrying or all-plain: the old retrying path sent
        # one urgent hop after the call, so a plain call issued later in
        # the same instant overtook it on the wire. That reordering is the
        # one thing deliberately not reproduced (sends now leave in
        # program order).
        burst = 3 if rng.random() < 0.2 else 1
        retrying = rng.random() < 0.7
        events = []
        for _ in range(burst):
            key = f"/k{rng.randrange(keys)}"
            draw = rng.random()
            data = b"%d" % rng.randrange(10**6)
            if not retrying:
                if draw < 0.5:
                    issue = lambda: client.set_data(key, data)
                else:
                    issue = lambda: client.exists(key)
            elif draw < 0.45:
                issue = lambda: client.set_data_retrying(
                    key, data, max_retries=max_retries
                )
            elif draw < 0.9:
                issue = lambda: client.get_data_retrying(
                    key, max_retries=max_retries
                )
            else:
                issue = lambda: client.create_retrying(
                    f"{key}/n", data, sequential=True, max_retries=max_retries
                )
            events.append(world.track(client, f"op{done}", issue))
            done += 1
        for event in events:
            if event is not None:
                try:
                    yield event
                except Exception:
                    pass
        yield world.env.timeout(rng.uniform(0.0, 40.0))


def preload(world, keys):
    loader = world.client(VIRGINIA)

    def app():
        yield loader.connect()
        for index in range(keys):
            yield loader.create(f"/k{index}", b"0")

    world.env.process(app())
    world.env.run(until=world.env.now + 5000.0)
    world.ops.clear()
    world.sends.clear()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_seeded_schedules_over_a_lossy_duplicating_link(seed, jitter):
    def scenario(world):
        preload(world, keys=6)
        lossy = LinkProfile(loss=0.08, duplicate=0.08)
        world.net.degrade(CALIFORNIA, VIRGINIA, lossy)
        world.net.degrade(FRANKFURT, VIRGINIA, lossy)
        world.net.degrade(CALIFORNIA, CALIFORNIA, LinkProfile(loss=0.05))
        clients = [
            # Local server, lossy loopback; remote server over the lossy
            # WAN; clean local server behind a lossy replication link.
            world.client(CALIFORNIA, request_timeout_ms=400.0),
            world.client(CALIFORNIA, VIRGINIA, request_timeout_ms=400.0),
            world.client(FRANKFURT, request_timeout_ms=400.0),
        ]
        return world.run(*[
            mixed_workload(
                world, client, random.Random(seed * 100 + index), 60, keys=6
            )
            for index, client in enumerate(clients)
        ])

    world, observed = both(scenario, seed=seed, jitter=jitter)
    assert sum(c.retries_performed for c in world.clients) > 0
    assert len(observed["ops"]) >= 3 * 60


@pytest.mark.parametrize("seed", [5, 6])
def test_seeded_schedules_across_server_crash_restart_and_expiry(seed):
    def scenario(world):
        preload(world, keys=6)
        clients = [
            world.client(CALIFORNIA, request_timeout_ms=500.0),
            world.client(CALIFORNIA, request_timeout_ms=500.0),
            world.client(VIRGINIA, request_timeout_ms=500.0),
        ]
        server = world.server(CALIFORNIA)

        def nemesis():
            # A restarted server has forgotten its sessions: every op of
            # the California clients then ends in SessionExpiredError.
            for outage in (900.0, 2500.0):
                yield world.env.timeout(1500.0)
                server.crash()
                yield world.env.timeout(outage)
                server.restart()

        return world.run(nemesis(), *[
            mixed_workload(
                world, client, random.Random(seed * 100 + index), 80, keys=6,
                max_retries=3,
            )
            for index, client in enumerate(clients)
        ])

    world, observed = both(scenario, seed=seed)
    outcomes = {op[5] for op in observed["ops"] if not op[4]}
    assert "SessionExpiredError" in outcomes
    assert "ConnectionLossError" in outcomes
    assert ops_of(observed, "reconnect")


# -- hand-made races ---------------------------------------------------------------


def connected_client(world, site, request_timeout_ms=None):
    """A client with a session, a node ``/<name>`` = ``v0`` and zeroed
    counters; the given timeout applies from here on."""
    client = world.client(site)

    def app():
        yield client.connect()
        yield client.create(f"/{client.name}", b"v0")

    world.env.process(app())
    world.env.run(until=world.env.now + 2000.0)
    assert client.connected
    if request_timeout_ms is not None:
        client.request_timeout_ms = request_timeout_ms
    client.ops_completed = client.ops_failed = client.retries_performed = 0
    world.ops.clear()
    world.sends.clear()
    return client


@pytest.mark.parametrize("retrying", [False, True])
def test_reply_and_timeout_on_the_same_instant_timeout_wins(retrying):
    # Probe: how long does a local read issued at this instant take?
    probe = World(ZkClient)
    client = connected_client(probe, VIRGINIA)
    issued = probe.env.now
    probe.run(probe.call(client, "read", lambda: client.get_data("/c0")))
    (_, _, start, end, ok, _), = probe.ops
    assert ok and start == issued
    timeout = end - start
    assert start + timeout == end  # the reply lands exactly on the deadline

    def scenario(world):
        client = connected_client(world, VIRGINIA, request_timeout_ms=timeout)
        assert world.env.now == issued
        if retrying:
            issue = lambda: client.get_data_retrying("/c0", max_retries=1)
        else:
            issue = lambda: client.get_data("/c0")
        return world.run(world.call(client, "read", issue))

    world, observed = both(scenario)
    (_, _, start, end, ok, outcome), = observed["ops"]
    # The guard is a heap entry of that instant, the reply a hand-off queued
    # during it: the timeout is served first and the reply is dropped.
    assert (ok, outcome) == (False, "ConnectionLossError")
    assert world.clients[0].ops_completed == 0
    if retrying:
        assert end == issued + timeout + 250.0 + timeout
        assert world.clients[0].retries_performed == 1
    else:
        assert end == issued + timeout


def test_reply_to_attempt_one_arrives_during_the_backoff_of_attempt_two():
    def scenario(world):
        # A California write commits over the WAN in ~140 ms: attempt one
        # times out at 100, its reply lands at ~140 into a 250 ms backoff.
        client = connected_client(world, CALIFORNIA, request_timeout_ms=100.0)
        return world.run(world.call(
            client, "write", lambda: client.set_data_retrying("/c0", b"v1")
        ))

    world, observed = both(scenario)
    client, = world.clients
    (_, _, start, end, ok, stat), = observed["ops"]
    assert ok and stat.version == 1
    assert [send[2] for send in observed["sends"]] == [2, 2]
    assert observed["sends"][1][0] == start + 100.0 + 250.0
    assert end > start + 350.0
    assert (client.ops_completed, client.ops_failed, client.retries_performed) == (1, 1, 1)
    # The late reply was dropped; the resend was answered from the cache.
    assert world.server(CALIFORNIA).replies_from_cache == 1


def test_expiry_noticed_during_backoff_fails_instead_of_resending():
    def scenario(world):
        client = connected_client(world, CALIFORNIA, request_timeout_ms=100.0)
        server = world.server(CALIFORNIA)

        def expire():
            yield world.env.timeout(200.0)
            world.net.send(
                server.client_addr, client.addr,
                SessionExpiredNotice(client.session_id),
            )

        return world.run(expire(), world.call(
            client, "write", lambda: client.set_data_retrying("/c0", b"v1")
        ))

    world, observed = both(scenario)
    (_, _, start, end, ok, outcome), = observed["ops"]
    assert (ok, outcome) == (False, "SessionExpiredError")
    assert end == start + 100.0 + 250.0
    assert len(observed["sends"]) == 1
    assert world.clients[0].retries_performed == 1


@pytest.mark.parametrize("plain", [False, True])
def test_max_retries_zero_is_the_plain_call(plain):
    def scenario(world):
        client = connected_client(world, CALIFORNIA, request_timeout_ms=100.0)
        if plain:
            issue = lambda: client.set_data("/c0", b"v1")
        else:
            issue = lambda: client.set_data_retrying("/c0", b"v1", max_retries=0)
        return world.run(world.call(client, "write", issue))

    world, observed = both(scenario)
    client, = world.clients
    (_, _, start, end, ok, outcome), = observed["ops"]
    assert (ok, outcome) == (False, "ConnectionLossError")
    assert end == start + 100.0
    assert len(observed["sends"]) == 1
    assert (client.ops_completed, client.ops_failed, client.retries_performed) == (0, 1, 0)


@pytest.mark.parametrize("retrying", [False, True])
def test_three_outstanding_ops_complete_out_of_order(retrying):
    def scenario(world):
        client = connected_client(world, CALIFORNIA)
        if retrying:
            calls = [
                ("w1", lambda: client.set_data_retrying("/c0", b"v1")),
                ("r", lambda: client.get_data_retrying("/c0")),
                ("w2", lambda: client.create_retrying("/c0/x", b"")),
            ]
        else:
            calls = [
                ("w1", lambda: client.set_data("/c0", b"v1")),
                ("r", lambda: client.get_data("/c0")),
                ("w2", lambda: client.create("/c0/x", b"")),
            ]

        def app():
            events = [world.track(client, label, issue) for label, issue in calls]
            for event in events:
                yield event

        return world.run(app())

    _world, observed = both(scenario)
    assert [op[1] for op in observed["ops"]] == ["r", "w1", "w2"]
    assert all(op[4] for op in observed["ops"])
    assert len({op[2] for op in observed["ops"]}) == 1  # issued together
    read = ops_of(observed, "r")[0]
    assert read[5][0] == b"v0"  # the local read overtook the write


def test_timeout_lowered_between_two_outstanding_requests():
    def scenario(world):
        client = connected_client(world, CALIFORNIA, request_timeout_ms=1000.0)
        world.server(CALIFORNIA).crash()  # nothing is ever answered

        def app():
            first = world.track(client, "slow", lambda: client.get_data("/c0"))
            yield world.env.timeout(10.0)
            client.request_timeout_ms = 50.0
            second = world.track(client, "fast", lambda: client.get_data("/c0"))
            yield world.env.timeout(5.0)
            client.request_timeout_ms = 2000.0
            third = world.track(
                client, "retried",
                lambda: client.get_data_retrying("/c0", max_retries=1),
            )
            for event in (first, second, third):
                try:
                    yield event
                except Exception:
                    pass

        return world.run(app())

    _world, observed = both(scenario)
    by_label = {op[1]: op for op in observed["ops"]}
    assert [op[1] for op in observed["ops"]] == ["fast", "slow", "retried"]
    for label, issued_after, lifetime in (
        ("slow", 0.0, 1000.0),
        ("fast", 10.0, 50.0),
        ("retried", 15.0, 2000.0 + 250.0 + 2000.0),
    ):
        _, _, start, end, ok, outcome = by_label[label]
        assert start == by_label["slow"][2] + issued_after
        assert end == start + lifetime
        assert (ok, outcome) == (False, "ConnectionLossError")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_connect_retrying_under_loss(seed):
    def scenario(world):
        world.net.degrade(
            CALIFORNIA, VIRGINIA, LinkProfile(loss=0.45, duplicate=0.2)
        )
        clients = [
            world.client(CALIFORNIA, VIRGINIA, request_timeout_ms=300.0)
            for _ in range(4)
        ]
        return world.run(*[
            world.call(
                client, "connect",
                lambda client=client: client.connect_retrying(max_retries=4),
            )
            for client in clients
        ])

    world, observed = both(scenario, seed=seed)
    assert len(observed["ops"]) == 4
    assert sum(c.retries_performed for c in world.clients) > 0


def test_late_connect_reply_during_backoff_does_not_complete_the_connect():
    def scenario(world):
        # California -> Virginia connect takes 2 x 35 ms + processing.
        client = world.client(CALIFORNIA, VIRGINIA, request_timeout_ms=50.0)

        def app():
            yield from world.call(
                client, "connect",
                lambda: client.connect_retrying(max_retries=2, backoff_ms=100.0),
            )
            client.request_timeout_ms = 1000.0
            yield from world.call(
                client, "connect-again",
                lambda: client.connect_retrying(max_retries=2, backoff_ms=100.0),
            )

        return world.run(app())

    world, observed = both(scenario)
    first, second = observed["ops"]
    # Every reply lands during a backoff: the attempts run out.
    assert (first[4], first[5]) == (False, "ConnectionLossError")
    assert first[3] == first[2] + 50.0 + 100.0 + 50.0 + 200.0 + 50.0
    assert second[4] and second[5] == world.clients[0].session_id


# -- what the request path costs the kernel (counts, no wall clock) ---------------


def one_site_world(client_cls, clients=1):
    """Three voters and the clients all in Virginia: no WAN, no jitter."""
    from repro.zk import build_zk_deployment

    env, topo, net = fresh_world()
    deployment = build_zk_deployment(
        env, net, topo, leader_site=VIRGINIA
    )
    deployment.start()
    deployment.stabilize()
    leader = deployment.site_leader(VIRGINIA)
    follower = next(s for s in deployment.servers if s is not leader)
    made = [
        client_cls(
            env, net, topo.site(VIRGINIA).address(f"c{index}@virginia"),
            follower.client_addr, name=f"c{index}",
        )
        for index in range(clients)
    ]

    def setup():
        for client in made:
            yield client.connect()
        yield made[0].create("/k", b"0")

    env.process(setup())
    env.run(until=env.now + 1000.0)
    return env, made


def events_per_call(client_cls, issue, repeats=3):
    env, (client,) = one_site_world(client_cls)
    costs = []

    def app():
        yield env.timeout(7.3)  # off the 50 ms heartbeat grid
        for _ in range(repeats):
            before = env._seq
            yield issue(client)
            costs.append(env._seq - before)

    env.process(app())
    env.run(until=env.now + 1000.0)
    assert len(set(costs)) == 1, costs  # no background timer in the window
    return costs[0]


def test_kernel_events_of_one_read_and_one_write_are_pinned():
    """An extra hop anywhere on the request path moves these, on any box.

    Read, 6: request send, inbox hand-off, server processing delay, reply
    send, inbox hand-off, the caller's event. Write through a follower,
    19: the same 6 plus forward, proposal, acks and commit among three
    voters. (A change to zab or the server moves the write count too; the
    client's own share is the difference to the reference below.)
    """
    read = lambda client: client.get_data_retrying("/k")
    write = lambda client: client.set_data_retrying("/k", b"1")
    assert events_per_call(ZkClient, read) == 6
    assert events_per_call(ZkClient, write) == 19
    # The old path: + Process start, + per-attempt guard, + inner event,
    # + Process end.
    assert events_per_call(ReferenceClient, read) == 6 + 4
    assert events_per_call(ReferenceClient, write) == 19 + 4
    # The plain call is the same path, not a cheaper one.
    assert events_per_call(ZkClient, lambda client: client.get_data("/k")) == 6


def timeout_guards_on_heap(env, client):
    return sum(
        1 for _when, _seq, entry in env._queue
        if type(entry) is tuple
        and getattr(entry[0], "__self__", None) is client
        and entry[0].__func__ is ZkClient._on_deadline
    )


def test_kernel_heap_does_not_grow_with_completed_requests():
    env, clients = one_site_world(ZkClient, clients=3)
    env.run(until=env.now + 20000.0)  # set-up guards fire and disarm
    idle_heap = len(env._queue)
    assert all(timeout_guards_on_heap(env, client) == 0 for client in clients)

    def reader(client):
        for _ in range(5000):
            yield client.get_data_retrying("/k")

    readers = [env.process(reader(client)) for client in clients]
    env.run(until=env.all_of(readers))
    # 15 000 requests completed inside one timeout window: the old path
    # left a dead guard on the heap for each of them.
    assert env.now - 20000.0 < clients[0].request_timeout_ms
    assert all(timeout_guards_on_heap(env, client) == 1 for client in clients)
    assert len(env._queue) <= idle_heap + len(clients)
    assert all(len(client._outstanding) <= 1 for client in clients)
    assert all(client.ops_completed >= 5000 for client in clients)
