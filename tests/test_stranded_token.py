"""A write the hub serializes twice must not strand its token.

The interleaving, built by hand on a wk×zab deployment (hub in Virginia,
every hub-serialized access migrates its token):

1. Hub→California traffic is cut. A California client creates ``/k``: the
   hub commits it with a grant of ``/k`` to California, and the relay that
   carries the grant is lost for now.
2. A second California client writes ``/k``. California does not own the
   token yet, so its leader forwards the write to the hub, which queues it
   and recalls ``/k`` from California. Recalls to California are lost from
   here on.
3. The link heals, the grant lands, and California's leader crashes. Its
   follower re-routes the still-uncommitted write to the next leader, which
   now owns ``/k`` and commits it locally.
4. Recalls flow again. California releases ``/k``; the hub absorbs the
   local commit, accepts the return and — unless it dropped its queued copy
   on absorbing the local one — serializes the same write again, with a
   second grant to California that California drops with the duplicate.

From then on the hub counts one grant more than California, and California
takes every recall of ``/k`` for one overtaken by its grant: a later write
of ``/k`` from another site never commits, and neither does one from
California, which no longer owns the token.
"""

import pytest

from repro.invariants import InvariantSentinel, InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.soak import drive
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper import deployment as wk_deployment
from repro.wankeeper.messages import TokenRecall
from repro.wankeeper.policy import AlwaysMigratePolicy

from tests.reference_hub_absorb import NoAbsorbWanKeeperServer
from tests.support import fresh_world

KEY = "/k"


def _run_until(env, predicate, horizon_ms):
    deadline = env.now + horizon_ms
    while not predicate() and env.now < deadline:
        env.run(until=min(deadline, env.now + 10.0))
    assert predicate(), f"not reached by {env.now:.0f} ms"


def _hub_serialized_twice_world():
    """Steps 1-4 above; returns the deployment and two connected clients
    that have not written yet, one in Frankfurt and one in California."""
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(
        env, net, topo, policy_factory=AlwaysMigratePolicy
    )
    deployment.start()
    deployment.stabilize()
    leader = deployment.site_leader(CALIFORNIA)
    follower = next(s for s in deployment.by_site[CALIFORNIA] if s is not leader)
    clients = []
    for _ in range(3):
        client = deployment.client(CALIFORNIA, request_timeout_ms=60000.0)
        client.server_addr = follower.client_addr
        clients.append(client)
    creator, writer, late = clients
    remote = deployment.client(FRANKFURT, request_timeout_ms=60000.0)

    def connect_all():
        for client in clients + [remote]:
            yield client.connect()

    assert drive(env, connect_all(), 10000.0).ok

    lose_recalls = [False]

    def tap(envelope):
        body = envelope.body
        if (lose_recalls[0] and isinstance(body, TokenRecall)
                and envelope.dst.site == CALIFORNIA):
            envelope.body = TokenRecall((), ())  # a recall of nothing

    net.tap(tap)

    # 1. The grant to California is committed at the hub, not delivered.
    net.partition_one_way(VIRGINIA, CALIFORNIA)
    create = creator.create(KEY, b"v0")
    hub = deployment.hub_leader
    _run_until(env, lambda: hub._grant_counts.get((KEY, CALIFORNIA)) == 1, 5000.0)
    # 2. The forwarded write waits at the hub for a recall that is lost.
    write = writer.set_data(KEY, b"v1")
    _run_until(env, lambda: len(hub._hub.queue) == 1, 5000.0)
    lose_recalls[0] = True
    # 3. The grant lands; the leader crashes; its successor commits the
    # write locally.
    net.heal_one_way(VIRGINIA, CALIFORNIA)
    _run_until(env, lambda: KEY in leader.site_tokens.owned, 10000.0)
    leader.crash()
    _run_until(env, lambda: write.triggered, 20000.0)
    assert write.ok and create.ok
    successor = deployment.site_leader(CALIFORNIA)
    assert successor is not None and successor.local_commits == 1
    # 4. Recalls flow again, and the hub's queue drains.
    lose_recalls[0] = False
    broker = hub._hub
    _run_until(env, lambda: not broker.queue and not broker.inflight_ids, 10000.0)
    env.run(until=env.now + 2000.0)  # the relays land
    return env, deployment, (remote, late)


def _write_again(env, clients):
    """Frankfurt, then California, writes ``/k`` once more."""
    def app():
        for value, client in enumerate(clients, start=2):
            yield client.set_data(KEY, b"v%d" % value)

    return drive(env, app(), 30000.0)


def test_a_write_the_hub_queued_and_the_site_committed_keeps_its_token():
    env, deployment, clients = _hub_serialized_twice_world()
    again = _write_again(env, clients)
    assert again.triggered and again.ok
    hub = deployment.hub_leader
    site = deployment.site_leader(CALIFORNIA)
    assert hub._grant_counts == site._grant_counts
    for server in deployment.servers:
        if server.is_alive:
            assert max(server.apply_counts.values()) == 1, server.name


def test_without_the_absorb_drop_the_token_is_stranded(monkeypatch):
    monkeypatch.setattr(wk_deployment, "WanKeeperServer", NoAbsorbWanKeeperServer)
    env, deployment, clients = _hub_serialized_twice_world()
    again = _write_again(env, clients)
    assert not again.triggered
    hub = deployment.hub_leader
    site = deployment.site_leader(CALIFORNIA)
    grants = (KEY, CALIFORNIA)
    assert hub._grant_counts[grants] == site._grant_counts[grants] + 1


def _final_check(deployment):
    sentinel = InvariantSentinel()
    sentinel.adopt(deployment.servers)
    return sentinel.final_check()


def test_the_final_check_passes_when_the_site_saw_every_grant():
    _env, deployment, _clients = _hub_serialized_twice_world()
    _final_check(deployment)


def test_the_final_check_flags_the_stranded_grant(monkeypatch):
    monkeypatch.setattr(wk_deployment, "WanKeeperServer", NoAbsorbWanKeeperServer)
    _env, deployment, _clients = _hub_serialized_twice_world()
    with pytest.raises(InvariantViolation) as info:
        _final_check(deployment)
    assert info.value.invariant == "stranded-grant"
    assert repr(KEY) in info.value.detail
