"""One declared replicated state per server, and a restart that forgets
what its dead incarnation was asked.

``_initial_state()`` names a server layer's replicated state once, as
attribute name -> fresh value; reset, ``snapshot()``, ``install()`` and a
restart all read it. On wk x zab and zk x zab these tests check the
snapshot against that list; check that no container in a snapshot is the
live one (a SNAP is passed by reference in the simulator, so an aliased
container would keep changing inside the learner); and add a field the
way a later change adds one -- an ``_initial_state`` entry and the
applier that fills it, nothing else -- to see it survive a SNAP and a
crash/restart. The last test pins the volatile reset: a connect and a
write that a server parked before it could serve die with it.
"""

from collections import deque

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.substrate import peer as substrate_peer
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper import deployment as wk_deployment
from repro.wankeeper.server import WanKeeperServer
from repro.zk import build_zk_deployment
from repro.zk import deployment as zk_deployment
from repro.zk.ops import CreateOp
from repro.zk.protocol import ConnectRequest
from repro.zk.server import ZkServer

from tests.support import fresh_world, plain_zk, run_app

STACKS = ("wk", "zk")
CONTAINERS = (list, dict, set, deque)


class Journal:
    """A replicated field added with no other edit: every applied request
    id, in apply order, so on every replica it equals ``_apply_order``."""

    def _initial_state(self):
        return {**super()._initial_state(), "journal": []}

    def _commit_client_txn(self, zxid, txn):
        outcome = super()._commit_client_txn(zxid, txn)
        if outcome is not None:
            self.journal.append(txn.key)
        return outcome


class JournalZkServer(Journal, ZkServer):
    pass


class JournalWanKeeperServer(Journal, WanKeeperServer):
    pass


def _world(stack, seed=31):
    """A stabilized deployment, the server its writers talk to, and a
    follower of the same ensemble that no client talks to."""
    env, topo, net = fresh_world(seed=seed)
    if stack == "wk":
        deployment = build_wankeeper_deployment(env, net, topo)
        deployment.start()
        deployment.stabilize()
        home = deployment.site_leader(CALIFORNIA)
        victim = next(s for s in deployment.by_site[CALIFORNIA] if s is not home)
    else:
        deployment = plain_zk(env, net, topo)
        home = deployment.site_leader(VIRGINIA)
        victim = deployment.by_site[FRANKFURT][-1]
    return env, deployment, home, victim


def _write(env, deployment, home, prefix, count):
    client = deployment.client(home.site, session_timeout_ms=60000.0)
    client.server_addr = home.client_addr

    def app():
        yield client.connect()
        for i in range(count):
            yield client.create(f"/{prefix}{i}", b"v")
        yield client.close()
        return True

    run_app(env, app())


def _containers(value):
    """A value if it is a container, else the containers it holds."""
    if isinstance(value, CONTAINERS):
        return [value]
    fields = getattr(value, "__dict__", {})
    return [inner for inner in fields.values() if isinstance(inner, CONTAINERS)]


@pytest.mark.parametrize("stack", STACKS)
def test_a_snapshot_holds_the_declared_state_and_no_live_container(stack):
    env, deployment, home, _victim = _world(stack)
    _write(env, deployment, home, "s", 12)
    for server in deployment.servers:
        state = server.snapshot()
        assert list(state) == list(server._initial_state())
        for name, copied in state.items():
            live = getattr(server, name)
            if isinstance(copied, (int, str)):
                assert copied == live
                continue
            assert copied is not live, name
            shipped = {id(inner) for inner in _containers(copied)}
            assert shipped, name
            assert not shipped & {id(inner) for inner in _containers(live)}, name
        assert state["tree"].fingerprint() == server.tree.fingerprint()
        assert state["apply_counts"] == server.apply_counts
        assert state["_apply_order"] == server._apply_order


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("case", ["restart", "snap"])
def test_a_declared_field_survives_snap_and_restart(stack, case, monkeypatch):
    if case == "snap":
        monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 4)
    if stack == "wk":
        monkeypatch.setattr(wk_deployment, "WanKeeperServer", JournalWanKeeperServer)
    else:
        monkeypatch.setattr(zk_deployment, "ZkServer", JournalZkServer)
    env, deployment, home, victim = _world(stack)
    installs = []
    install = victim.peer.install_state
    victim.peer.install_state = lambda state: (installs.append(1), install(state))
    _write(env, deployment, home, "a", 6)
    victim.crash()
    # A window of 4 drops all but 4 applied entries once 8 are past it.
    _write(env, deployment, home, "b", 3 if case == "restart" else 30)
    victim.restart()
    _write(env, deployment, home, "c", 3)
    env.run(until=env.now + 5000.0)
    assert (installs != []) == (case == "snap")
    for server in deployment.servers:
        assert server.journal == list(server._apply_order), server.name
    assert victim.journal == home.journal
    assert len(victim.journal) >= 12
    assert victim.tree.fingerprint() == home.tree.fingerprint()


def test_a_restart_forgets_the_connects_and_writes_it_parked():
    """A follower that is not yet serving parks a connect and a write; it
    crashes and restarts. Neither belongs to the new incarnation: no
    session may open for that connect, and the write must not commit."""
    env, topo, net = fresh_world(seed=37)
    deployment = build_zk_deployment(
        env, net, topo, leader_site=VIRGINIA,
        voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT),
    )
    deployment.start()
    env.run(until=10.0)
    follower = deployment.by_site[FRANKFURT][0]
    assert not follower.is_serving
    ghost = topo.site(FRANKFURT).address("ghost@frankfurt")
    heard = []
    net.register(ghost).consume(heard.append)
    follower._on_client_message(ghost, ConnectRequest(ghost, 6000.0))
    follower.submit_system_txn(CreateOp("/parked", b""))
    assert follower._deferred_connects and follower._unrouted_txns
    follower.crash()
    env.run(until=500.0)
    follower.restart()
    deployment.stabilize()
    env.run(until=env.now + 10000.0)
    assert follower.is_serving
    assert follower.sessions.find_by_client(ghost) is None
    assert heard == []
    for server in deployment.servers:
        assert server.tree.exists("/parked") is None, server.name
