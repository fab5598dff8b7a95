"""Unit coverage for smaller behaviors across modules."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.sim import AllOf, AnyOf, Environment, Interrupt, Store
from repro.sim.kernel import SimulationError


# -- kernel conditions ---------------------------------------------------------


def test_all_of_fails_if_child_fails():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("child died")

    def waiter(env):
        try:
            yield AllOf(env, [env.timeout(5.0), env.process(failer(env))])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["child died"]


def test_any_of_value_contains_only_fired_children():
    env = Environment()
    got = []

    def proc(env):
        result = yield AnyOf(
            env, [env.timeout(1.0, "fast"), env.timeout(50.0, "slow")]
        )
        got.append(result)

    env.process(proc(env))
    env.run()
    assert got == [{0: "fast"}]


def test_empty_all_of_fires_immediately():
    env = Environment()
    got = []

    def proc(env):
        result = yield AllOf(env, [])
        got.append((env.now, result))

    env.process(proc(env))
    env.run()
    assert got == [(0.0, {})]


def test_interrupt_carries_cause():
    env = Environment()
    causes = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    proc = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1.0)
        proc.interrupt(cause={"reason": "test"})

    env.process(interrupter(env))
    env.run()
    assert causes == [{"reason": "test"}]


def test_store_put_on_closed_raises():
    env = Environment()
    store = Store(env)
    store.close()
    with pytest.raises(SimulationError):
        store.put("x")


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def selfish(env):
        yield env.timeout(1.0)
        try:
            env.active_process.interrupt()
        except SimulationError as exc:
            errors.append(str(exc))

    env.process(selfish(env))
    env.run()
    assert len(errors) == 1


# -- zab config -----------------------------------------------------------------


def test_ensemble_members_and_peers():
    from repro.net import wan_topology
    from repro.zab import EnsembleConfig

    topo = wan_topology()
    a = topo.site(VIRGINIA).address("a")
    b = topo.site(VIRGINIA).address("b")
    o = topo.site(CALIFORNIA).address("o")
    config = EnsembleConfig(voters=[a, b], observers=[o])
    assert config.members == [a, b, o]
    assert config.peers_of(a) == [b, o]
    assert config.is_voter(a) and not config.is_voter(o)
    assert config.is_observer(o)
    assert config.is_quorum(2) and not config.is_quorum(1)


# -- zk records / errors -----------------------------------------------------


def test_error_from_code_fallback():
    from repro.zk.errors import ApiError, NoNodeError, error_from_code

    assert isinstance(error_from_code("no_node", "/x"), NoNodeError)
    unknown = error_from_code("martian_error", "/y")
    assert isinstance(unknown, ApiError)
    assert unknown.path == "/y"


def test_stat_is_ephemeral_flag():
    from repro.zab import Zxid
    from repro.zk import CreateOp, DataTree

    tree = DataTree()
    tree.apply(CreateOp("/e", ephemeral=True), Zxid(1, 1), "sess")
    tree.apply(CreateOp("/p"), Zxid(1, 2), "sess")
    assert tree.exists("/e").is_ephemeral
    assert not tree.exists("/p").is_ephemeral


def test_session_tracker_lifecycle():
    from repro.zk.sessions import SessionTracker

    tracker = SessionTracker("srv")
    session = tracker.create("client-addr", timeout_ms=100.0, now=0.0)
    assert tracker.touch(session.session_id, now=50.0)
    assert tracker.expired_sessions(now=100.0) == []
    expired = tracker.expired_sessions(now=200.0)
    assert [s.session_id for s in expired] == [session.session_id]
    tracker.mark_expired(session.session_id)
    assert not tracker.touch(session.session_id, now=210.0)
    assert tracker.find_by_client("client-addr") is None
    tracker.remove(session.session_id)
    assert len(tracker) == 0


def test_txn_log_tail_and_len():
    from repro.zab import TxnLog, Zxid

    log = TxnLog()
    for i in range(1, 6):
        log.append(Zxid(1, i), f"t{i}")
    assert len(log) == 5
    assert [e.txn for e in log.tail(2)] == ["t4", "t5"]
    assert log.tail(0) == []
    # The range (after, upto] is the slice between two positions.
    start, end = log.position_after(Zxid(1, 1)), log.position_after(Zxid(1, 3))
    assert [e.txn for e in log.entries[start:end]] == ["t2", "t3"]
    assert log.position_of(Zxid(1, 3)) == 2
    assert log.position_of(Zxid(1, 6)) == log.position_of(Zxid(2, 1)) == -1


# -- workloads ------------------------------------------------------------------


def test_ycsb_value_size_honored(monkeypatch):
    import random

    from repro.workloads import YcsbSpec, driver

    # The full configured size is generated (the paper's records are 100
    # bytes); an earlier perf pass silently capped payloads at 16 bytes.
    assert len(YcsbSpec().value(random.Random(1))) == 100
    monkeypatch.setattr(driver, "VALUE_SIZE", 1000)
    assert len(YcsbSpec().value(random.Random(1))) == 1000


def test_overlap_chooser_exposes_regions():
    from repro.workloads import OverlapChooser

    chooser = OverlapChooser(100, overlap=0.2, client_index=1)
    assert len(chooser.shared_indices) == 20
    assert len(chooser.private_indices) == 40
    assert set(chooser.shared_indices).isdisjoint(chooser.private_indices)


def test_hotspot_rotation_moves_hot_region():
    import random

    from repro.workloads import HotspotChooser

    rng = random.Random(0)
    plain = HotspotChooser(100, rotation=0)
    rotated = HotspotChooser(100, rotation=50)
    plain_hot = sum(1 for _ in range(2000) if plain.choose(rng) < 20)
    rng = random.Random(0)
    rotated_hot = sum(
        1 for _ in range(2000) if 50 <= rotated.choose(rng) < 70
    )
    assert plain_hot > 1400 and rotated_hot > 1400


# -- zk client conveniences ----------------------------------------------------


def test_check_version_builder():
    from tests.support import fresh_world, plain_zk

    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    op = client.check_version("/x", 3)
    assert op.path == "/x" and op.version == 3


def test_deployment_client_custom_name():
    from tests.support import fresh_world, plain_zk

    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA, name="my-app")
    assert client.name == "my-app"


# -- wankeeper token edge cases --------------------------------------------------


def test_wan_config_validation():
    import pytest as _pytest

    from repro.wankeeper.server import WanConfig

    with _pytest.raises(ValueError):
        WanConfig(sites=("a", "b"), l2_site="zz")
    with _pytest.raises(ValueError):
        WanConfig(
            sites=("a", "b"),
            l2_site="a",
            initial_tokens={"/k": "mars"},
        )
