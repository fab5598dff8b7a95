"""Error paths and miscellaneous behaviors across modules."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, wan_topology
from repro.sim import Environment, SimulationError
from repro.zk import build_zk_deployment

from tests.support import fresh_world, plain_zk, run_app


def test_topology_wan_pairs_reporting():
    topo = wan_topology()
    pairs = topo.wan_pairs()
    assert len(pairs) == 3
    assert all(delay > 0 for _a, _b, delay in pairs)
    names = {(a, b) for a, b, _d in pairs}
    assert ("california", "virginia") in names


def test_topology_set_one_way_validation():
    topo = wan_topology()
    with pytest.raises(ValueError):
        topo.set_one_way(VIRGINIA, VIRGINIA, 10.0)
    with pytest.raises(ValueError):
        topo.set_one_way(VIRGINIA, CALIFORNIA, -1.0)


def test_deployment_server_at_requires_live_server():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    for server in deployment.servers_at(FRANKFURT):
        server.crash()
    with pytest.raises(ValueError):
        deployment.server_at(FRANKFURT)


def test_stabilize_times_out_without_quorum():
    env, topo, net = fresh_world()
    deployment = build_zk_deployment(
        env, net, topo, voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT)
    )
    deployment.start()
    # Partition everything: no quorum can form.
    net.partition(VIRGINIA, CALIFORNIA)
    net.partition(VIRGINIA, FRANKFURT)
    net.partition(CALIFORNIA, FRANKFURT)
    with pytest.raises(SimulationError):
        deployment.stabilize(max_ms=3000.0)


def test_tree_fingerprints_accessor():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    fingerprints = deployment.tree_fingerprints()
    assert len(fingerprints) == 3
    assert len(set(fingerprints.values())) == 1  # all empty trees agree


def test_ycsb_client_respects_deadline():
    from repro.workloads import LatencyRecorder, YcsbSpec
    from repro.workloads.driver import load_records, ycsb_client

    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    spec = YcsbSpec(record_count=20, operation_count=100000, write_fraction=0.0)
    recorder = LatencyRecorder()

    def app():
        yield client.connect()
        yield env.process(load_records(client, spec))
        import random

        yield env.process(
            ycsb_client(
                env, client, spec, random.Random(1), recorder,
                deadline_ms=env.now + 200.0,
            )
        )
        return True

    run_app(env, app())
    # Stopped at the deadline, far short of 100k ops.
    assert 0 < recorder.count() < 5000


def test_ycsb_client_records_failures_on_api_error():
    """Operations against deleted records record as reads of missing keys
    fail with NoNode and are excluded from latency stats."""
    from repro.workloads import LatencyRecorder, YcsbSpec
    from repro.workloads.driver import ycsb_client

    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    spec = YcsbSpec(record_count=5, operation_count=20, write_fraction=0.0)
    recorder = LatencyRecorder()

    def app():
        yield client.connect()
        # Deliberately skip the load phase: every read hits NoNode.
        import random

        yield env.process(
            ycsb_client(env, client, spec, random.Random(2), recorder)
        )
        return True

    run_app(env, app())
    assert recorder.errors == 20
    assert recorder.count() == 0


def test_bookkeeper_open_unknown_ledger_fails():
    from repro.bookkeeper import Bookie, BookKeeperClient
    from repro.zk import NoNodeError

    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    zk = deployment.client(VIRGINIA)
    bookie = Bookie(env, net, topo.site(VIRGINIA).address("bk-only"))
    bookie.start()
    bk = BookKeeperClient(
        env, net, topo.site(VIRGINIA).address("bk-cli"), zk, [bookie.addr],
        ensemble_size=1, write_quorum=1,
    )

    def app():
        yield zk.connect()
        with pytest.raises(NoNodeError):
            yield env.process(bk.open_ledger(424242))
        return True

    assert run_app(env, app())


def test_store_reopen_then_get():
    from repro.sim import Store

    env = Environment()
    store = Store(env, name="cycle")
    store.close()
    assert store.closed
    store.reopen()
    assert not store.closed


def test_run_until_event_with_failed_process():
    env = Environment()

    def boom(env):
        yield env.timeout(1.0)
        raise RuntimeError("bang")

    with pytest.raises(RuntimeError, match="bang"):
        env.run(until=env.process(boom(env)))


def test_peek_on_empty_queue_and_step_error():
    env = Environment()
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.run(until=env.event())  # nothing left that could trigger it
    assert env.peek() == float("inf")
