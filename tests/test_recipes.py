"""Tests for the coordination recipes (the exclusive and the fair lock)."""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.zk.recipes import DistributedLock, FairLock

from tests.support import fresh_world, plain_zk, run_app


def test_simple_lock_mutual_exclusion():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    holders = []

    def contender(name):
        client = deployment.client(VIRGINIA)
        lock = DistributedLock(env, client, "/lock")
        yield client.connect()
        for _ in range(3):
            yield env.process(lock.acquire())
            holders.append(("enter", name, env.now))
            yield env.timeout(10.0)
            holders.append(("exit", name, env.now))
            yield env.process(lock.release())

    def app():
        procs = [env.process(contender(f"c{i}")) for i in range(3)]
        for proc in procs:
            yield proc
        return True

    run_app(env, app())
    # Critical sections must not overlap.
    inside = None
    for kind, name, _t in holders:
        if kind == "enter":
            assert inside is None, f"{name} entered while {inside} held the lock"
            inside = name
        else:
            assert inside == name
            inside = None
    assert len(holders) == 18


def test_fair_lock_grants_in_queue_order():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    grants = []

    def contender(name, delay):
        client = deployment.client(VIRGINIA)
        lock = FairLock(env, client, "/fairlock")
        yield client.connect()
        yield env.timeout(delay)
        yield env.process(lock.acquire())
        grants.append(name)
        yield env.timeout(50.0)
        yield env.process(lock.release())

    def app():
        procs = [
            env.process(contender(f"c{i}", delay=i * 5.0)) for i in range(4)
        ]
        for proc in procs:
            yield proc
        return True

    run_app(env, app())
    assert grants == ["c0", "c1", "c2", "c3"]


def test_fair_lock_works_across_wan_sites_with_wankeeper():
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    grants = []

    def contender(site, name):
        client = deployment.client(site)
        lock = FairLock(env, client, "/geo-lock")
        yield client.connect()
        yield env.process(lock.acquire())
        grants.append(name)
        yield env.timeout(20.0)
        yield env.process(lock.release())

    def app():
        procs = [
            env.process(contender(CALIFORNIA, "ca1")),
            env.process(contender(FRANKFURT, "fr1")),
            env.process(contender(CALIFORNIA, "ca2")),
        ]
        for proc in procs:
            yield proc
        return True

    run_app(env, app())
    assert sorted(grants) == ["ca1", "ca2", "fr1"]

