#!/usr/bin/env python3
"""A fair lock across the WAN.

Demonstrates ZooKeeper's fair-lock recipe (§III-B) running on WanKeeper:
the lock's *bulk token* (sequential znodes share their parent's token)
migrates to the site using it, and waiters are granted in queue order.

Run:  python examples/geo_fair_lock.py
"""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.wankeeper import build_wankeeper_deployment
from repro.zk.recipes import FairLock


def main():
    env = Environment()
    topology = wan_topology()
    net = Network(env, topology, rng=seeded_rng(23, "net"))
    deployment = build_wankeeper_deployment(env, net, topology)
    deployment.start()
    deployment.stabilize()

    print("=== Fair lock: three California workers, one Frankfurt worker ===")
    grants = []

    def worker(site, name, delay_ms):
        client = deployment.client(site)
        lock = FairLock(env, client, "/jobs/lock")
        yield client.connect()
        yield env.timeout(delay_ms)
        enqueue_at = env.now
        yield env.process(lock.acquire())
        waited = env.now - enqueue_at
        grants.append(name)
        print(f"  {name:14s} acquired after {waited:7.1f} ms "
              f"(grant order #{len(grants)})")
        yield env.timeout(25.0)  # critical section
        yield env.process(lock.release())

    def lock_demo():
        setup = deployment.client(VIRGINIA)
        yield setup.connect()
        yield setup.create("/jobs", b"")
        procs = [
            env.process(worker(CALIFORNIA, "ca-worker-1", 0.0)),
            env.process(worker(CALIFORNIA, "ca-worker-2", 5.0)),
            env.process(worker(FRANKFURT, "fr-worker-1", 10.0)),
            env.process(worker(CALIFORNIA, "ca-worker-3", 15.0)),
        ]
        for proc in procs:
            yield proc

    env.run(until=env.process(lock_demo()))
    print(f"  grant order respected the queue: {grants}")
    print("\nDone.")


if __name__ == "__main__":
    main()
