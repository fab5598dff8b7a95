#!/usr/bin/env python3
"""Watching tokens move: migration timelines and WAN message accounting.

Runs a small two-site contention scenario and prints (a) the full token
movement timeline for a contended record, (b) per-key migration counts,
and (c) the WAN/local message breakdown — the visibility you need before
turning the paper's tuning knobs (§I). The timeline is read from the
``token-grant`` / ``token-accept`` events in the trace installed before
``start()``: the default ring (4 096 events) holds the whole run (about
400 events), so the timeline starts at the first grant.

Run:  python examples/token_observatory.py
"""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.observability import MessageStats, migration_counts, token_timeline
from repro.sim import Environment, seeded_rng
from repro.trace import install_trace
from repro.wankeeper import build_wankeeper_deployment


def main():
    env = Environment()
    topology = wan_topology()
    net = Network(env, topology, rng=seeded_rng(99, "net"))
    stats = MessageStats.attach(net)
    deployment = build_wankeeper_deployment(env, net, topology)
    trace = install_trace(deployment)
    deployment.start()
    deployment.stabilize()

    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/contended", b"")
        yield ca.create("/ca-private", b"")
        # California hammers both records; Frankfurt joins on one.
        for round_index in range(3):
            for _ in range(3):
                yield ca.set_data("/contended", f"ca-{env.now}".encode())
                yield ca.set_data("/ca-private", f"ca-{env.now}".encode())
            for _ in range(2):
                yield fr.set_data("/contended", f"fr-{env.now}".encode())
        yield env.timeout(3000.0)
        return True

    env.run(until=env.process(app()))
    assert trace.total_emitted <= trace.capacity, "the trace ring wrapped"

    hub = deployment.hub_leader
    print("Token timeline for /contended (time ms, owner):")
    for time_ms, _key, owner in token_timeline(hub, "/contended"):
        print(f"  t={time_ms:9.1f}  -> {owner or 'hub (Virginia)'}")

    print("\nToken movements per key (contention indicator):")
    for key, count in sorted(migration_counts(hub).items()):
        marker = "  <- contended, consider pinning" if count > 3 else ""
        print(f"  {key:16s} {count} moves{marker}")

    print()
    print(stats.report())
    print("\nInterpretation: /ca-private migrated once and stayed; "
          "/contended ping-pongs with Frankfurt's writes.")


if __name__ == "__main__":
    main()
