#!/usr/bin/env python3
"""Watching tokens move: migration timelines and message counts.

Runs a small two-site contention scenario and prints (a) the full token
movement timeline for a contended record, (b) per-key migration counts,
and (c) the network's message counters — the visibility you need before
turning the paper's tuning knobs (§I). The timeline is read from the hub
leader's ``token-grant`` / ``token-accept`` events in the trace installed
before ``start()``: the default ring (4 096 events) holds the whole run
(about 400 events), so the timeline starts at the first grant.

Run:  python examples/token_observatory.py
"""

from collections import Counter

from repro.net import CALIFORNIA, FRANKFURT, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.trace import install_trace
from repro.wankeeper import build_wankeeper_deployment


def token_timeline(trace, server):
    """``(time ms, key, owner)`` per token movement ``server`` applied;
    owner ``None`` means the token returned to the hub."""
    timeline = []
    for _seq, t, cat, kind, node, detail in trace.events():
        if cat != "wan" or node != server.name:
            continue
        if kind == "token-grant":
            timeline.append((t, detail["key"], detail["site"]))
        elif kind == "token-accept":
            timeline.extend((t, key, None) for key in detail["keys"])
    return timeline


def main():
    env = Environment()
    topology = wan_topology()
    net = Network(env, topology, rng=seeded_rng(99, "net"))
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

    timeline = token_timeline(trace, deployment.hub_leader)
    print("Token timeline for /contended (time ms, owner):")
    for time_ms, key, owner in timeline:
        if key == "/contended":
            print(f"  t={time_ms:9.1f}  -> {owner or 'hub (Virginia)'}")

    print("\nToken movements per key (contention indicator):")
    moves = Counter(key for _time, key, _owner in timeline)
    for key, count in sorted(moves.items()):
        marker = "  <- contended, consider pinning" if count > 3 else ""
        print(f"  {key:16s} {count} moves{marker}")

    print(f"\nmessages: {net.messages_sent} sent, {net.bytes_sent} bytes, "
          f"{net.messages_dropped} dropped")
    print("\nInterpretation: /ca-private migrated once and stayed; "
          "/contended ping-pongs with Frankfurt's writes.")


if __name__ == "__main__":
    main()
