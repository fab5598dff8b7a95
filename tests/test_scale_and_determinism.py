"""Scale (5 sites) and whole-system determinism tests."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, Topology
from repro.sim import Environment, seeded_rng
from repro.wankeeper import build_wankeeper_deployment

from tests.support import fresh_world, run_app

FIVE_SITES = ("ashburn", "boardman", "dublin", "osaka", "saopaulo")


def five_site_world(seed=3):
    env = Environment()
    # A synthetic 5-region mesh with plausible one-way delays.
    delays = {}
    base = {
        ("ashburn", "boardman"): 33.0,
        ("ashburn", "dublin"): 38.0,
        ("ashburn", "osaka"): 82.0,
        ("ashburn", "saopaulo"): 60.0,
        ("boardman", "dublin"): 65.0,
        ("boardman", "osaka"): 50.0,
        ("boardman", "saopaulo"): 90.0,
        ("dublin", "osaka"): 110.0,
        ("dublin", "saopaulo"): 92.0,
        ("osaka", "saopaulo"): 130.0,
    }
    for (a, b), delay in base.items():
        delays[frozenset({a, b})] = delay
    topo = Topology(FIVE_SITES, one_way_ms=delays, jitter_fraction=0.0)
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    return env, topo, net


def test_five_site_deployment_stabilizes_and_serves():
    env, topo, net = five_site_world()
    deployment = build_wankeeper_deployment(
        env, net, topo, sites=FIVE_SITES, l2_site="ashburn"
    )
    deployment.start()
    deployment.stabilize()
    clients = {site: deployment.client(site) for site in FIVE_SITES}

    def app():
        for client in clients.values():
            yield client.connect()
        for site, client in clients.items():
            yield client.create(f"/{site}", site.encode())
            yield client.set_data(f"/{site}", b"warm")  # earn the token
        yield env.timeout(2000.0)
        # Every site now writes its own record locally.
        latencies = {}
        for site, client in clients.items():
            start = env.now
            yield client.set_data(f"/{site}", b"local")
            latencies[site] = env.now - start
        yield env.timeout(10000.0)
        return latencies

    latencies = run_app(env, app(), timeout_ms=600000.0)
    for site, latency in latencies.items():
        if site == "ashburn":
            continue  # hub site writes are local anyway
        assert latency < 10.0, f"{site}: {latency}"
    fingerprints = {s.name: s.tree.fingerprint() for s in deployment.servers}
    assert len(set(fingerprints.values())) == 1
    assert len(deployment.servers) == 15


def test_five_site_token_exclusivity_under_all_pairs_contention():
    env, topo, net = five_site_world(seed=9)
    deployment = build_wankeeper_deployment(
        env, net, topo, sites=FIVE_SITES, l2_site="ashburn"
    )
    deployment.start()
    deployment.stabilize()

    def app():
        clients = {}
        for site in FIVE_SITES:
            clients[site] = deployment.client(site, request_timeout_ms=60000.0)
            yield clients[site].connect()
        yield clients["ashburn"].create("/global", b"")

        def writer(site):
            for i in range(4):
                yield clients[site].set_data("/global", f"{site}-{i}".encode())

        procs = [env.process(writer(site)) for site in FIVE_SITES]
        for proc in procs:
            yield proc
        yield env.timeout(15000.0)
        return True

    run_app(env, app(), timeout_ms=1200000.0)
    owners = []
    for site in FIVE_SITES:
        leader = deployment.site_leader(site)
        if "/global" in leader.site_tokens.owned:
            owners.append(site)
    assert len(owners) <= 1
    datas = {s.tree.node("/global").data for s in deployment.servers}
    assert len(datas) == 1


def run_deterministic_trace(seed):
    """One fixed scenario; returns a detailed result tuple."""
    env, topo, net = fresh_world(seed=seed, jitter=0.2)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)
    latencies = []

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/det", b"")
        for i in range(10):
            start = env.now
            yield ca.set_data("/det", f"ca{i}".encode())
            latencies.append(round(env.now - start, 9))
            if i % 3 == 0:
                start = env.now
                yield fr.set_data("/det", f"fr{i}".encode())
                latencies.append(round(env.now - start, 9))
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    fingerprint = sorted(set(deployment.tree_fingerprints().values()))
    return (
        tuple(latencies),
        tuple(fingerprint),
        net.messages_sent,
        round(env.now, 6),
    )


def test_whole_system_determinism():
    """Identical seed => byte-identical run (latencies, message counts)."""
    assert run_deterministic_trace(17) == run_deterministic_trace(17)


def test_different_seeds_differ_in_jittered_latencies():
    first = run_deterministic_trace(17)
    second = run_deterministic_trace(18)
    # Jitter makes exact latency sequences seed-dependent.
    assert first[0] != second[0]
