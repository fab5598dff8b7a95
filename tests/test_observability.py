"""Tests for the observability helpers."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.observability import MessageStats, migration_counts, token_timeline
from repro.trace import install_trace
from repro.wankeeper import build_wankeeper_deployment

from tests.support import fresh_world, run_app


def test_message_stats_classifies_wan_vs_local():
    env, topo, net = fresh_world()
    stats = MessageStats.attach(net)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/x", b"")
        return True

    run_app(env, app())
    assert stats.total > 0
    assert stats.wan_messages > 0
    assert stats.local_messages > stats.wan_messages  # quorum chatter is local
    assert 0.0 < stats.wan_fraction() < 0.5
    assert stats.by_type["Propose"] > 0
    assert ("california", "virginia") in stats.by_site_pair


def test_message_stats_report_renders():
    env, topo, net = fresh_world()
    stats = MessageStats.attach(net)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    report = stats.report()
    assert "messages:" in report and "WAN" in report


def test_token_timeline_records_migration_and_return():
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    install_trace(deployment)
    deployment.start()
    deployment.stabilize()
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/t", b"")
        yield ca.set_data("/t", b"1")   # grant to CA
        yield env.timeout(300.0)
        yield fr.set_data("/t", b"2")   # recall to hub
        yield env.timeout(2000.0)
        return True

    run_app(env, app())
    hub = deployment.hub_leader
    timeline = token_timeline(hub, "/t")
    owners = [owner for _t, _k, owner in timeline]
    assert owners[0] == CALIFORNIA
    assert None in owners  # returned to the hub after the recall
    times = [t for t, _k, _o in timeline]
    assert times == sorted(times)
    counts = migration_counts(hub)
    assert counts["/t"] >= 2


def test_timeline_filter_by_key():
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    install_trace(deployment)
    deployment.start()
    deployment.stabilize()
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        for name in ("/a", "/b"):
            yield client.create(name, b"")
            yield client.set_data(name, b"1")
        yield env.timeout(500.0)
        return True

    run_app(env, app())
    hub = deployment.hub_leader
    only_a = token_timeline(hub, "/a")
    assert all(key == "/a" for _t, key, _o in only_a)
    assert len(token_timeline(hub)) >= len(only_a)


def test_token_timeline_needs_an_installed_trace(monkeypatch):
    monkeypatch.setenv("REPRO_SENTINEL", "0")  # the sentinel installs one
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    with pytest.raises(ValueError, match="install_trace"):
        token_timeline(deployment.hub_leader)
    with pytest.raises(ValueError, match="install_trace"):
        migration_counts(deployment.hub_leader)


def test_the_replicas_of_a_site_list_the_same_timeline():
    """Each replica records the grants and returns it applies, so the
    timeline is per site: in a fault-free run the three replicas of a site
    list the same movements (the times differ by when each applied)."""
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    install_trace(deployment)
    deployment.start()
    deployment.stabilize()
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/s", b"")
        for round_index in range(2):
            yield ca.set_data("/s", b"ca")
            yield fr.set_data("/s", b"fr")
        yield env.timeout(2000.0)
        return True

    run_app(env, app())
    for site in (VIRGINIA, CALIFORNIA, FRANKFURT):
        replicas = deployment.by_site[site]
        assert len(replicas) == 3
        moves = [
            [(key, owner) for _t, key, owner in token_timeline(server)]
            for server in replicas
        ]
        assert moves[0], site
        assert moves[1:] == [moves[0], moves[0]], site
