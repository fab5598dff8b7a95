"""Shared helpers for integration tests."""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.soak import drive
from repro.zk import build_zk_deployment

__all__ = [
    "fresh_world",
    "plain_zk",
    "zk_with_observers",
    "wpaxos_grid",
    "run_app",
]


def fresh_world(seed=11, jitter=0.0):
    """A fresh environment + WAN topology + network."""
    env = Environment()
    topo = wan_topology(jitter_fraction=jitter)
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    return env, topo, net


def plain_zk(env, net, topo, **kwargs):
    """Paper baseline 'ZK': voters spanning the WAN, leader in Virginia."""
    deployment = build_zk_deployment(
        env,
        net,
        topo,
        leader_site=VIRGINIA,
        voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT),
        **kwargs,
    )
    deployment.start()
    deployment.stabilize()
    return deployment


def zk_with_observers(env, net, topo, **kwargs):
    """Paper baseline 'ZK with observers': voting core in Virginia."""
    deployment = build_zk_deployment(
        env,
        net,
        topo,
        leader_site=VIRGINIA,
        observer_sites=(CALIFORNIA, FRANKFURT),
        **kwargs,
    )
    deployment.start()
    deployment.stabilize()
    return deployment


def wpaxos_grid(env, net, topo, substrate="wpaxos", **kwargs):
    """ZK on WPaxos with three voters in each of the three sites: a zone
    keeps its majority through one crashed voter."""
    deployment = build_zk_deployment(
        env,
        net,
        topo,
        leader_site=VIRGINIA,
        voting_sites=tuple(
            site for site in (VIRGINIA, CALIFORNIA, FRANKFURT) for _ in range(3)
        ),
        substrate=substrate,
        **kwargs,
    )
    deployment.start()
    deployment.stabilize()
    return deployment


def run_app(env, generator, timeout_ms=600000.0):
    """Run a client app generator to completion; returns its value."""
    process = drive(env, generator, timeout_ms)
    if not process.triggered:
        raise AssertionError(f"app did not finish within {timeout_ms} ms")
    if not process.ok:
        raise process.exception
    return process.value
