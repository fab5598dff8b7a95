"""Conformance suite for deployments (:class:`repro.zk.deployment.Deployment`).

Every stack the repository ships is one ``Deployment``, and the soak, the
nemesis and the experiments read nothing else:

* **Sites** — ``by_site`` maps each site to its servers in build order;
  the nemesis picks its targets from it.
* **Placement** — ``server_at(site)`` is the first live server of the
  site, and ``site_leader(site)`` a leader among them or ``None``.
* **One soak** — a fault-free :func:`repro.soak.run_soak` finishes,
  converges, leaves no key with two token owners (a plain ensemble has
  no tokens at all) and no linearizability violation.
"""

import math
import random

import pytest

from repro.nemesis import Nemesis, NemesisConfig
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.sim import seeded_rng
from repro.soak import run_soak
from repro.wankeeper import build_wankeeper_deployment
from tests.support import fresh_world, plain_zk, wpaxos_grid

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)


def wankeeper(env, net, topo):
    deployment = build_wankeeper_deployment(env, net, topo, l2_site=VIRGINIA)
    deployment.start()
    deployment.stabilize()
    return deployment


#: wk×zab: one ensemble per site; zk×zab: one voter per site, leader in
#: Virginia; zk×wpaxos: three voters per site, every live voter leads.
STACKS = {"wk-zab": wankeeper, "zk-zab": plain_zk, "zk-wpaxos": wpaxos_grid}
#: How many sites have a leader once the deployment is stable.
LEADER_SITES = {"wk-zab": 3, "zk-zab": 1, "zk-wpaxos": 3}
#: A nemesis that draws an entry every interval and never injects a fault.
QUIET = NemesisConfig(
    crash_probability=0.0, partition_probability=0.0,
    flaky_link_probability=0.0, oneway_partition_probability=0.0,
    gray_degrade_probability=0.0,
)


def build(stack, seed=7):
    env, topo, net = fresh_world(seed=seed)
    deployment = STACKS[stack](env, net, topo)
    nemesis = Nemesis(env, net, deployment, seeded_rng(seed, "nemesis"), QUIET)
    return deployment, nemesis


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_sites_map_every_server_and_place_clients_on_live_ones(stack):
    deployment, nemesis = build(stack)
    assert nemesis._sites() == sorted(SITES)
    assert [s for site in SITES for s in nemesis._servers_in(site)] == sorted(
        deployment.servers, key=lambda s: SITES.index(s.site)
    )
    leaders = [deployment.site_leader(site) for site in SITES]
    assert sum(leader is not None for leader in leaders) == LEADER_SITES[stack]
    for site, leader in zip(SITES, leaders):
        assert leader is None or (leader.site == site and leader.is_leader)
        servers = deployment.by_site[site]
        assert deployment.server_at(site) is servers[0]
        servers[0].crash()
        if len(servers) > 1:
            assert deployment.server_at(site) is servers[1]
        else:
            with pytest.raises(ValueError):
                deployment.server_at(site)


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_fault_free_soak_finishes_converged_and_linearizable(stack):
    deployment, nemesis = build(stack)
    run = run_soak(
        deployment, nemesis, [f"/contract/k{i}" for i in range(4)],
        [(site, random.Random(index)) for index, site in enumerate(SITES)],
        ops_per_actor=15, duration_ms=math.inf, max_retries=10,
        request_timeout_ms=3000.0, write_fraction=0.5,
        pace_ms=(50.0, 200.0), settle_ms=500.0, quiesce_ms=5000.0,
        horizon_ms=3.6e6,
    )
    assert run.finished and run.violation is None
    assert run.writes and run.reads and not run.failures
    assert run.converged
    assert run.token_conflicts == []
    assert run.linearizability_violations == []
    assert nemesis.applied == 0
