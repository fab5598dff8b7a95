"""The deployment contract, and the builders of the paper's ZooKeeper
baselines.

:class:`Deployment` is what every stack exposes: WanKeeper's one-ensemble-
per-site deployment (:mod:`repro.wankeeper.deployment`) subclasses it, as
:class:`ZkDeployment` does.

The two baseline shapes from §IV-A:

* **plain ZK** — one ensemble whose voters span the WAN (leader pinned to
  the designated leader site by election priority: remote writes take ~2
  WAN RTTs because commit quorums cross the WAN);
* **ZK with observers** — all voters in the leader site, one non-voting
  observer in each remote site (remote writes take ~1 WAN RTT; reads are
  local).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.invariants import maybe_attach_sentinel
from repro.net.topology import NodeAddress, Topology, VIRGINIA
from repro.net.transport import Network
from repro.sim.kernel import Environment, SimulationError
from repro.zab.config import EnsembleConfig
from repro.zk.client import ZkClient
from repro.zk.server import ZkServer

__all__ = ["Deployment", "ZkDeployment", "build_zk_deployment"]

#: Voters of the observer baseline, all in the leader site.
VOTERS_IN_LEADER_SITE = 3


@dataclass
class Deployment:
    """A running set of coordination servers plus client factory.

    The one contract the soak, the nemesis, the sentinel and the
    experiments read, whatever the stack: ``by_site`` lists each site's
    servers in build order, and :meth:`_stable` is what :meth:`stabilize`
    waits for.
    """

    env: Environment
    net: Network
    topology: Topology
    servers: List[ZkServer]
    by_site: Dict[str, List[ZkServer]] = field(init=False)
    sentinel: Optional[object] = field(default=None, init=False)
    _client_counter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.by_site = {}
        for server in self.servers:
            self.by_site.setdefault(server.site, []).append(server)

    def start(self) -> None:
        for server in self.servers:
            server.start()

    def stabilize(self, max_ms: float = 60000.0) -> None:
        """Run the simulation until the deployment is stable."""
        deadline = self.env.now + max_ms
        while self.env.now < deadline:
            if self._stable():
                return
            self.env.run(until=self.env.now + 50.0)
        raise SimulationError(
            f"{type(self).__name__} failed to stabilize within {max_ms} ms"
        )

    def _stable(self) -> bool:
        return any(server.is_leader for server in self.servers)

    def site_leader(self, site: str) -> Optional[ZkServer]:
        """The first leader among ``site``'s servers, or ``None``: a zab
        ensemble's one leader sits in one site, while under wpaxos every
        live voter leads."""
        for server in self.by_site[site]:
            if server.is_leader:
                return server
        return None

    def server_at(self, site: str) -> ZkServer:
        """The first live server in ``site`` — where local clients connect."""
        for server in self.by_site.get(site, ()):
            if server.is_alive:
                return server
        raise ValueError(f"no live server in site {site!r}")

    def client(
        self,
        site: str,
        name: str = "",
        session_timeout_ms: float = 6000.0,
        request_timeout_ms: float = 10000.0,
    ) -> ZkClient:
        """Create a client in ``site`` bound to that site's server."""
        self._client_counter += 1
        client_name = name or f"client{self._client_counter}"
        addr = self.topology.site(site).address(f"{client_name}@{site}")
        return ZkClient(
            self.env,
            self.net,
            addr,
            self.server_at(site).client_addr,
            session_timeout_ms=session_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            name=client_name,
        )

    def tree_fingerprints(self) -> Dict[str, int]:
        """Data-tree digests per server (replica-consistency checks)."""
        return {server.name: server.tree.fingerprint() for server in self.servers}

    def token_owners(self) -> Dict[str, List[str]]:
        """Each token key -> the sites whose leaders hold it; a plain
        ensemble has no tokens."""
        return {}


class ZkDeployment(Deployment):
    """One ensemble, voters (and observers) spread over the sites."""

    @property
    def leader(self) -> Optional[ZkServer]:
        for server in self.servers:
            if server.is_leader:
                return server
        return None


def build_zk_deployment(
    env: Environment,
    net: Network,
    topology: Topology,
    leader_site: str = VIRGINIA,
    voting_sites: Optional[Sequence[str]] = None,
    observer_sites: Sequence[str] = (),
    substrate: str = "zab",
) -> ZkDeployment:
    """Build one of the two baseline deployments.

    With ``voting_sites`` given, one voter is placed in each named site
    (paper's plain-ZK setup; repeat a site name for more voters there).
    Otherwise ``VOTERS_IN_LEADER_SITE`` voters are placed in
    ``leader_site``. ``observer_sites`` each get one observer.

    ``substrate`` picks the broadcast protocol underneath every server
    (see :mod:`repro.substrate`): ``"zab"`` (default, single elected
    leader) or ``"wpaxos"`` (multileader; every voter proposes for the
    objects it owns, so ``leader_site`` only shapes naming).

    Under zab the leader lands in ``leader_site`` because election ties
    break toward the highest (zxid, address), and the leader-site voter
    is given the lexicographically greatest name.
    """
    voter_addrs: List[NodeAddress] = []
    if voting_sites is not None:
        counters: Dict[str, int] = {}
        for site in voting_sites:
            counters[site] = counters.get(site, 0) + 1
            # 'zz' prefix in the leader site wins election ties there.
            prefix = "zz-voter" if site == leader_site else "voter"
            voter_addrs.append(
                topology.site(site).address(f"{prefix}{counters[site]}.zab")
            )
    else:
        for index in range(VOTERS_IN_LEADER_SITE):
            voter_addrs.append(
                topology.site(leader_site).address(f"voter{index}.zab")
            )

    observer_addrs = [
        topology.site(site).address(f"observer-{site}.zab")
        for site in observer_sites
    ]

    config = EnsembleConfig(voters=voter_addrs, observers=observer_addrs)

    servers = []
    for zab_addr in voter_addrs + observer_addrs:
        client_name = zab_addr.name.replace(".zab", "")
        client_addr = topology.site(zab_addr.site).address(client_name)
        servers.append(
            ZkServer(
                env, net, zab_addr, client_addr, config,
                name=f"{zab_addr.site}/{client_name}",
                substrate=substrate,
            )
        )

    deployment = ZkDeployment(env, net, topology, servers)
    deployment.sentinel = maybe_attach_sentinel(deployment)
    return deployment
