"""WanKeeper deployment builder.

Builds the paper's deployment shape (§III): one ZooKeeper-style ensemble
per site, the designated level-2 site's ensemble doubling as the hub.
Clients connect to a server in their own site and enjoy local reads always
and local writes whenever their site holds the tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.invariants import maybe_attach_sentinel
from repro.net.topology import NodeAddress, Site, Topology, VIRGINIA
from repro.net.transport import Network
from repro.sim.kernel import Environment
from repro.trace import install_trace
from repro.wankeeper.policy import ConsecutiveAccessPolicy, MigrationPolicy
from repro.wankeeper.server import WanConfig, WanKeeperServer
from repro.zab.config import EnsembleConfig
from repro.zk.deployment import Deployment

__all__ = ["WanKeeperDeployment", "build_wankeeper_deployment"]


def _client_addrs(topology: Topology, site: str, voters: int) -> List[NodeAddress]:
    return [topology.site(site).address(f"wk{i}") for i in range(voters)]


@dataclass
class WanKeeperDeployment(Deployment):
    """A running WanKeeper system: one ensemble per site."""

    wan: WanConfig

    def _stable(self) -> bool:
        """Every site has a leader, and every site but the hub's knows the
        level-2 broker."""
        for site, servers in self.by_site.items():
            leader = next((s for s in servers if s.is_leader), None)
            if leader is None:
                return False
            if site != self.wan.l2_site and leader._l2_addr is None:
                return False
        return True

    @property
    def current_l2_site(self) -> str:
        """The acting hub site (may differ from config after failover)."""
        live = [s for s in self.servers if s.is_alive]
        if not live:
            return self.wan.l2_site
        best = max(live, key=lambda s: s.wan_epoch)
        return best.current_l2_site

    @property
    def hub_leader(self) -> Optional[WanKeeperServer]:
        return self.site_leader(self.current_l2_site)

    def token_owners(self) -> Dict[str, List[str]]:
        owners: Dict[str, List[str]] = {}
        for site in self.by_site:
            leader = self.site_leader(site)
            for key in leader.site_tokens.owned if leader is not None else ():
                owners.setdefault(key, []).append(site)
        return owners

    #: The benchmark ledger reads the replicas' digests under this name;
    #: it exists only for the ledger.
    content_fingerprints = Deployment.tree_fingerprints

    def pin_token(self, key: str, site: str) -> None:
        """Admin knob (paper §I): move/pin a record's token to ``site``."""
        hub = self.hub_leader
        if hub is None:
            raise RuntimeError("no level-2 broker available")
        hub.assign_token(key, site)

    def _add_ensemble(
        self, site: str, voters: int, processing_delay_ms: float
    ) -> List[WanKeeperServer]:
        """Build ``site``'s ensemble of ``voters`` servers."""
        zab_addrs = [
            self.topology.site(site).address(f"wk{i}.zab") for i in range(voters)
        ]
        client_addrs = _client_addrs(self.topology, site, voters)
        config = EnsembleConfig(
            voters=zab_addrs, processing_delay_ms=processing_delay_ms
        )
        servers = [
            WanKeeperServer(
                self.env, self.net, zab_addr, client_addr, config, self.wan,
                name=f"{site}/{client_addr.name}",
            )
            for zab_addr, client_addr in zip(zab_addrs, client_addrs)
        ]
        # Visible to every server (shared WanConfig instance): promotion
        # broadcasts and L2Promoted reach a site added after the start.
        self.wan.site_server_addrs[site] = tuple(client_addrs)
        self.by_site[site] = servers
        self.servers.extend(servers)
        return servers

    def add_site(
        self,
        site_name: str,
        one_way_ms: Dict[str, float],
        voters: int = 3,
    ) -> List[WanKeeperServer]:
        """Dynamically add a level-1 site (paper §II-D: "a new l1 site can
        be dynamically added with a fresh start").

        ``one_way_ms`` gives the one-way WAN delay to each existing site.
        The new site starts with no tokens: its first writes are serialized
        at level-2 and it receives the full relay history; tokens then
        migrate to it under the normal policy. Note: the site does not
        join the level-2 failover electorate (founding sites only).
        """
        if site_name in self.by_site:
            raise ValueError(f"site {site_name!r} already exists")
        if site_name not in self.topology.sites:
            self.topology.sites[site_name] = Site(site_name)
        for other in list(self.by_site):
            if other not in one_way_ms:
                raise ValueError(f"missing latency to existing site {other!r}")
            self.topology.set_one_way(site_name, other, one_way_ms[other])

        # The new site's servers cost what the founders' do.
        new_servers = self._add_ensemble(
            site_name, voters, self.servers[0].config.processing_delay_ms
        )
        # Late-joining servers write to the installed trace, with or
        # without a sentinel reading it.
        if self.env.trace is not None:
            install_trace(self, self.env.trace)
        if self.sentinel is not None:
            self.sentinel.adopt(new_servers)
        for server in new_servers:
            server.start()
        return new_servers


def build_wankeeper_deployment(
    env: Environment,
    net: Network,
    topology: Topology,
    sites: Optional[Sequence[str]] = None,
    l2_site: str = VIRGINIA,
    voters_per_site: int = 3,
    policy_factory: Callable[[], MigrationPolicy] = ConsecutiveAccessPolicy,
    initial_tokens: Optional[Dict[str, str]] = None,
    processing_delay_ms: float = 0.02,
    read_mode: str = "local",
    read_lease_ms: float = 3000.0,
    enable_l2_failover: bool = False,
    substrate: str = "zab",
) -> WanKeeperDeployment:
    """Build a WanKeeper deployment: one ensemble per site, hub at l2_site.

    ``substrate`` selects the broadcast protocol under every site
    ensemble (must be single-leader; see :mod:`repro.substrate`). The
    shared :class:`WanConfig` carries it so dynamically added sites
    (:meth:`WanKeeperDeployment.add_site`) build on the same substrate.
    """
    sites = tuple(sites if sites is not None else topology.site_names())
    if l2_site not in sites:
        raise ValueError(f"l2 site {l2_site!r} not among sites {sites}")
    wan = WanConfig(
        sites=sites,
        l2_site=l2_site,
        hub_server_addrs=tuple(_client_addrs(topology, l2_site, voters_per_site)),
        policy_factory=policy_factory,
        initial_tokens=dict(initial_tokens or {}),
        read_mode=read_mode,
        read_lease_ms=read_lease_ms,
        enable_l2_failover=enable_l2_failover,
        substrate=substrate,
    )
    deployment = WanKeeperDeployment(env, net, topology, [], wan)
    for site in sites:
        deployment._add_ensemble(site, voters_per_site, processing_delay_ms)
    deployment.sentinel = maybe_attach_sentinel(deployment)
    return deployment
