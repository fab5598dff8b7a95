"""WanKeeper deployment builder.

Builds the paper's deployment shape (§III): one ZooKeeper-style ensemble
per site, the designated level-2 site's ensemble doubling as the hub.
Clients connect to a server in their own site and enjoy local reads always
and local writes whenever their site holds the tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.invariants import maybe_attach_sentinel
from repro.net.topology import NodeAddress, Topology, VIRGINIA
from repro.net.transport import Network
from repro.sim.kernel import Environment, SimulationError
from repro.wankeeper.policy import ConsecutiveAccessPolicy, MigrationPolicy
from repro.wankeeper.server import WanConfig, WanKeeperServer
from repro.zab.config import EnsembleConfig
from repro.zk.client import ZkClient

__all__ = ["WanKeeperDeployment", "build_wankeeper_deployment"]


@dataclass
class WanKeeperDeployment:
    """A running WanKeeper system: one ensemble per site."""

    env: Environment
    net: Network
    topology: Topology
    wan: WanConfig
    servers: List[WanKeeperServer]
    by_site: Dict[str, List[WanKeeperServer]]
    sentinel: Optional[object] = None
    _clients: List[ZkClient] = field(default_factory=list)
    _client_counter: int = 0

    def start(self) -> None:
        for server in self.servers:
            server.start()

    def stabilize(self, max_ms: float = 60000.0) -> None:
        """Run until every site has a leader and knows the level-2 broker."""
        deadline = self.env.now + max_ms
        while self.env.now < deadline:
            if self._stable():
                return
            self.env.run(until=self.env.now + 50.0)
        raise SimulationError("WanKeeper deployment failed to stabilize")

    def _stable(self) -> bool:
        for site, servers in self.by_site.items():
            leader = next((s for s in servers if s.is_leader), None)
            if leader is None:
                return False
            if site != self.wan.l2_site and leader._l2_addr is None:
                return False
        return True

    def site_leader(self, site: str) -> Optional[WanKeeperServer]:
        for server in self.by_site[site]:
            if server.is_leader:
                return server
        return None

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

    def server_at(self, site: str) -> WanKeeperServer:
        for server in self.by_site[site]:
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
        """Create a client in ``site`` bound to that site's local server."""
        self._client_counter += 1
        client_name = name or f"client{self._client_counter}"
        addr = self.topology.site(site).address(f"{client_name}@{site}")
        client = ZkClient(
            self.env,
            self.net,
            addr,
            self.server_at(site).client_addr,
            session_timeout_ms=session_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            name=client_name,
        )
        self._clients.append(client)
        return client

    def pin_token(self, key: str, site: str) -> None:
        """Admin knob (paper §I): move/pin a record's token to ``site``."""
        hub = self.hub_leader
        if hub is None:
            raise RuntimeError("no level-2 broker available")
        hub.assign_token(key, site)

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
        from repro.net.topology import Site

        if site_name in self.by_site:
            raise ValueError(f"site {site_name!r} already exists")
        if site_name not in self.topology.sites:
            self.topology.sites[site_name] = Site(site_name)
        for other in list(self.by_site):
            if other not in one_way_ms:
                raise ValueError(f"missing latency to existing site {other!r}")
            self.topology.set_one_way(site_name, other, one_way_ms[other])

        zab_addrs = [
            self.topology.site(site_name).address(f"wk{i}.zab")
            for i in range(voters)
        ]
        # The new site's servers cost what the founders' do.
        config = EnsembleConfig(
            voters=zab_addrs,
            processing_delay_ms=self.servers[0].config.processing_delay_ms,
        )
        client_addrs = []
        new_servers: List[WanKeeperServer] = []
        for zab_addr in zab_addrs:
            client_name = zab_addr.name.replace(".zab", "")
            client_addr = self.topology.site(site_name).address(client_name)
            client_addrs.append(client_addr)
            server = WanKeeperServer(
                self.env,
                self.net,
                zab_addr,
                client_addr,
                config,
                self.wan,
                name=f"{site_name}/{client_name}",
            )
            new_servers.append(server)
        # Visible to every existing server (shared WanConfig instance):
        # promotion broadcasts and L2Promoted now reach the new site.
        self.wan.site_server_addrs[site_name] = tuple(client_addrs)
        self.by_site[site_name] = new_servers
        self.servers.extend(new_servers)
        if self.sentinel is not None:
            # Late-joining servers watch the same trace and invariants.
            if self.env.trace is not None:
                for server in new_servers:
                    server._trace = self.env.trace
                    server.peer._trace = self.env.trace
            self.sentinel.adopt(new_servers)
        for server in new_servers:
            server.start()
        return new_servers

    def content_fingerprints(self) -> Dict[str, int]:
        return {server.name: server.tree.fingerprint() for server in self.servers}


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

    hub_client_addrs: List[NodeAddress] = []
    site_server_addrs: Dict[str, tuple] = {}
    site_configs: Dict[str, EnsembleConfig] = {}
    addresses: Dict[str, List] = {}
    for site in sites:
        voters = [
            topology.site(site).address(f"wk{i}.zab") for i in range(voters_per_site)
        ]
        site_configs[site] = EnsembleConfig(
            voters=voters, processing_delay_ms=processing_delay_ms
        )
        addresses[site] = voters
        client_addrs = []
        for voter in voters:
            client_addr = topology.site(site).address(voter.name.replace(".zab", ""))
            client_addrs.append(client_addr)
            if site == l2_site:
                hub_client_addrs.append(client_addr)
        site_server_addrs[site] = tuple(client_addrs)

    wan = WanConfig(
        sites=sites,
        l2_site=l2_site,
        hub_server_addrs=tuple(hub_client_addrs),
        policy_factory=policy_factory,
        initial_tokens=dict(initial_tokens or {}),
        read_mode=read_mode,
        read_lease_ms=read_lease_ms,
        enable_l2_failover=enable_l2_failover,
        site_server_addrs=site_server_addrs,
        substrate=substrate,
    )

    servers: List[WanKeeperServer] = []
    by_site: Dict[str, List[WanKeeperServer]] = {site: [] for site in sites}
    for site in sites:
        for zab_addr in addresses[site]:
            client_name = zab_addr.name.replace(".zab", "")
            client_addr = topology.site(site).address(client_name)
            server = WanKeeperServer(
                env,
                net,
                zab_addr,
                client_addr,
                site_configs[site],
                wan,
                name=f"{site}/{client_name}",
            )
            servers.append(server)
            by_site[site].append(server)

    deployment = WanKeeperDeployment(env, net, topology, wan, servers, by_site)
    deployment.sentinel = maybe_attach_sentinel(deployment)
    return deployment
