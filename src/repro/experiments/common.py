"""Shared experiment plumbing: world construction and result formatting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.sim import Environment, RngRegistry, seeded_rng
from repro.wankeeper import ConsecutiveAccessPolicy, build_wankeeper_deployment
from repro.zk import build_zk_deployment

__all__ = ["SYSTEMS", "World", "build_world", "format_table"]

#: The comparison systems of §IV — plain ZooKeeper with WAN voters,
#: ZooKeeper with observers, WanKeeper cold, and WanKeeper hot-started —
#: plus the WPaxos design point the fig_wpaxos suite compares against:
#: a flat multi-site ensemble on the multileader substrate, where
#: per-object ownership (stolen on demand) plays the role of WanKeeper's
#: tokens and commits for owned objects need only a zone-local quorum.
SYSTEMS = ("zk", "zk_observer", "wk", "wk_hot", "wpaxos")

SYSTEM_LABELS = {
    "zk": "ZooKeeper",
    "zk_observer": "ZooKeeper+observers",
    "wk": "WanKeeper (cold)",
    "wk_hot": "WanKeeper (hot)",
    "wpaxos": "WPaxos (multileader)",
}


@dataclass
class World:
    """A freshly built simulated deployment plus its RNG registry."""

    kind: str
    env: Environment
    topology: Any
    net: Network
    deployment: Any
    rngs: RngRegistry

    def client(self, site: str, **kwargs):
        return self.deployment.client(site, **kwargs)


def build_world(
    system: str,
    seed: int = 42,
    initial_tokens: Optional[Dict[str, str]] = None,
    policy_factory: Callable = ConsecutiveAccessPolicy,
    read_mode: str = "local",
    processing_delay_ms: float = 0.02,
) -> World:
    """Build one of the paper's deployments on a fresh simulation."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
    env = Environment()
    # The paper's WAN: fixed per-pair delays, no jitter.
    topology = wan_topology(jitter_fraction=0.0)
    net = Network(env, topology, rng=seeded_rng(seed, "net"))
    if system == "zk":
        deployment = build_zk_deployment(
            env,
            net,
            topology,
            leader_site=VIRGINIA,
            voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT),
            processing_delay_ms=processing_delay_ms,
        )
    elif system == "zk_observer":
        deployment = build_zk_deployment(
            env,
            net,
            topology,
            leader_site=VIRGINIA,
            observer_sites=(CALIFORNIA, FRANKFURT),
            processing_delay_ms=processing_delay_ms,
        )
    elif system == "wpaxos":
        # Same node budget as WanKeeper (three voters per site), one flat
        # ensemble on the multileader substrate: zones are the sites, so a
        # locally-owned object commits in an intra-site quorum and only
        # steals cross the WAN.
        deployment = build_zk_deployment(
            env,
            net,
            topology,
            leader_site=VIRGINIA,
            voting_sites=(VIRGINIA,) * 3 + (CALIFORNIA,) * 3 + (FRANKFURT,) * 3,
            processing_delay_ms=processing_delay_ms,
            substrate="wpaxos",
        )
    else:
        deployment = build_wankeeper_deployment(
            env,
            net,
            topology,
            l2_site=VIRGINIA,
            initial_tokens=initial_tokens if system == "wk_hot" else None,
            policy_factory=policy_factory,
            read_mode=read_mode,
            processing_delay_ms=processing_delay_ms,
        )
    deployment.start()
    deployment.stabilize()
    return World(system, env, topology, net, deployment, RngRegistry(seed))


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Plain-text table for benchmark output."""
    text_rows = [
        [
            f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows)) if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
