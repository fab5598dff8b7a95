"""Sites, node addresses, and the WAN latency matrix.

Latencies default to measured AWS inter-region round-trip times for the
three regions used in the paper's evaluation (us-east-1 Virginia, us-west-1
California, eu-central-1 Frankfurt), circa the paper's 2016/2017 experiments:

* Virginia <-> California : ~70 ms RTT
* Virginia <-> Frankfurt  : ~90 ms RTT
* California <-> Frankfurt: ~150 ms RTT
* within a datacenter     : ~0.5 ms RTT

The topology stores **one-way** delays; ``Topology.rtt`` doubles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "CALIFORNIA",
    "FRANKFURT",
    "NodeAddress",
    "Site",
    "Topology",
    "VIRGINIA",
    "wan_topology",
]

VIRGINIA = "virginia"
CALIFORNIA = "california"
FRANKFURT = "frankfurt"

# One-way delays in milliseconds between the paper's AWS regions.
DEFAULT_WAN_ONE_WAY_MS: Dict[FrozenSet[str], float] = {
    frozenset({VIRGINIA, CALIFORNIA}): 35.0,
    frozenset({VIRGINIA, FRANKFURT}): 45.0,
    frozenset({CALIFORNIA, FRANKFURT}): 75.0,
}

DEFAULT_LOCAL_ONE_WAY_MS = 0.25


class NodeAddress(NamedTuple):
    """Address of a simulated node: ``site`` plus a name unique in the run.

    A tuple subclass: addresses key every inbox, FIFO, routing, session and
    vote table on the message path, so equality, order and hash are the
    tuple's own, at C speed. The hash is ``hash((site, name))`` — what the
    hand-written class before this one cached — so dict and set iteration
    orders are unchanged. It follows that an address equals a bare
    ``(site, name)`` tuple and JSON-dumps as a two-element array.
    """

    site: str
    name: str

    def __str__(self) -> str:
        return f"{self.site}/{self.name}"


@dataclass
class Site:
    """A datacenter hosting a set of nodes."""

    name: str
    nodes: List[NodeAddress] = field(default_factory=list)

    def address(self, node_name: str) -> NodeAddress:
        """Create (and register) an address for ``node_name`` at this site."""
        addr = NodeAddress(self.name, node_name)
        if addr not in self.nodes:
            self.nodes.append(addr)
        return addr


class Topology:
    """Sites plus the pairwise one-way latency matrix."""

    def __init__(
        self,
        site_names: Iterable[str],
        one_way_ms: Optional[Dict[FrozenSet[str], float]] = None,
        local_one_way_ms: float = DEFAULT_LOCAL_ONE_WAY_MS,
        jitter_fraction: float = 0.05,
    ):
        self.sites: Dict[str, Site] = {name: Site(name) for name in site_names}
        if not self.sites:
            raise ValueError("topology needs at least one site")
        self._one_way = dict(one_way_ms or {})
        self.local_one_way_ms = local_one_way_ms
        self.jitter_fraction = jitter_fraction
        # Directed (src site, dst site) -> delay. A flat tuple-keyed mirror
        # of _one_way so the per-message lookup in one_way() never builds a
        # frozenset; kept in sync by _validate() and set_one_way(). Same-site
        # pairs are seeded with local_one_way_ms so the message fast path is
        # a single dict probe with no intra/inter-site branch.
        self._pair_delay: Dict[Tuple[str, str], float] = {}
        self._validate()

    def _validate(self) -> None:
        for pair, delay in self._one_way.items():
            if delay <= 0:
                raise ValueError(f"non-positive latency for {set(pair)}: {delay}")
            for site in pair:
                if site not in self.sites:
                    raise ValueError(f"latency given for unknown site {site!r}")
        for a in self.sites:
            for b in self.sites:
                if a != b and frozenset({a, b}) not in self._one_way:
                    raise ValueError(f"missing latency between {a!r} and {b!r}")
        self._pair_delay = {}
        for pair, delay in self._one_way.items():
            a, b = sorted(pair)
            self._pair_delay[(a, b)] = delay
            self._pair_delay[(b, a)] = delay
        for name in self.sites:
            self._pair_delay[(name, name)] = self.local_one_way_ms

    def site(self, name: str) -> Site:
        return self.sites[name]

    def site_names(self) -> List[str]:
        return list(self.sites)

    def set_one_way(self, site_a: str, site_b: str, delay_ms: float) -> None:
        """Override the one-way delay between two sites."""
        if site_a == site_b:
            raise ValueError("use local_one_way_ms for intra-site latency")
        if delay_ms <= 0:
            raise ValueError(f"non-positive latency: {delay_ms}")
        self._one_way[frozenset({site_a, site_b})] = delay_ms
        self._pair_delay[(site_a, site_b)] = delay_ms
        self._pair_delay[(site_b, site_a)] = delay_ms

    def one_way(self, src: NodeAddress, dst: NodeAddress) -> float:
        """One-way delay in ms between two node addresses."""
        if src.site == dst.site:
            return self.local_one_way_ms
        try:
            return self._pair_delay[(src.site, dst.site)]
        except KeyError:
            raise ValueError(
                f"no latency configured between {src.site!r} and {dst.site!r}"
            ) from None

    def rtt(self, site_a: str, site_b: str) -> float:
        """Round-trip time in ms between two sites."""
        if site_a == site_b:
            return 2 * self.local_one_way_ms
        return 2 * self._one_way[frozenset({site_a, site_b})]

    def wan_pairs(self) -> List[Tuple[str, str, float]]:
        """All inter-site pairs with their one-way delays (for reporting)."""
        result = []
        for pair, delay in sorted(self._one_way.items(), key=lambda kv: sorted(kv[0])):
            a, b = sorted(pair)
            result.append((a, b, delay))
        return result


def wan_topology(
    local_one_way_ms: float = DEFAULT_LOCAL_ONE_WAY_MS,
    jitter_fraction: float = 0.05,
) -> Topology:
    """The paper's three-region AWS topology."""
    return Topology(
        [VIRGINIA, CALIFORNIA, FRANKFURT],
        one_way_ms=dict(DEFAULT_WAN_ONE_WAY_MS),
        local_one_way_ms=local_one_way_ms,
        jitter_fraction=jitter_fraction,
    )
