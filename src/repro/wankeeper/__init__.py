"""WanKeeper: efficient distributed coordination at WAN-scale.

The paper's primary contribution (§II–III): a hybrid coordination framework
that extends centralized coordination (one ZooKeeper-style ensemble per
site) with

* **hierarchical brokers** — each site's ensemble leader acts as a level-1
  token broker; one designated site's leader is the level-2 broker that
  serializes cross-site operations;
* **token migration** — the level-2 broker observes per-record access
  patterns and migrates a record's token to a site after ``r`` consecutive
  accesses from it (default ``r = 2``), enabling *local* writes there until
  the token is recalled;
* **bulk tokens** for sequential znodes (the fair-lock recipe) that must
  stay co-located with their siblings;
* a **WAN heartbeater** for cross-site liveness and level-2 discovery;
* optional **Markov token prediction** (§II-B) and **fractional read/write
  tokens** (§VI future work).

Consistency: linearizability per client and per object across the WAN;
linearizability across objects within a site; causal consistency across
objects across sites (write tokens), upgradeable to linearizable reads with
fractional read/write tokens.
"""

from repro.wankeeper.deployment import WanKeeperDeployment, build_wankeeper_deployment
from repro.wankeeper.messages import TokenGrant, WanTxn
from repro.wankeeper.policy import (
    AlwaysMigratePolicy,
    ConsecutiveAccessPolicy,
    MarkovPolicy,
    MigrationPolicy,
    NeverMigratePolicy,
)
from repro.wankeeper.prediction import MarkovPredictor
from repro.wankeeper.server import WanKeeperServer
from repro.wankeeper.tokens import HubTokenState, SiteTokenState, token_key, token_keys

__all__ = [
    "AlwaysMigratePolicy",
    "ConsecutiveAccessPolicy",
    "HubTokenState",
    "MarkovPolicy",
    "MarkovPredictor",
    "MigrationPolicy",
    "NeverMigratePolicy",
    "SiteTokenState",
    "TokenGrant",
    "WanKeeperDeployment",
    "WanKeeperServer",
    "WanTxn",
    "build_wankeeper_deployment",
    "token_key",
    "token_keys",
]
