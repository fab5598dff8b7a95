"""ZooKeeper-equivalent coordination service.

A from-scratch implementation of the coordination substrate the paper builds
on and compares against: a replicated znode tree maintained by Zab atomic
broadcast, with the ZooKeeper API surface that matters to the paper's
experiments and use cases:

* persistent / ephemeral / sequential znodes with versioned updates;
* watches (data, exists, children) with one-shot semantics;
* sessions with heartbeat-driven expiry and ephemeral cleanup;
* observers for WAN read-locality (the "ZooKeeper with observers" baseline);
* a synchronous FIFO client (linearizable writes, sequential reads).

:func:`build_zk_deployment` assembles the two baseline topologies used in the
evaluation: a plain ensemble with WAN voters and an ensemble with a voting
core in one region plus observers in the others.
"""

from repro.zk.client import ZkClient
from repro.zk.data_tree import DataTree, Znode
from repro.zk.deployment import Deployment, build_zk_deployment
from repro.zk.errors import (
    ApiError,
    BadVersionError,
    ConnectionLossError,
    NoChildrenForEphemeralsError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
    ZkError,
)
from repro.zk.ops import (
    CheckVersionOp,
    CreateOp,
    DeleteOp,
    ExistsOp,
    GetChildrenOp,
    GetDataOp,
    MultiOp,
    SetDataOp,
    SyncOp,
    Txn,
    is_write_op,
    paths_touched,
)
from repro.zk.records import Stat, WatchEvent, WatchType
from repro.zk.server import ZkServer

__all__ = [
    "ApiError",
    "BadVersionError",
    "CheckVersionOp",
    "ConnectionLossError",
    "CreateOp",
    "DataTree",
    "DeleteOp",
    "Deployment",
    "ExistsOp",
    "GetChildrenOp",
    "GetDataOp",
    "MultiOp",
    "NoChildrenForEphemeralsError",
    "NoNodeError",
    "NodeExistsError",
    "NotEmptyError",
    "SessionExpiredError",
    "SetDataOp",
    "Stat",
    "SyncOp",
    "Txn",
    "WatchEvent",
    "WatchType",
    "ZkClient",
    "ZkError",
    "ZkServer",
    "Znode",
    "build_zk_deployment",
    "is_write_op",
    "paths_touched",
]
