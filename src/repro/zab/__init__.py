"""Zab-style atomic broadcast.

An implementation of the ZooKeeper Atomic Broadcast protocol structure the
paper builds on (§II-C: "WanKeeper's protocol is an extension of Zab"):

* **fast leader election** — peers exchange votes ordered by (last zxid,
  server id) until a quorum agrees;
* **discovery** — the new leader learns the latest accepted epoch from a
  quorum and issues a new epoch;
* **synchronization** — followers are brought up to date (DIFF / TRUNC /
  SNAP) before the new epoch serves traffic;
* **broadcast** — two-phase quorum commit (PROPOSE / ACK / COMMIT) with
  strictly increasing zxids;
* **observers** — non-voting learners that receive committed transactions
  only (INFORM), used by the paper's "ZooKeeper with observers" baseline.

The module exposes :class:`ZabPeer` (one per server) and
:class:`EnsembleConfig`. The replicated state machine on top registers an
``on_commit`` callback; WanKeeper additionally hooks the leader's proposal
path to implement token checks.
"""

from repro.zab.config import EnsembleConfig
from repro.zab.log import LogEntry, TxnLog
from repro.zab.peer import ZabPeer
from repro.zab.zxid import Zxid

__all__ = [
    "EnsembleConfig",
    "LogEntry",
    "TxnLog",
    "ZabPeer",
    "Zxid",
]
