"""Client <-> server wire messages."""

from __future__ import annotations

from typing import Any, Optional

from repro.net.message import record
from repro.zk.records import WatchEvent

__all__ = [
    "ConnectReply",
    "ConnectRequest",
    "HeartbeatAck",
    "OpReply",
    "OpRequest",
    "SessionExpiredNotice",
    "SessionHeartbeat",
    "WatchNotify",
]


@record
class ConnectRequest:
    client: Any  # NodeAddress of the client
    timeout_ms: float


@record
class ConnectReply:
    session_id: str
    timeout_ms: float


@record
class OpRequest:
    """Client -> server: one operation."""

    session_id: str
    cxid: int
    op: Any


@record
class OpReply:
    session_id: str
    cxid: int
    ok: bool
    value: Any = None
    error_code: Optional[str] = None
    error_path: str = ""


@record
class WatchNotify:
    session_id: str
    event: WatchEvent


@record
class SessionHeartbeat:
    session_id: str


@record
class HeartbeatAck:
    session_id: str


@record
class SessionExpiredNotice:
    session_id: str
