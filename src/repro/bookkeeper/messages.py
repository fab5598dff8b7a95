"""Bookie wire messages."""

from __future__ import annotations

from typing import Any, Optional

from repro.net.message import record

__all__ = ["AddAck", "AddEntry", "FenceAck", "FenceLedger", "ReadEntry", "ReadReply"]


@record
class AddEntry:
    sender: Any  # NodeAddress of the client
    ledger_id: int
    entry_id: int
    payload: bytes


@record
class AddAck:
    ledger_id: int
    entry_id: int
    ok: bool = True


@record
class ReadEntry:
    sender: Any
    ledger_id: int
    entry_id: int


@record
class ReadReply:
    ledger_id: int
    entry_id: int
    payload: Optional[bytes]  # None = not stored here


@record
class FenceLedger:
    """Recovery-opener -> bookie: reject all further adds to this ledger.

    BookKeeper's fencing protocol: a reader recovering a ledger fences it
    on a quorum of bookies so the (possibly still alive) old writer cannot
    append after recovery has decided the last entry.
    """

    sender: Any
    ledger_id: int


@record
class FenceAck:
    ledger_id: int
    last_entry: int  # highest entry id this bookie stores (-1 = none)
