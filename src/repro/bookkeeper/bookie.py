"""The bookie: a ledger storage server.

Stores (ledger, entry) -> payload with a small configurable write delay
standing in for the journal fsync. Bookies are deliberately simple — the
paper's benchmark stresses the *coordination* path, and "BookKeeper removes
ZooKeeper out of the critical path of data replication" (§IV-B).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bookkeeper.messages import (
    AddAck,
    AddEntry,
    FenceAck,
    FenceLedger,
    ReadEntry,
    ReadReply,
)
from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Interrupt
from repro.sim.store import StoreClosed

__all__ = ["Bookie"]


class Bookie:
    """One storage server."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        journal_delay_ms: float = 0.5,
    ):
        self.env = env
        self.net = net
        self.addr = addr
        self.journal_delay_ms = journal_delay_ms
        self.inbox = net.register(addr)
        self._entries: Dict[Tuple[int, int], bytes] = {}
        self._fenced: set = set()
        self.entries_stored = 0
        self.adds_rejected = 0
        self._alive = False
        self._proc = None

    def start(self) -> None:
        if self._alive:
            raise RuntimeError(f"bookie {self.addr} already started")
        self._alive = True
        self._proc = self.env.process(self._loop(), name=f"bookie.{self.addr}")

    def crash(self) -> None:
        if not self._alive:
            return
        self._alive = False
        self.net.crash(self.addr)
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("crash")

    def entry(self, ledger_id: int, entry_id: int) -> Optional[bytes]:
        return self._entries.get((ledger_id, entry_id))

    def _loop(self):
        while self._alive:
            try:
                _src, _dst, msg = yield self.inbox.get()
            except (StoreClosed, Interrupt):
                return
            if isinstance(msg, AddEntry):
                if msg.ledger_id in self._fenced:
                    self.adds_rejected += 1
                    self.net.send(
                        self.addr,
                        msg.sender,
                        AddAck(msg.ledger_id, msg.entry_id, ok=False),
                    )
                    continue
                yield self.env.timeout(self.journal_delay_ms)
                if not self._alive:
                    return
                self._entries[(msg.ledger_id, msg.entry_id)] = msg.payload
                self.entries_stored += 1
                self.net.send(
                    self.addr, msg.sender, AddAck(msg.ledger_id, msg.entry_id)
                )
            elif isinstance(msg, FenceLedger):
                self._fenced.add(msg.ledger_id)
                last = max(
                    (
                        entry_id
                        for ledger_id, entry_id in self._entries
                        if ledger_id == msg.ledger_id
                    ),
                    default=-1,
                )
                self.net.send(
                    self.addr, msg.sender, FenceAck(msg.ledger_id, last)
                )
            elif isinstance(msg, ReadEntry):
                payload = self._entries.get((msg.ledger_id, msg.entry_id))
                self.net.send(
                    self.addr,
                    msg.sender,
                    ReadReply(msg.ledger_id, msg.entry_id, payload),
                )
            else:
                raise ValueError(f"bookie {self.addr}: unexpected {msg!r}")
