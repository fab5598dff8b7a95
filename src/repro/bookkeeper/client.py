"""BookKeeper client: ledger lifecycle + quorum appends.

Ledger metadata lives in the coordination service exactly as in BookKeeper
(§IV-B): "the ensemble composition of ledgers, write quorum size, ledger
status, and the last entry successfully written to a closed ledger".
Entry appends go straight to bookies and wait for a write quorum of acks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
from repro.sim.kernel import Environment, Event, Interrupt
from repro.sim.store import StoreClosed
from repro.zk.client import ZkClient
from repro.zk.errors import NodeExistsError

__all__ = ["BookKeeperClient", "LedgerFencedError", "LedgerHandle"]

LEDGERS_ROOT = "/ledgers"


class LedgerFencedError(Exception):
    """An add was rejected: the ledger was fenced by a recovery-opener."""


@dataclass
class LedgerHandle:
    """An open ledger from the writer's (or reader's) point of view."""

    ledger_id: int
    path: str
    ensemble: List[NodeAddress]
    write_quorum: int
    state: str = "open"  # open | closed
    last_entry: int = -1
    next_entry: int = 0


def _encode_metadata(handle: LedgerHandle) -> bytes:
    return repr(
        {
            "ensemble": [(addr.site, addr.name) for addr in handle.ensemble],
            "write_quorum": handle.write_quorum,
            "state": handle.state,
            "last_entry": handle.last_entry,
        }
    ).encode()


def _decode_metadata(ledger_id: int, path: str, data: bytes) -> LedgerHandle:
    raw = ast.literal_eval(data.decode())
    return LedgerHandle(
        ledger_id=ledger_id,
        path=path,
        ensemble=[NodeAddress(site, name) for site, name in raw["ensemble"]],
        write_quorum=raw["write_quorum"],
        state=raw["state"],
        last_entry=raw["last_entry"],
        next_entry=raw["last_entry"] + 1,
    )


class BookKeeperClient:
    """A BookKeeper writer/reader bound to a coordination client."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        zk: ZkClient,
        bookies: List[NodeAddress],
        ensemble_size: int = 3,
        write_quorum: int = 2,
        add_timeout_ms: float = 10000.0,
    ):
        if ensemble_size > len(bookies):
            raise ValueError("not enough bookies for the ensemble size")
        if write_quorum > ensemble_size:
            raise ValueError("write quorum larger than ensemble")
        self.env = env
        self.net = net
        self.addr = addr
        self.zk = zk
        self.bookies = list(bookies)
        self.ensemble_size = ensemble_size
        self.write_quorum = write_quorum
        self.add_timeout_ms = add_timeout_ms

        self.inbox = net.register(addr)
        self._pending_adds: Dict[Tuple[int, int], Tuple[Set[NodeAddress], Event]] = {}
        self._pending_reads: Dict[Tuple[int, int], Event] = {}
        # ledger -> (acks: {bookie: last_entry}, event, quorum needed)
        self._pending_fences: Dict[int, Tuple[Dict[NodeAddress, int], Event, int]] = {}
        self.entries_written = 0

        self._alive = True
        self._proc = env.process(self._pump(), name=f"bk.{addr}")

    # -------------------------------------------------------------- ledgers

    def create_ledger(self):
        """Generator: create a new ledger; returns a LedgerHandle."""
        try:
            yield self.zk.create(LEDGERS_ROOT, b"")
        except NodeExistsError:
            pass
        path = yield self.zk.create(
            f"{LEDGERS_ROOT}/ledger-", b"", sequential=True
        )
        ledger_id = int(path.rsplit("-", 1)[1])
        handle = LedgerHandle(
            ledger_id=ledger_id,
            path=path,
            ensemble=self.bookies[: self.ensemble_size],
            write_quorum=self.write_quorum,
        )
        yield self.zk.set_data(path, _encode_metadata(handle))
        return handle

    def close_ledger(self, handle: LedgerHandle):
        """Generator: seal the ledger and record the last entry."""
        handle.state = "closed"
        handle.last_entry = handle.next_entry - 1
        yield self.zk.set_data(handle.path, _encode_metadata(handle))

    def open_ledger(self, ledger_id: int):
        """Generator: read a ledger's metadata; returns a LedgerHandle."""
        path = f"{LEDGERS_ROOT}/ledger-{ledger_id:010d}"
        data, _stat = yield self.zk.get_data(path)
        return _decode_metadata(ledger_id, path, data)

    def recover_ledger(self, ledger_id: int):
        """Generator: recovery-open — fence the ensemble, decide the last
        entry, seal the metadata (BookKeeper's fencing protocol).

        After this completes, the previous writer's adds fail with
        :class:`LedgerFencedError` and readers agree on the ledger's end.
        """
        handle = yield from self.open_ledger(ledger_id)
        event = Event(self.env)
        quorum = len(handle.ensemble) - handle.write_quorum + 1
        self._pending_fences[ledger_id] = ({}, event, quorum)
        for bookie in handle.ensemble:
            self.net.send(
                self.addr, bookie, FenceLedger(self.addr, ledger_id)
            )
        self._guard(event, ledger_id, self._pending_fences)
        last_entry = yield event
        handle.state = "closed"
        handle.last_entry = last_entry
        handle.next_entry = last_entry + 1
        yield self.zk.set_data(handle.path, _encode_metadata(handle))
        return handle

    # -------------------------------------------------------------- entries

    def add_entry(self, handle: LedgerHandle, payload: bytes):
        """Generator: append an entry; completes at write-quorum acks."""
        if handle.state != "open":
            raise RuntimeError(f"ledger {handle.ledger_id} is closed")
        entry_id = handle.next_entry
        handle.next_entry += 1
        event = Event(self.env)
        self._pending_adds[(handle.ledger_id, entry_id)] = (set(), event)
        for bookie in handle.ensemble:
            self.net.send(
                self.addr,
                bookie,
                AddEntry(self.addr, handle.ledger_id, entry_id, payload),
            )
        self._guard(event, (handle.ledger_id, entry_id), self._pending_adds)
        yield event
        self.entries_written += 1
        return entry_id

    def read_entry(self, handle: LedgerHandle, entry_id: int):
        """Generator: read one entry from the ensemble."""
        event = Event(self.env)
        self._pending_reads[(handle.ledger_id, entry_id)] = event
        for bookie in handle.ensemble:
            self.net.send(
                self.addr, bookie, ReadEntry(self.addr, handle.ledger_id, entry_id)
            )
        self._guard(event, (handle.ledger_id, entry_id), self._pending_reads)
        payload = yield event
        return payload

    # ---------------------------------------------------------------- guts

    def _guard(self, event: Event, key, table) -> None:
        def watchdog():
            yield self.env.timeout(self.add_timeout_ms)
            if not event.triggered:
                table.pop(key, None)
                event.fail(TimeoutError(f"bookkeeper op timed out: {key}"))

        self.env.process(watchdog(), name=f"bk.{self.addr}.guard")

    def _pump(self):
        while self._alive:
            try:
                src, _dst, msg = yield self.inbox.get()
            except (StoreClosed, Interrupt):
                return
            if isinstance(msg, AddAck):
                key = (msg.ledger_id, msg.entry_id)
                pending = self._pending_adds.get(key)
                if pending is None:
                    continue
                acked, event = pending
                if not msg.ok:
                    # Fenced by a recovery-opener: the writer lost the
                    # ledger; no quorum can form any more.
                    del self._pending_adds[key]
                    if not event.triggered:
                        event.fail(
                            LedgerFencedError(
                                f"ledger {msg.ledger_id} fenced during add "
                                f"of entry {msg.entry_id}"
                            )
                        )
                    continue
                acked.add(src)
                if len(acked) >= self.write_quorum and not event.triggered:
                    del self._pending_adds[key]
                    event.succeed(msg.entry_id)
            elif isinstance(msg, FenceAck):
                pending = self._pending_fences.get(msg.ledger_id)
                if pending is None:
                    continue
                acks, event, quorum = pending
                acks[src] = msg.last_entry
                if len(acks) >= quorum and not event.triggered:
                    del self._pending_fences[msg.ledger_id]
                    event.succeed(max(acks.values()))
            elif isinstance(msg, ReadReply):
                key = (msg.ledger_id, msg.entry_id)
                event = self._pending_reads.get(key)
                if event is None or event.triggered:
                    continue
                if msg.payload is not None:
                    del self._pending_reads[key]
                    event.succeed(msg.payload)
            else:
                raise ValueError(f"bk client {self.addr}: unexpected {msg!r}")

    def stop(self) -> None:
        self._alive = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")
