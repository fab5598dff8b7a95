"""Per-server session tracking.

Sessions live at the server the client connected to (as in ZooKeeper, where
the session moves with the client connection). The server heartbeats each
session and, on expiry, submits a replicated ``CloseSessionOp`` that deletes
the session's ephemeral nodes everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Session", "SessionTracker"]


@dataclass(slots=True)
class Session:
    """One client session.

    ``timeout_ms`` is an *inclusive* bound: the session stays alive while
    ``now - last_heard <= timeout_ms``, so a heartbeat landing exactly at
    the timeout keeps it alive. Expiry requires strictly more than
    ``timeout_ms`` of silence.
    """

    session_id: str
    client: Any  # NodeAddress
    timeout_ms: float
    last_heard: float
    expired: bool = False


class SessionTracker:
    """Tracks live sessions at one server."""

    def __init__(self, owner_name: str):
        self.owner_name = owner_name
        self._sessions: Dict[str, Session] = {}
        self._counter = 0
        # Lower bound on the earliest instant any tracked session can
        # expire. ``expired_sessions`` returns [] without scanning while
        # ``now`` hasn't reached it: ``touch`` only moves deadlines later,
        # so the bound stays valid between full scans. ``create`` lowers
        # it; each full scan re-tightens it. Makes the per-tick expiry
        # sweep O(1) with 10^4+ idle fleet sessions per server.
        self._next_deadline = float("inf")
        # client -> session_id of the *newest* session ever created for
        # that client. Entries are never deleted (one per unique client,
        # the same growth class as the session table), so a missing key
        # proves no session was ever created for that client and the
        # connect-dedup lookup stays O(1). Never iterated — lookups only —
        # so NodeAddress keys are hash-seed safe.
        self._by_client: Dict[Any, str] = {}

    def create(self, client: Any, timeout_ms: float, now: float) -> Session:
        self._counter += 1
        session = Session(
            session_id=f"{self.owner_name}#{self._counter}",
            client=client,
            timeout_ms=timeout_ms,
            last_heard=now,
        )
        self._sessions[session.session_id] = session
        self._by_client[client] = session.session_id
        deadline = now + timeout_ms
        if deadline < self._next_deadline:
            self._next_deadline = deadline
        return session

    def get(self, session_id: str) -> Optional[Session]:
        return self._sessions.get(session_id)

    def find_by_client(self, client: Any) -> Optional[Session]:
        """The *newest* live session of ``client``, if one exists.

        Lets a retried ConnectRequest (reply lost on the wire) be answered
        idempotently instead of minting a second session. The common case
        is one index lookup: ``_by_client`` points at the newest session
        created for the client, and a later ``create`` for the same client
        always overwrites the entry, so a live hit *is* the newest live
        session. Only when the indexed session has expired or been removed
        does the pinned creation-order scan (last live match wins) run —
        it can still surface an older live session the index skipped.
        """
        session_id = self._by_client.get(client)
        if session_id is None:
            return None
        session = self._sessions.get(session_id)
        if session is not None and not session.expired:
            return session
        found = None
        for candidate in self._sessions.values():
            if candidate.client == client and not candidate.expired:
                found = candidate
        return found

    def touch(self, session_id: str, now: float) -> bool:
        """Record liveness; False if the session is unknown/expired."""
        session = self._sessions.get(session_id)
        if session is None or session.expired:
            return False
        session.last_heard = now
        return True

    def expired_sessions(self, now: float) -> List[Session]:
        """Sessions past their timeout (not yet marked expired).

        The bound is strict (``>``, matching :class:`Session`'s documented
        inclusive timeout): a session whose last heartbeat landed exactly
        ``timeout_ms`` ago is still alive.

        Fast path: while ``now`` is at or before the cached
        ``_next_deadline`` lower bound, no session can have passed its
        (strict) timeout, so the scan is skipped entirely. A scan that does
        run re-tightens the bound from the sessions that stay live.
        """
        if not self._sessions or now <= self._next_deadline:
            return []
        due = []
        next_deadline = float("inf")
        for session in self._sessions.values():
            if session.expired:
                continue
            if now - session.last_heard > session.timeout_ms:
                due.append(session)
            # Overdue sessions keep contributing their (past) deadline to
            # the bound until the caller marks them expired, so a caller
            # that doesn't is re-told about them on every call, exactly as
            # the unconditional scan did.
            deadline = session.last_heard + session.timeout_ms
            if deadline < next_deadline:
                next_deadline = deadline
        self._next_deadline = next_deadline
        return due

    def mark_expired(self, session_id: str) -> None:
        session = self._sessions.get(session_id)
        if session is not None:
            session.expired = True

    def remove(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._sessions)
