"""Per-server watch bookkeeping.

Watches are one-shot and local to the server the client is connected to,
exactly as in ZooKeeper: a read with ``watch=True`` registers interest; the
first matching mutation the server applies fires (and removes) the watch.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.zk.records import WatchEvent, WatchType

__all__ = ["WatchManager"]

# Which watch tables a given event type consults.
_DATA_EVENTS = {
    WatchType.NODE_CREATED,
    WatchType.NODE_DELETED,
    WatchType.NODE_DATA_CHANGED,
}
_CHILD_EVENTS = {WatchType.NODE_DELETED, WatchType.NODE_CHILDREN_CHANGED}


class WatchManager:
    """Maps paths to watching sessions; pops watchers on trigger."""

    def __init__(self):
        self._data: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}

    @property
    def has_watches(self) -> bool:
        """Is any watch registered? (Else ``trigger`` fires nothing.)"""
        return bool(self._data or self._children)

    def add_data_watch(self, path: str, session_id: str) -> None:
        """Register a data/exists watch for ``session_id`` on ``path``."""
        self._data.setdefault(path, set()).add(session_id)

    def add_child_watch(self, path: str, session_id: str) -> None:
        """Register a children watch for ``session_id`` on ``path``."""
        self._children.setdefault(path, set()).add(session_id)

    @staticmethod
    def _pop_path(
        table: Dict[str, Set[str]],
        event: WatchEvent,
        fired: List[Tuple[str, WatchEvent]],
    ) -> None:
        sessions = table.pop(event.path, None)
        if sessions:
            fired.extend((session_id, event) for session_id in sorted(sessions))

    def trigger(self, event: WatchEvent) -> List[Tuple[str, WatchEvent]]:
        """Fire watches matching ``event``; returns (session, event) pairs."""
        fired: List[Tuple[str, WatchEvent]] = []
        if event.type in _DATA_EVENTS and self._data:
            self._pop_path(self._data, event, fired)
        if event.type in _CHILD_EVENTS and self._children:
            # NODE_DELETED fires child watches as NODE_DELETED on the node
            # itself (ZooKeeper semantics); CHILDREN_CHANGED fires as-is.
            self._pop_path(self._children, event, fired)
        return fired

    def changes(self, old, new) -> List[WatchEvent]:
        """What changed under the watched paths between two trees (a state
        install jumps over the applies that would have fired them)."""
        events: List[WatchEvent] = []
        for path in sorted(self._data):
            before, after = old.node(path), new.node(path)
            if before is None:
                if after is not None:
                    events.append(WatchEvent(WatchType.NODE_CREATED, path))
            elif after is None:
                events.append(WatchEvent(WatchType.NODE_DELETED, path))
            elif (before.czxid, before.mzxid) != (after.czxid, after.mzxid):
                events.append(WatchEvent(WatchType.NODE_DATA_CHANGED, path))
        for path in sorted(self._children):
            before, after = old.node(path), new.node(path)
            if before is None:
                continue
            if after is None:
                events.append(WatchEvent(WatchType.NODE_DELETED, path))
            elif (before.czxid, before.pzxid) != (after.czxid, after.pzxid):
                events.append(WatchEvent(WatchType.NODE_CHILDREN_CHANGED, path))
        return events

    def drop_session(self, session_id: str) -> None:
        """Remove all watches held by a session (client gone)."""
        for table in (self._data, self._children):
            for path in sorted(table):
                sessions = table[path]
                if session_id in sessions:
                    sessions.discard(session_id)
                    if not sessions:
                        del table[path]

    def watch_count(self) -> int:
        return sum(len(s) for s in self._data.values()) + sum(
            len(s) for s in self._children.values()
        )
