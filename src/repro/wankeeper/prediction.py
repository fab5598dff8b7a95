"""Markov-model token prediction (§II-B "Token Prediction").

The broker models accesses as transitions over (object, cluster) states: a
state exists for every object × cluster pair, and a transition is recorded
whenever an object is accessed by some cluster. Per the paper, edges are
only added between states that share the object or the cluster, and only
the most recent ``window`` accesses count — a FIFO window slides old
observations out so the model tracks shifting access patterns.

The prediction the broker needs is *who next*: given that object ``d`` was
just accessed by cluster ``c``, which cluster most probably accesses ``d``
next? If that cluster is ``c`` itself with high enough probability, the
token can be migrated proactively (before ``r`` consecutive accesses have
accumulated).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

__all__ = ["MarkovPredictor"]

State = Tuple[str, str]  # (object key, cluster/site)


class MarkovPredictor:
    """Sliding-window Markov model over (object, cluster) access states."""

    def __init__(self, window: int = 256):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.window = window
        # Recent accesses, oldest first: (key, site).
        self._recent: Deque[State] = deque()
        # Transition counts, restricted to pairs sharing key or site.
        self._transitions: Dict[State, Dict[State, int]] = {}
        # Last state per object — the "previous access" for same-object
        # transitions (the paper's "problem of who").
        self._last_by_key: Dict[str, State] = {}

    def observe(self, key: str, site: str) -> None:
        """Record that ``site`` accessed ``key``."""
        state = (key, site)
        previous = self._last_by_key.get(key)
        if previous is not None:
            self._bump(previous, state, +1)
        self._last_by_key[key] = state
        self._recent.append(state)
        if len(self._recent) > self.window:
            self._expire(self._recent.popleft())

    def _bump(self, src: State, dst: State, delta: int) -> None:
        row = self._transitions.setdefault(src, {})
        row[dst] = row.get(dst, 0) + delta
        if row[dst] <= 0:
            del row[dst]
            if not row:
                del self._transitions[src]

    def _expire(self, old: State) -> None:
        """Slide the oldest access out of the window.

        The transition *out of* the expired occurrence loses weight; we
        decrement the oldest remaining outgoing edge for that state.
        """
        row = self._transitions.get(old)
        if not row:
            return
        # Deterministic choice: decrement the largest (key-ordered) edge.
        dst = min(row)
        self._bump(old, dst, -1)

    def predict_next_site(self, key: str, current_site: str) -> Optional[Tuple[str, float]]:
        """Most probable next accessor of ``key`` after ``current_site``.

        Returns ``(site, probability)`` or None when the model has no
        evidence for this state.
        """
        row = self._transitions.get((key, current_site))
        if not row:
            return None
        total = sum(row.values())
        best_dst, best_count = max(row.items(), key=lambda kv: (kv[1], kv[0]))
        return best_dst[1], best_count / total

    def transition_probability(self, src: State, dst: State) -> float:
        row = self._transitions.get(src)
        if not row:
            return 0.0
        total = sum(row.values())
        return row.get(dst, 0) / total if total else 0.0
