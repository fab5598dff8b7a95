"""Seeded random-number streams for deterministic simulations.

Every stochastic component (network jitter, workload key choice, failure
injection) draws from its own named stream so that adding randomness to one
component never perturbs the draws seen by another. Streams are derived from
a single experiment seed, which every benchmark records.
"""

from __future__ import annotations

import random
from typing import Dict

try:
    # CPython's built-in SHA-256: the same bytes as hashlib's, without
    # mapping OpenSSL's libcrypto into every simulation process.
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["RngRegistry", "seeded_rng", "sha256"]


def seeded_rng(seed: int, name: str) -> random.Random:
    """Return a :class:`random.Random` for stream ``name`` under ``seed``.

    The stream seed is derived by hashing ``(seed, name)`` so that streams
    are independent and stable across runs and Python versions.
    """
    digest = sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class RngRegistry:
    """A per-experiment registry of named random streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = seeded_rng(self.seed, name)
        return self._streams[name]

    def fork(self, salt: str) -> "RngRegistry":
        """Derive an independent registry (for sub-experiments)."""
        digest = sha256(f"{self.seed}:{salt}".encode("utf-8")).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
