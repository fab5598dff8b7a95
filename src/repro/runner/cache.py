"""On-disk content-addressed result cache for scenario payloads.

Entries are keyed by ``sha256(code_digest || scenario_digest)``: the
scenario digest covers the cell function name and every parameter, and
the code digest covers the content of every ``.py`` file in the
installed ``repro`` package — edit any source file and every cached cell
misses; untouched source keeps every hit. Payloads must be JSON-plain
(the scenario contract), so entries round-trip exactly: Python floats
survive ``json.dumps``/``loads`` bit-for-bit.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.sim.rng import sha256

__all__ = [
    "CACHE_DIR_ENV",
    "ResultCache",
    "code_digest",
    "default_cache_dir",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_SCHEMA = "repro-cache/v1"

# Computed once per process; the package source does not change mid-run.
_code_digest_memo: Dict[str, str] = {}


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.getcwd(), ".repro-cache"
    )


def code_digest() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package.

    Files are hashed in sorted relative-path order (path and content
    both feed the digest), so renames, edits, additions, and deletions
    all change it, independent of filesystem iteration order.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    memo = _code_digest_memo.get(root)
    if memo is not None:
        return memo
    hasher = sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                full = os.path.join(dirpath, filename)
                sources.append((os.path.relpath(full, root), full))
    for relative, full in sorted(sources):
        hasher.update(relative.replace(os.sep, "/").encode("utf-8"))
        hasher.update(b"\0")
        with open(full, "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\0")
    digest = hasher.hexdigest()
    _code_digest_memo[root] = digest
    return digest


class ResultCache:
    """Content-addressed scenario-result store with hit/miss accounting."""

    def __init__(self, root: Optional[str] = None, code: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.code = code if code is not None else code_digest()
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------------

    def key(self, scenario) -> str:
        combined = f"{self.code}:{scenario.digest()}"
        return sha256(combined.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- get/put --------------------------------------------------------------

    def get(self, scenario) -> Optional[Dict[str, Any]]:
        """The cached entry for ``scenario`` or None (counts hit/miss).

        Returns the full entry dict (``payload``, ``elapsed_s``, ...).
        Cache files are outside input: one that is corrupt, is not an
        entry of this schema or carries no payload is treated as a miss
        and removed.
        """
        path = self._path(self.key(scenario))
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != _SCHEMA
                or "payload" not in entry
            ):
                raise ValueError("not a cache entry of this schema")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, scenario, payload: Any, elapsed_s: float) -> str:
        """Store ``payload`` for ``scenario``; returns the entry path."""
        key = self.key(scenario)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": _SCHEMA,
            "scenario": scenario.spec(),
            "code": self.code,
            "elapsed_s": elapsed_s,
            "payload": payload,
        }
        # Each writer dumps to a temp file of its own and publishes it
        # atomically, so concurrent writers of one key race benignly: the
        # entry is always one writer's complete dump.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        finally:
            # Still there only if the dump or the publish raised.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        return path

    # -- maintenance ----------------------------------------------------------

    def _entries(self, suffix: str = ".json"):
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(suffix):
                    yield os.path.join(dirpath, filename)

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, and how many match the live code."""
        entries = 0
        total_bytes = 0
        current = 0
        for path in self._entries():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
                if isinstance(entry, dict) and entry.get("code") == self.code:
                    current += 1
            except (ValueError, OSError):
                continue
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "current_code_entries": current,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Also sweeps the temp files of writers that died mid-``put``
        (not counted).
        """
        removed = 0
        for path in list(self._entries()):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        for path in list(self._entries(".tmp")):
            with contextlib.suppress(OSError):
                os.remove(path)
        # Prune now-empty shard directories (best effort).
        if os.path.isdir(self.root):
            for name in os.listdir(self.root):
                shard = os.path.join(self.root, name)
                if os.path.isdir(shard) and not os.listdir(shard):
                    try:
                        os.rmdir(shard)
                    except OSError:
                        pass
        return removed
