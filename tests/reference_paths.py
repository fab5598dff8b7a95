"""``repro.zk.paths.validate_path`` as it was before its fast accept:
the rule loop alone, verbatim, kept as a differential oracle.

The product accepts a plain ``str`` that starts with ``/``, does not end
with ``/`` and contains neither ``//`` nor ``/.`` without walking its
components; every other input still runs these rules, in this order.
``tests/test_property_based.py`` holds the two to the same return value
or the same ``ValueError`` message.
"""

from __future__ import annotations

__all__ = ["validate_path"]


def validate_path(path: str) -> str:
    """Validate a znode path; returns it unchanged.

    Rules follow ZooKeeper: absolute, no trailing slash (except root), no
    empty or relative components.
    """
    if not isinstance(path, str) or not path:
        raise ValueError("path must be a non-empty string")
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    if path == "/":
        return path
    if path.endswith("/"):
        raise ValueError(f"path must not end with '/': {path!r}")
    for component in path[1:].split("/"):
        if not component:
            raise ValueError(f"empty path component in {path!r}")
        if component in (".", ".."):
            raise ValueError(f"relative path component in {path!r}")
    return path
