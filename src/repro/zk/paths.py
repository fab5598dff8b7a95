"""Znode path validation and manipulation."""

from __future__ import annotations

from typing import List

__all__ = ["basename", "parent_of", "split", "validate_path"]


def validate_path(path: str) -> str:
    """Validate a znode path; returns it unchanged.

    Rules follow ZooKeeper: absolute, no trailing slash (except root), no
    empty or relative components.
    """
    if (
        path.__class__ is str
        and path.startswith("/")
        and not path.endswith("/")
        and "//" not in path
        and "/." not in path
    ):
        # Every component is non-empty and none starts with a dot: valid.
        # Anything else (the root, dot-files, every error) takes the rules.
        return path
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


def parent_of(path: str) -> str:
    """Parent path of ``path`` ('/' is its own parent)."""
    if path == "/":
        return "/"
    head, _sep, _tail = path.rpartition("/")
    return head or "/"


def basename(path: str) -> str:
    """Final component of ``path``."""
    if path == "/":
        return ""
    return path.rpartition("/")[2]


def split(path: str) -> List[str]:
    """All components of an absolute path."""
    if path == "/":
        return []
    return path[1:].split("/")
