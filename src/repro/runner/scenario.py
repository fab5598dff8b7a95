"""Declarative simulation-cell specs.

A :class:`Scenario` names a registered cell function plus its parameters
— nothing else. Specs are hashable, JSON-round-trippable, and carry a
stable content digest, which makes them usable as cache keys and as
self-describing error reports when a worker dies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.sim.rng import sha256

__all__ = ["Scenario"]

_PLAIN = (str, int, float, bool, type(None))


def _check_plain(value: Any, context: str) -> None:
    if not isinstance(value, _PLAIN):
        raise TypeError(
            f"scenario parameter {context} must be a JSON scalar "
            f"(str/int/float/bool/None), got {type(value).__name__}"
        )


@dataclass(frozen=True)
class Scenario:
    """One independent simulation cell: a cell function + its parameters.

    ``cell`` names a function registered in :mod:`repro.runner.cells`;
    ``params`` are its keyword arguments as a sorted tuple of pairs (flat
    JSON scalars only, so every spec serializes canonically). ``suite``
    and ``label`` are presentation metadata — they identify the cell in
    progress/error output but do **not** participate in the digest, so
    two suites sharing an identical cell share one cache entry.
    """

    cell: str
    params: Tuple[Tuple[str, Any], ...]
    suite: str = ""
    label: str = ""

    @staticmethod
    def make(
        cell: str, params: Mapping[str, Any], suite: str = "", label: str = ""
    ) -> "Scenario":
        for key, value in params.items():
            _check_plain(value, f"{cell}.{key}")
        ordered = tuple(sorted(params.items()))
        return Scenario(cell=cell, params=ordered, suite=suite, label=label)

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def spec(self) -> Dict[str, Any]:
        """The canonical JSON-plain form (identity only, no metadata)."""
        return {"cell": self.cell, "params": self.kwargs}

    def digest(self) -> str:
        payload = json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Human-readable one-liner, used in progress and error output."""
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        prefix = f"{self.suite}:" if self.suite else ""
        return f"{prefix}{self.label or self.cell}({args})"

    @staticmethod
    def from_spec(
        spec: Mapping[str, Any], suite: str = "", label: str = ""
    ) -> "Scenario":
        return Scenario.make(
            spec["cell"], spec["params"], suite=suite, label=label
        )
