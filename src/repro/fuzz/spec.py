"""The declarative fuzz-case spec.

A case is one JSON-plain dict that fully determines one simulation run:
topology (site count and per-pair one-way delays), deployment shape
(voters per site, hub placement, read mode, token pre-placement),
workload mix, ambient link degradation, the fault schedule (played by
:class:`repro.nemesis.ScheduleNemesis`), and an optional re-introduced
bug knob. Because the spec is plain JSON it travels through the
:mod:`repro.runner` executor as a single scenario parameter, shrinks by
structural editing, and checks into the repo as a regression artifact.

``canonical_spec`` is the normal form every consumer uses: JSON round-trip
with sorted keys, so digests and payload comparisons are stable no matter
who built the dict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.nemesis import Nemesis
from repro.sim.rng import sha256

__all__ = [
    "SPEC_VERSION",
    "canonical_spec",
    "site_names",
    "spec_digest",
    "spec_keys",
    "validate_spec",
]

SPEC_VERSION = 1

#: Fault kinds a schedule entry may use: the ones the nemesis executes.
SCHEDULE_KINDS = Nemesis.KINDS

#: Known re-introducible bug knobs (see docs/FUZZING.md).
BUG_KNOBS = ("recall-race",)

READ_MODES = ("local", "forward", "fractional")


def canonical_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical (JSON round-tripped, key-sorted) form of a spec."""
    return json.loads(json.dumps(spec, sort_keys=True))


def spec_json(spec: Dict[str, Any]) -> str:
    """Canonical compact JSON text of a spec (the scenario parameter)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: Dict[str, Any]) -> str:
    """Content digest of the canonical spec."""
    return sha256(spec_json(spec).encode("utf-8")).hexdigest()


def site_names(spec: Dict[str, Any]) -> List[str]:
    """Site names ``s0..s{n-1}`` for the spec's topology."""
    return [f"s{i}" for i in range(int(spec["topology"]["sites"]))]


def spec_keys(spec: Dict[str, Any]) -> List[str]:
    """The workload's znode paths."""
    return [f"/fuzz/k{i}" for i in range(int(spec["workload"]["keys"]))]


def validate_spec(spec: Dict[str, Any]) -> None:
    """Reject structurally broken specs with a clear error.

    Validation is deliberately shallow — the harness tolerates weird but
    well-formed values (that is the point of fuzzing) — it only refuses
    specs that could not build a deployment at all.
    """
    if spec.get("v") != SPEC_VERSION:
        raise ValueError(f"unsupported spec version {spec.get('v')!r}")
    topo = spec["topology"]
    sites = int(topo["sites"])
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    names = site_names(spec)
    delays = topo["delays"]
    for i in range(sites):
        for j in range(i + 1, sites):
            pair = f"{names[i]}|{names[j]}"
            delay = delays.get(pair)
            if delay is None or float(delay) <= 0:
                raise ValueError(f"missing/non-positive delay for {pair}")
    dep = spec["deployment"]
    if int(dep["voters"]) < 1:
        raise ValueError("voters must be >= 1")
    if not 0 <= int(dep["l2"]) < sites:
        raise ValueError(f"l2 index {dep['l2']} out of range")
    if dep["read_mode"] not in READ_MODES:
        raise ValueError(f"unknown read_mode {dep['read_mode']!r}")
    for pin in dep.get("pin", []):
        key_index, site_index = pin
        if not 0 <= int(site_index) < sites:
            raise ValueError(f"pin {pin} names an unknown site")
        if not 0 <= int(key_index) < int(spec["workload"]["keys"]):
            raise ValueError(f"pin {pin} names an unknown key")
    wl = spec["workload"]
    if int(wl["keys"]) < 1 or int(wl["actors"]) < 1:
        raise ValueError("workload needs >= 1 key and actor")
    if float(wl["duration_ms"]) <= 0:
        raise ValueError("workload duration_ms must be positive")
    for entry in spec["schedule"]:
        kind = entry.get("kind")
        if kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        if float(entry.get("at", 0.0)) < 0:
            raise ValueError(f"negative schedule time in {entry}")
    bug = spec.get("bug")
    if bug is not None and bug not in BUG_KNOBS:
        raise ValueError(f"unknown bug knob {bug!r}")
    if float(spec["horizon_ms"]) <= 0 or float(spec["quiesce_ms"]) < 0:
        raise ValueError("horizon_ms must be positive, quiesce_ms >= 0")
