"""Seeded generation of fuzz-case specs.

Every random dimension draws from its own named substream of the
campaign seed (:func:`repro.sim.rng.seeded_rng`), keyed as
``case{i}:<dimension>`` — and, inside the schedule, per fault kind as
``case{i}:schedule:<kind>``. Two campaign properties fall out:

* **Stability** — adding a new fault kind (or making one kind draw more
  numbers) changes only that kind's entries; every other kind's entries,
  the topology, and the workload of every previously generated case stay
  bit-identical. Regression seeds keep meaning the same case forever.
* **Determinism** — the same ``(campaign_seed, index)`` always produces
  the same spec, with no dependence on generation order or process count.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.fuzz.spec import SPEC_VERSION, canonical_spec
from repro.sim.rng import seeded_rng

__all__ = ["generate_case"]

#: (kind, max entries per case). Order is documentation only — each kind
#: draws from its own substream, so reordering this table is a no-op.
FAULT_KIND_BUDGET = (
    ("crash", 3),
    ("partition", 2),
    ("oneway-partition", 2),
    ("flaky-link", 2),
    ("gray-degrade", 2),
)

#: One-way delay classes (ms): regional, continental, intercontinental.
RTT_CLASSES = ((5.0, 15.0), (25.0, 45.0), (60.0, 90.0))

#: Faults land inside the workload window (duration_ms spans this).
SCHEDULE_WINDOW_MS = (500.0, 12000.0)
DWELL_RANGE_MS = (800.0, 6000.0)


def _gen_entry(kind: str, rng: random.Random) -> Dict[str, Any]:
    """One schedule entry of ``kind``; index fields are resolved modulo
    the live candidate lists at apply time (see ScheduleNemesis)."""
    entry: Dict[str, Any] = {
        "at": round(rng.uniform(*SCHEDULE_WINDOW_MS), 1),
        "kind": kind,
        "dwell": round(rng.uniform(*DWELL_RANGE_MS), 1),
    }
    if kind == "crash":
        entry["site"] = rng.randrange(8)
        entry["victim"] = rng.randrange(4)
    elif kind in ("partition", "oneway-partition"):
        entry["a"] = rng.randrange(8)
        entry["b"] = rng.randrange(8)
    elif kind == "flaky-link":
        entry["a"] = rng.randrange(8)
        entry["b"] = rng.randrange(8)
        entry["loss"] = round(rng.uniform(0.05, 0.4), 2)
        entry["duplicate"] = round(rng.uniform(0.0, 0.2), 2)
    elif kind == "gray-degrade":
        entry["a"] = rng.randrange(8)
        entry["b"] = rng.randrange(8)
        entry["factor"] = round(rng.uniform(3.0, 12.0), 1)
    return entry


def _sort_schedule(schedule: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return sorted(
        schedule,
        key=lambda e: (float(e.get("at", 0.0)), str(e.get("kind", ""))),
    )


def generate_case(
    campaign_seed: int,
    index: int,
    bug: Optional[str] = None,
) -> Dict[str, Any]:
    """Generate case ``index`` of the campaign under ``campaign_seed``."""
    tag = f"case{index}"

    rng_topo = seeded_rng(campaign_seed, f"{tag}:topology")
    sites = rng_topo.randint(2, 4)
    names = [f"s{i}" for i in range(sites)]
    delays: Dict[str, float] = {}
    for i in range(sites):
        for j in range(i + 1, sites):
            low, high = RTT_CLASSES[rng_topo.randrange(len(RTT_CLASSES))]
            delays[f"{names[i]}|{names[j]}"] = round(
                rng_topo.uniform(low, high), 1
            )
    jitter = rng_topo.choice([0.0, 0.05, 0.1])
    voters = rng_topo.choice([1, 3, 3])  # mostly fault-tolerant ensembles
    l2 = rng_topo.randrange(sites)

    rng_wl = seeded_rng(campaign_seed, f"{tag}:workload")
    keys = rng_wl.randint(2, 6)
    read_mode = rng_wl.choice(["local", "local", "fractional"])
    write_fraction = round(rng_wl.uniform(0.3, 0.9), 2)
    # The workload must outlive the schedule window, else late faults hit
    # an idle system and teach the fuzzer nothing.
    duration = round(rng_wl.uniform(9000.0, 16000.0), 0)
    pace = sorted(
        (
            round(rng_wl.uniform(20.0, 120.0), 1),
            round(rng_wl.uniform(150.0, 400.0), 1),
        )
    )
    # Pre-place some tokens (WK-Hot style), so the first remote write to a
    # pinned key already needs a recall.
    pin = []
    for key_index in range(keys):
        if rng_wl.random() < 0.6:
            pin.append([key_index, rng_wl.randrange(sites)])
    ambient_on = rng_wl.random() < 0.3
    ambient = {
        "loss": 0.02 if ambient_on else 0.0,
        "duplicate": 0.02 if ambient_on else 0.0,
    }

    schedule: List[Dict[str, Any]] = []
    for kind, budget in FAULT_KIND_BUDGET:
        rng_kind = seeded_rng(campaign_seed, f"{tag}:schedule:{kind}")
        for _ in range(rng_kind.randint(0, budget)):
            schedule.append(_gen_entry(kind, rng_kind))

    spec = {
        "v": SPEC_VERSION,
        "seed": seeded_rng(campaign_seed, f"{tag}:seed").getrandbits(32),
        "topology": {
            "sites": sites,
            "delays": delays,
            "local_ms": 0.25,
            "jitter": jitter,
        },
        "deployment": {
            "voters": voters,
            "l2": l2,
            "read_mode": read_mode,
            "lease_ms": 2000.0,
            "pin": pin,
        },
        "workload": {
            "keys": keys,
            "actors": 1,
            "duration_ms": duration,
            "write_fraction": write_fraction,
            "pace_ms": pace,
            "request_timeout_ms": 4000.0,
        },
        "ambient": ambient,
        "schedule": _sort_schedule(schedule),
        "horizon_ms": 120000.0,
        "quiesce_ms": 12000.0,
        "bug": bug,
    }
    return canonical_spec(spec)
