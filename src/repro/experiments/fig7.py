"""Figure 7: contention sweep — overlapping access, 100% writes (§IV-A).

Two clients (California, Frankfurt) write with a varying fraction of
overlapping records. Expected shape: ZooKeeper flat in overlap (no local
commits to lose); WanKeeper declines smoothly as contention rises, and even
at 100% overlap stays ~20% above ZooKeeper-with-observers by exploiting
random locality in the access sequence.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.workloads import LatencyRecorder, OverlapChooser, YcsbSpec
from repro.workloads.driver import ClientPlan, run_ycsb

__all__ = ["run_fig7_cell"]


def run_fig7_cell(
    system: str,
    overlap: float,
    seed: int = 42,
    record_count: int = 500,
    operations_per_client: int = 3000,
) -> Dict[str, Any]:
    """One (system, overlap) cell of the contention sweep."""
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operations_per_client,
        write_fraction=1.0,
    )
    world = build_world(system, seed=seed)
    recorders = {}
    plans = []
    for index, site in enumerate((CALIFORNIA, FRANKFURT)):
        chooser = OverlapChooser(
            record_count, overlap, client_index=index
        )
        recorder = LatencyRecorder(f"{system}@{site}@{overlap}")
        recorders[site] = recorder
        plans.append(
            ClientPlan(
                world.client(site),
                world.rngs.stream(f"ycsb-{site}"),
                recorder,
                chooser=chooser,
            )
        )
    run_ycsb(world.env, plans, spec, load_client=world.client(VIRGINIA))
    merged = recorders[CALIFORNIA].merged(recorders[FRANKFURT])
    return {
        "system": system,
        "overlap": overlap,
        "total_throughput": sum(
            recorder.throughput_ops_per_sec()
            for recorder in recorders.values()
        ),
        "write_mean_ms": merged.mean_latency("write"),
    }
