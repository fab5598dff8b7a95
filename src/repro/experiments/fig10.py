"""Figure 10: SCFS metadata updates from two sites (§IV-C).

Clients in California and Frankfurt share every file and drive metadata
updates (the paper's YCSB microbenchmark over the SCFS metadata service):

* Fig. 10a — no hotspot: throughput/latency vs access overlap, ZooKeeper
  with observers (ZKO) vs WanKeeper cold (WK);
* Fig. 10b — 20% hotspot ("80% of operations updating 20% of data");
* Fig. 10c — per-10-second throughput timeline at 10% and 50% overlap,
  showing faster token migration (and a Frankfurt speed-up once
  California finishes) under low contention.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.workloads import (
    HotspotChooser,
    LatencyRecorder,
    OverlapChooser,
    UniformChooser,
    YcsbSpec,
)
from repro.workloads.driver import ClientPlan, run_ycsb

__all__ = ["run_fig10_cell"]

SITES = (CALIFORNIA, FRANKFURT)


def _scfs_spec(record_count: int, operations: int) -> YcsbSpec:
    return YcsbSpec(
        record_count=record_count,
        operation_count=operations,
        write_fraction=1.0,  # metadata *updates*
        table="/scfs/files",
        key_prefix="file",
    )


def run_fig10_cell(
    system: str,
    overlap: float,
    hotspot: bool,
    seed: int = 42,
    record_count: int = 500,
    operations_per_client: int = 3000,
) -> Dict[str, Any]:
    """One (system, overlap, hotspot) cell of Fig. 10a/b, with the per-site
    throughput timeline of Fig. 10c."""
    spec = _scfs_spec(record_count, operations_per_client)
    world = build_world(system, seed=seed)
    recorders: Dict[str, LatencyRecorder] = {}
    plans = []
    for index, site in enumerate(SITES):
        if hotspot:
            # Each site has its *own* 20% hotspot (rotated within the
            # region) — "a 20% hotspot at both sites" (Fig. 10b).
            def inner(count, client=index):
                return HotspotChooser(
                    count,
                    hot_data_fraction=0.2,
                    hot_op_fraction=0.8,
                    rotation=(client * count) // 2,
                )
        else:
            inner = UniformChooser
        chooser = OverlapChooser(
            record_count, overlap, client_index=index, inner_factory=inner
        )
        recorder = LatencyRecorder(f"fig10-{system}-{site}")
        recorders[site] = recorder
        plans.append(
            ClientPlan(
                world.client(site),
                world.rngs.stream(f"scfs-{site}"),
                recorder,
                chooser=chooser,
            )
        )
    run_ycsb(world.env, plans, spec, load_client=world.client(VIRGINIA))
    return {
        "system": system,
        "overlap": overlap,
        "hotspot": hotspot,
        "per_site_throughput": {
            site: recorder.throughput_ops_per_sec()
            for site, recorder in recorders.items()
        },
        "per_site_latency_ms": {
            site: recorder.mean_latency("write")
            for site, recorder in recorders.items()
        },
        "total_throughput": sum(
            recorder.throughput_ops_per_sec() for recorder in recorders.values()
        ),
        # Fig. 10c: per-site ops/sec in 10 s buckets of simulated time.
        "timeline": {
            site: recorder.timeseries(10000.0)
            for site, recorder in recorders.items()
        },
    }
