"""Figure 4: single-client YCSB over varying read/write ratios (§IV-A).

A single client in California runs YCSB (1000 records, 10K ops, Zipfian)
against each system; Virginia hosts the ZooKeeper leader / WanKeeper
level-2 broker. Fig. 4a reports overall throughput per write ratio;
Fig. 4b the average per-operation read and write latencies.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, VIRGINIA
from repro.workloads import LatencyRecorder, YcsbSpec
from repro.workloads.driver import ClientPlan, run_ycsb

__all__ = ["run_write_ratio_cell"]


def run_write_ratio_cell(
    system: str,
    write_fraction: float,
    seed: int = 42,
    record_count: int = 1000,
    operation_count: int = 10000,
) -> Dict[str, Any]:
    """One (system, write ratio) YCSB cell — feeds Fig. 4 and Fig. 5."""
    world = build_world(system, seed=seed)
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operation_count,
        write_fraction=write_fraction,
    )
    recorder = LatencyRecorder(f"{system}@{write_fraction}")
    client = world.client(CALIFORNIA)
    loader = world.client(VIRGINIA)
    plan = ClientPlan(client, world.rngs.stream("ycsb"), recorder)
    run_ycsb(world.env, [plan], spec, load_client=loader)

    stats = recorder.summary()
    try:
        # Fig. 5's "local commit" fraction: writes under 10 ms.
        local_write_fraction = recorder.fraction_below(10.0, "write")
    except ValueError:
        local_write_fraction = None
    return {
        "system": system,
        "write_fraction": write_fraction,
        "throughput": stats["throughput_ops_per_sec"],
        "read_mean_ms": stats["read_mean_ms"],
        "write_mean_ms": stats["write_mean_ms"],
        "read_p99_ms": stats["read_p99_ms"],
        "write_p99_ms": stats["write_p99_ms"],
        "write_p50_ms": stats["write_p50_ms"],
        "write_p90_ms": stats["write_p90_ms"],
        "local_write_fraction": local_write_fraction,
        "ops": stats["count"],
    }
