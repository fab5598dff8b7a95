"""Figure 4: single-client YCSB over varying read/write ratios (§IV-A).

A single client in California runs YCSB (1000 records, 10K ops, Zipfian)
against each system; Virginia hosts the ZooKeeper leader / WanKeeper
level-2 broker. Fig. 4a reports overall throughput per write ratio;
Fig. 4b the average per-operation read and write latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, VIRGINIA
from repro.workloads import LatencyRecorder, YcsbSpec
from repro.workloads.driver import ClientPlan, run_ycsb

__all__ = ["Fig4Cell", "run_write_ratio_cell"]


@dataclass
class Fig4Cell:
    """One (system, write ratio) measurement."""

    system: str
    write_fraction: float
    throughput: float
    read_mean_ms: Optional[float]
    write_mean_ms: Optional[float]
    read_p99_ms: Optional[float]
    write_p99_ms: Optional[float]
    recorder: LatencyRecorder


def run_write_ratio_cell(
    system: str,
    write_fraction: float,
    seed: int = 42,
    record_count: int = 1000,
    operation_count: int = 10000,
    client_site: str = CALIFORNIA,
) -> Fig4Cell:
    """Run one cell of the Fig. 4 sweep and return its measurements."""
    world = build_world(system, seed=seed)
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operation_count,
        write_fraction=write_fraction,
    )
    recorder = LatencyRecorder(f"{system}@{write_fraction}")
    client = world.client(client_site)
    loader = world.client(VIRGINIA)
    plan = ClientPlan(client, world.rngs.stream("ycsb"), recorder)
    run_ycsb(world.env, [plan], spec, load_client=loader)

    def maybe(fn, *args):
        try:
            return fn(*args)
        except ValueError:
            return None

    return Fig4Cell(
        system=system,
        write_fraction=write_fraction,
        throughput=recorder.throughput_ops_per_sec(),
        read_mean_ms=maybe(recorder.mean_latency, "read"),
        write_mean_ms=maybe(recorder.mean_latency, "write"),
        read_p99_ms=maybe(recorder.percentile_latency, 99, "read"),
        write_p99_ms=maybe(recorder.percentile_latency, 99, "write"),
        recorder=recorder,
    )
