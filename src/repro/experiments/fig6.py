"""Figure 6: two-site throughput on disjoint partitions, 50% writes (§IV-A).

Two clients (California, Frankfurt) access disjoint halves of the record
space. Four setups: plain ZK, ZK with observers, WanKeeper cold (all tokens
start at Virginia) and WanKeeper hot (each site pre-holds its partition's
tokens). Expected shape: ZK+obs ≈ 2× ZK; WK-hot > WK-cold > ZK+obs.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.workloads import LatencyRecorder, OverlapChooser, YcsbSpec
from repro.workloads.driver import ClientPlan, run_ycsb

__all__ = ["run_fig6_cell"]


def run_fig6_cell(
    setup: str,
    seed: int = 42,
    record_count: int = 1000,
    operations_per_client: int = 5000,
    write_fraction: float = 0.5,
) -> Dict[str, Any]:
    """Run one Fig. 6 setup as an independent cell."""
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operations_per_client,
        write_fraction=write_fraction,
    )
    choosers = {
        CALIFORNIA: OverlapChooser(record_count, 0.0, client_index=0),
        FRANKFURT: OverlapChooser(record_count, 0.0, client_index=1),
    }
    # WK-hot: "each site holds half of the tokens at the beginning".
    initial_tokens = {}
    for site, chooser in choosers.items():
        for index in chooser.private_indices:
            initial_tokens[spec.key(index)] = site

    world = build_world(setup, seed=seed, initial_tokens=initial_tokens)
    recorders = {
        site: LatencyRecorder(f"{setup}@{site}") for site in choosers
    }
    plans = [
        ClientPlan(
            world.client(site),
            world.rngs.stream(f"ycsb-{site}"),
            recorders[site],
            chooser=choosers[site],
        )
        for site in (CALIFORNIA, FRANKFURT)
    ]
    if setup == "wk_hot":
        # Create each partition from the site that pre-holds its
        # tokens, so the hot placement survives the load phase.
        load_plan = [
            (plans[index].client, list(choosers[site].private_indices))
            for index, site in enumerate((CALIFORNIA, FRANKFURT))
        ]
        run_ycsb(world.env, plans, spec, load_plan=load_plan)
    else:
        run_ycsb(world.env, plans, spec, load_client=world.client(VIRGINIA))
    merged = recorders[CALIFORNIA].merged(recorders[FRANKFURT])
    return {
        "setup": setup,
        "total_throughput": sum(
            recorder.throughput_ops_per_sec()
            for recorder in recorders.values()
        ),
        "per_site_throughput": {
            site: recorder.throughput_ops_per_sec()
            for site, recorder in recorders.items()
        },
        "write_mean_ms": merged.mean_latency("write"),
    }
