"""One round: one pass over one workload, in this fresh interpreter.

``run.py`` starts this file as a subprocess for every (workload, round,
pass) so that set-up cost, peak RSS and garbage-collector state are never
inherited from an earlier round. The last line of stdout is one JSON
object; everything simulated in it is a pure function of the arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--pass", dest="mode", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    if args.workload == "probes":
        from probes import run_probes

        print(json.dumps({"probes": run_probes(args.seed)}))
        return 0

    from instrument import Instrument, reference_rate
    from layers import LayerMap
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    layer_map = LayerMap(os.path.join(SRC, "repro"), workload.substrate)
    inst = Instrument(args.mode, layer_map)
    outcome = workload.run(args.seed, SIZES[workload.name][args.size], inst)
    region = outcome.region

    result = {
        "sim": outcome.sim,
        "ops": outcome.ops,
        "counters": outcome.counters,
        "steps": outcome.steps,
        "violations": outcome.violations,
        "setup_s": inst.setup_s,
        "peak_rss_mb": inst.peak_rss_mb,
        "cpu_s": region.cpu_s,
    }
    if region.slices:
        rates = [ops / cpu_s for ops, cpu_s, _calib in region.slices]
        result["host_ops_per_s"] = reference_rate(region.slices)
        result["timed_ops"] = sum(ops for ops, _cpu_s, _calib in region.slices)
        result["timed_cpu_s"] = sum(cpu_s for _ops, cpu_s, _calib in region.slices)
        result["calibration_s"] = statistics.median(inst.calibrations)
        result["slice_spread"] = _quartile_spread(rates)
    if region.profile is not None:
        result["profile"] = region.profile.by_layer(layer_map)
        result["profile_total_s"] = region.profile.total_self_s()
    if region.live_kb:
        result["traced_peak_mb"] = region.traced_peak_mb
        result["live_kb"] = region.live_kb
    print(json.dumps(result))
    return 0


def _quartile_spread(values) -> float:
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


if __name__ == "__main__":
    sys.exit(main())
