"""The performance ledger: one command, every metric by name with its unit.

    python3 benchmarks/ledger/run.py                       # timed set, all workloads
    python3 benchmarks/ledger/run.py --trace               # traced set, all workloads
    python3 benchmarks/ledger/run.py --workload wk_local --seed 7 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --selftest            # timed set twice, compared

Two kinds of number, always told apart. *Simulated* metrics (``sim_*``,
``client.*``, every count) describe the modelled system in simulated
milliseconds; they are pure functions of ``--seed`` and must repeat
exactly. *Host* metrics (``host_ops_per_s``, ``setup_s``, ``peak_rss_mb``,
every ``*_us_*``) describe the simulator as a Python program and are
noisy. See README.md beside this file for every definition.

Every round is a fresh subprocess of ``round.py``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A failed output check is named on stderr and the exit code
is 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from layers import ALL_LAYERS as LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Nominal host CPU seconds of one timed round's measured phase on the
#: reference box; ``--seconds`` buys ``seconds / ROUND_S`` rounds.
ROUND_S = 3.3
MIN_ROUNDS = 2  # the determinism check needs two
ROUND_TIMEOUT_S = 150

#: The sweep of workloads.RATE_STEPS, by the names a memory pass reports
#: them under. (This file must not import workloads: that imports repro,
#: and run.py has to fail cleanly when there is no repro to import.)
RATE_STEPS = ("x1", "x2", "x4", "x6")


@dataclass
class Report:
    """One workload's aggregated result for one set."""

    metrics: Dict[str, float]  # what BENCHMARK.json declares for the set
    failed_checks: List[str]
    attempted: int
    failed_ops: int
    extras: Dict[str, float] = field(default_factory=dict)  # printed, not declared


def load_catalogue() -> Dict[str, Any]:
    """BENCHMARK.json is the one list of workloads, metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- rounds -------------------------------------------------------------------


def run_round(workload: str, seed: int, size: str, mode: str,
              hash_seed: str = "0") -> Dict[str, Any]:
    """One fresh interpreter, one pass; returns the round's JSON result."""
    # REPRO_* switches (sentinel, trace) change what the product does.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Host cost must not move with the interpreter's hash salt (dict probe
    # collisions decide how often __eq__ runs); simulated results ignore it.
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "round.py"),
            "--workload", workload, "--seed", str(seed),
            "--size", size, "--pass", mode,
        ],
        env=env, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.decode("utf-8").strip().splitlines()[-1])


def _simulated(result: Dict[str, Any]) -> str:
    """The part of a round that must be byte-identical across rounds."""
    return json.dumps(
        {key: result[key] for key in ("sim", "counters", "steps")}, sort_keys=True
    )


def _violations(workload: str, results: List[Dict[str, Any]]) -> List[str]:
    names = sorted({name for result in results for name in result["violations"]})
    return [f"{workload}: {name}" for name in names]


# -- end-to-end metrics: the timed set ----------------------------------------


def end_to_end(workload: str, rounds: List[Dict[str, Any]]) -> Report:
    """Aggregate one workload's timed rounds."""
    failed = _violations(workload, rounds)
    if len({_simulated(result) for result in rounds}) != 1:
        failed.append(f"{workload}: rounds_byte_identical")
    rates = [result["host_ops_per_s"] for result in rounds]
    sim = rounds[0]["sim"]
    metrics = {
        # The median round, not the best: calibration scales a round both
        # ways, and a fleet round is a difference of two timed cells, so
        # noise can flatter a round as well as slow it.
        "host_ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(result["setup_s"] for result in rounds),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in rounds),
        "sim_throughput_ops_s": sim["throughput_ops_s"],
    }
    extras = {
        "host.round_spread": (max(rates) - min(rates)) / statistics.median(rates),
        "host.calibration_s": statistics.median(
            result["calibration_s"] for result in rounds
        ),
        **_client_metrics(sim),
    }
    return Report(
        metrics, failed,
        attempted=sum(result["sim"]["ops"] for result in rounds),
        failed_ops=sum(result["sim"]["failed"] for result in rounds),
        extras=extras,
    )


def _client_metrics(sim: Dict[str, Any]) -> Dict[str, float]:
    """Client-observed simulated numbers. 0 stands for "not defined here":
    a p99 without 1 000 samples, a failover without a crash."""
    out = {
        f"client.{kind}_{stat}": float(sim.get(f"{kind}_{stat}") or 0.0)
        for kind in ("write", "read")
        for stat in ("p50_ms", "p99_ms", "samples")
    }
    out["client.failed_op_share"] = sim["failed"] / sim["ops"]
    out["client.failover_ms"] = float(sim.get("failover_ms", 0.0))
    return out


# -- per-layer metrics: the traced set ----------------------------------------


def per_layer(workload: str, timed: Dict[str, Any], profile: Dict[str, Any],
              memory: Dict[str, Any], probes: Dict[str, float]) -> Report:
    """Aggregate one workload's traced passes."""
    passes = (timed, profile, memory)
    failed = _violations(workload, passes)
    # The two traced passes run the same size: same simulated bytes, and
    # the tap adds nothing to the counters both carry.
    shared = set(profile["counters"])
    if (
        profile["sim"] != memory["sim"]
        or profile["counters"] != {k: memory["counters"][k] for k in shared}
    ):
        failed.append(f"{workload}: rounds_byte_identical")

    metrics: Dict[str, float] = {}

    # Host self time, from the profile pass.
    ops = profile["ops"]
    total_s = profile["profile_total_s"]
    for layer in LAYERS:
        bucket = profile["profile"][layer]
        metrics[f"{layer}.self_us_per_op"] = bucket["self_s"] / ops * 1e6
        metrics[f"{layer}.self_share"] = bucket["self_s"] / total_s
        metrics[f"{layer}.calls_per_op"] = bucket["calls"] / ops
    attributed = sum(profile["profile"][layer]["self_s"] for layer in LAYERS)
    if abs(attributed - total_s) > 0.01 * total_s:
        failed.append(f"{workload}: layer_self_times_sum_to_total")
    metrics["trace.overhead_ratio"] = (profile["cpu_s"] / ops) / (
        timed["timed_cpu_s"] / timed["timed_ops"]
    )

    # Deterministic counts, from the memory pass (the one with the tap).
    counters, sim = memory["counters"], memory["sim"]
    ops = memory["ops"]
    writes = sim["write_samples"]
    kops, kwrites = ops / 1000.0, writes / 1000.0
    metrics["sim.events_per_op"] = counters["sim.events"] / ops
    metrics["net.msgs_per_op"] = counters["net.msgs"] / ops
    metrics["net.wan_msgs_per_op"] = counters["msgs.wan"] / ops
    metrics["net.bytes_per_op"] = counters["net.bytes"] / ops
    metrics["net.dropped_share"] = counters["net.dropped"] / counters["net.msgs"]
    metrics["net.duplicated_per_kop"] = counters["net.duplicated"] / kops
    for layer in ("zab", "wpaxos", "zk", "wankeeper"):
        metrics[f"{layer}.msgs_per_op"] = counters[f"msgs.{layer}"] / ops
    metrics["zab.commits_per_write"] = counters["zab.commits"] / writes
    metrics["zab.elections"] = counters["zab.elections"]
    metrics["zab.retransmits_per_kop"] = counters["zab.retransmits"] / kops
    started = counters["wpaxos.steals_started"]
    metrics["wpaxos.steals_per_kwrite"] = started / kwrites
    metrics["wpaxos.steal_win_share"] = (
        counters["wpaxos.steals_won"] / started if started else 0.0
    )
    metrics["wpaxos.retransmits_per_kop"] = counters["wpaxos.retransmits"] / kops
    metrics["zk.applies_per_write"] = counters["zk.applies"] / writes
    metrics["zk.cache_replies_per_kop"] = counters["zk.cache_replies"] / kops
    metrics["zk.client_retries_per_kop"] = counters["zk.client_retries"] / kops
    admitted = counters["wankeeper.local_commits"] + counters["wankeeper.remote_commits"]
    metrics["wankeeper.local_commit_share"] = (
        counters["wankeeper.local_commits"] / admitted if admitted else 0.0
    )
    metrics["wankeeper.grants_per_kop"] = counters["wankeeper.grants"] / kops
    metrics["wankeeper.recalls_per_kop"] = counters["wankeeper.recalls"] / kops

    # Fleet shape and the rate sweep; 0 on workloads without a fleet.
    full = timed["sim"]
    sessions = full.get("sessions", 0)
    metrics["fleet.sessions"] = sessions
    metrics["fleet.issue_drop_share"] = (
        full["issue_drops"] / full["offered_ops"] if sessions else 0.0
    )
    metrics["fleet.in_flight_at_horizon"] = full.get("in_flight_at_horizon", 0)
    for step in RATE_STEPS:
        result = memory["steps"].get(step, {})
        metrics[f"fleet.step_{step}.write_p99_ms"] = result.get("write_p99_ms", 0.0)
        metrics[f"fleet.step_{step}.throughput_ops_s"] = result.get("throughput_ops_s", 0.0)
    metrics["fleet.max_rate_ok_ops_s"] = memory["steps"].get("max_rate_ok_ops_s", 0.0)

    # Memory, from the tracemalloc pass.
    metrics["mem.traced_peak_mb"] = memory["traced_peak_mb"]
    for layer in LAYERS:
        metrics[f"{layer}.live_kb"] = memory["live_kb"][layer]
    metrics["fleet.bytes_per_session"] = (
        memory["traced_peak_mb"] * 1e6 / sessions if sessions else 0.0
    )

    metrics["host.calibration_s"] = timed["calibration_s"]
    metrics["host.slice_spread"] = timed["slice_spread"]
    metrics.update(probes)
    metrics.update(_client_metrics(full))
    return Report(
        metrics, failed,
        attempted=sum(result["sim"]["ops"] for result in passes),
        failed_ops=sum(result["sim"]["failed"] for result in passes),
    )


# -- sets of rounds -----------------------------------------------------------


def timed_set(workloads: List[str], seed: int, size: str, rounds: int
              ) -> Dict[str, Report]:
    """Rounds interleaved across workloads (A B C ... A B C ...), so a slow
    stretch of the box lands on every workload, not on one."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    for _ in range(rounds):
        for name in workloads:
            results[name].append(run_round(name, seed, size, "timed"))
    return {name: end_to_end(name, results[name]) for name in workloads}


def traced_set(workloads: List[str], seed: int, size: str) -> Dict[str, Report]:
    """Per workload: a timed round, a profile pass and a memory pass; the
    traced passes run the smaller ``trace`` size."""
    trace_size = "trace" if size == "full" else size
    probes = run_round("probes", seed, size, "timed")["probes"]
    return {
        name: per_layer(
            name,
            run_round(name, seed, size, "timed"),
            run_round(name, seed, trace_size, "profile"),
            run_round(name, seed, trace_size, "memory"),
            probes,
        )
        for name in workloads
    }


# -- output -------------------------------------------------------------------


def _print_metrics(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units.get(name, '')}")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, float], declared: List[Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host CPU seconds of measured phase to buy per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced set (per-layer metrics)")
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is for the harness's own tests")
    parser.add_argument("--selftest", action="store_true",
                        help="run the timed set twice and compare within the bounds")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no product to measure under {SRC}", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    names = [entry["name"] for entry in catalogue["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")
    workloads = [args.workload] if args.workload else names
    seconds = catalogue["run_seconds"] if args.seconds is None else args.seconds
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    units = {
        entry["name"]: entry["unit"]
        for entry in catalogue["end_to_end"] + catalogue["per_layer"]
    }
    units["host.round_spread"] = "share"  # printed by the timed set, not declared
    # The build: byte-compile once, so no round pays for it in setup_s.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
    compileall.compile_dir(HERE, quiet=2)

    if args.selftest:
        return selftest(workloads, args.seed, args.size, rounds, catalogue)

    if args.trace:
        declared, title = catalogue["per_layer"], "traced"
        reports = traced_set(workloads, args.seed, args.size)
    else:
        declared, title = catalogue["end_to_end"], f"timed, {rounds} rounds"
        reports = timed_set(workloads, args.seed, args.size, rounds)

    several = len(workloads) > 1
    flat: Dict[str, float] = {}
    for name, report in reports.items():
        _print_metrics(
            f"{name} ({title}, seed {args.seed})",
            {**report.metrics, **report.extras}, units,
        )
        # One workload prints bare metric names; several prefix the workload.
        flat.update(
            {f"{name}.{metric}": value for metric, value in report.metrics.items()}
            if several else report.metrics
        )
    if several:
        declared = [
            {"name": f"{name}.{entry['name']}", "unit": entry["unit"]}
            for name in workloads for entry in declared
        ]
    failed_checks = [line for report in reports.values() for line in report.failed_checks]
    for line in failed_checks:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(_result_line(
        not failed_checks,
        sum(report.attempted for report in reports.values()),
        sum(report.failed_ops for report in reports.values()),
        flat, declared,
    ))
    return 1 if failed_checks else 0


def selftest(workloads: List[str], seed: int, size: str, rounds: int,
             catalogue: Dict[str, Any]) -> int:
    """The repeatability criterion as a command: two timed sets of the same
    checkout must agree — simulated metrics exactly, host metrics within
    their bound."""
    first = timed_set(workloads, seed, size, rounds)
    second = timed_set(workloads, seed, size, rounds)
    bad = 0
    print(f"{'workload':<16}{'metric':<24}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    for name in workloads:
        for line in first[name].failed_checks + second[name].failed_checks:
            print(f"CHECK FAILED {line}", file=sys.stderr)
            bad += 1
        a, b = first[name].metrics, second[name].metrics
        for entry in catalogue["end_to_end"]:
            metric = entry["name"]
            diff = abs(b[metric] - a[metric]) / a[metric]
            simulated = metric.startswith("sim_")
            ok = diff == 0.0 if simulated else diff <= entry["bound"]
            bound = "exact" if simulated else f"{entry['bound']:.2f}"
            print(f"{name:<16}{metric:<24}{a[metric]:>14.6g}{b[metric]:>14.6g}"
                  f"{diff:>9.4f}{bound:>8}{'' if ok else '  FAIL'}")
            bad += not ok
        # Every simulated number the timed set prints, not only the declared one.
        simulated_extras = [key for key in first[name].extras if key.startswith("client.")]
        if any(first[name].extras[k] != second[name].extras[k] for k in simulated_extras):
            print(f"CHECK FAILED {name}: sets_byte_identical", file=sys.stderr)
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
