"""Tests for the ``repro profile`` harness (src/repro/profiling.py).

Pins three properties:

* the report shape — per-module rollup over the repo's layer buckets,
  shares that sum to one, tottime-ordered hotspots, the collector's
  collections and seconds per generation (its hook removed afterwards),
  JSON-plain;
* print-only — the CLI takes runner suites and writes no file;
* observation-only profiling — running a seeded workload under cProfile
  yields the exact same client-visible history as an unprofiled run.
"""

import gc
import json

import pytest

from repro.profiling import (
    GROUPS,
    available_targets,
    module_group,
    profile_callable,
    profile_target,
)
from repro import profiling


def test_module_group_buckets():
    assert module_group("/x/src/repro/sim/kernel.py") == "kernel"
    assert module_group("/x/src/repro/net/transport.py") == "net"
    assert module_group("/x/src/repro/zab/peer.py") == "zab"
    assert module_group("/x/src/repro/zk/data_tree.py") == "zk"
    assert module_group("/x/src/repro/wankeeper/server.py") == "wankeeper"
    assert module_group("/x/src/repro/wpaxos/peer.py") == "wpaxos"
    assert module_group("/x/src/repro/wpaxos/messages.py") == "wpaxos"
    # The substrate registry is consensus-side, not workload time.
    assert module_group("/x/src/repro/substrate/__init__.py") == "zab"
    assert module_group("/x/src/repro/fleet/full.py") == "fleet"
    assert module_group("/x/src/repro/workloads/driver.py") == "workload"
    assert module_group("/x/src/repro/runner/cells.py") == "workload"
    assert module_group("/x/src/repro/profiling.py") == "workload"
    assert module_group("/usr/lib/python3.11/json/encoder.py") == "other"
    # Windows-style separators normalize to the same buckets.
    assert module_group("C:\\x\\src\\repro\\zk\\records.py") == "zk"


def test_profile_callable_returns_result_and_report():
    def work():
        return sum(i * i for i in range(2000))

    result, report = profile_callable(work, top=5)
    assert result == sum(i * i for i in range(2000))
    assert set(report["modules"]) == set(GROUPS)
    shares = [report["modules"][g]["tottime_share"] for g in GROUPS]
    assert abs(sum(shares) - 1.0) < 0.01
    assert len(report["hotspots"]) <= 5
    tottimes = [row["tottime_s"] for row in report["hotspots"]]
    assert tottimes == sorted(tottimes, reverse=True)


def test_profile_callable_reports_the_collector_and_unhooks_it():
    hooks = len(gc.callbacks)

    def work():
        gc.collect()  # one full collection inside the profiled call
        return len(gc.callbacks)

    during, report = profile_callable(work)
    assert during == hooks + 1
    assert len(gc.callbacks) == hooks
    collector = report["gc"]
    assert set(collector) == {"collections", "seconds", "share_of_wall"}
    assert len(collector["collections"]) == len(collector["seconds"]) == 3
    assert collector["collections"][2] >= 1
    assert all(s >= 0.0 for s in collector["seconds"])
    assert 0.0 <= collector["share_of_wall"] <= 1.0
    # A failing call unhooks too.
    with pytest.raises(ZeroDivisionError):
        profile_callable(lambda: 1 / 0)
    assert len(gc.callbacks) == hooks


def test_available_targets_cover_benches_and_suites():
    # The ledger is the only bench; every target is a runner suite.
    from repro.runner import SUITES

    assert available_targets() == sorted(SUITES)
    assert "fig4" in available_targets()


def test_unknown_target_raises_with_listing():
    with pytest.raises(KeyError):
        profiling._target_callable("no-such-suite", small=True, seed=1)


def test_profile_target_small_ycsb_report_is_json_plain():
    # Cheapest suite that runs every stack: wk x zab, zk x zab, zk x wpaxos.
    report = profile_target("fleet_full", small=True, seed=4242, top=10)
    # Full stack ran: every protocol layer appears in the rollup.
    assert report["target"] == "fleet_full"
    for group in ("kernel", "net", "zab", "wpaxos", "zk", "wankeeper", "fleet"):
        assert report["modules"][group]["tottime_s"] >= 0.0
        assert report["modules"][group]["calls"] > 0
    assert report["protocol_over_substrate"] is not None
    assert report["protocol_over_substrate"] > 0
    # Diffable artifact: round-trips through JSON without custom encoders.
    decoded = json.loads(json.dumps(report))
    assert decoded["modules"].keys() == report["modules"].keys()


def test_cli_prints_report_and_writes_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert profiling.main(["fleet_full", "--small", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["target"] == "fleet_full"
    assert len(report["gc"]["collections"]) == 3
    assert list(tmp_path.iterdir()) == []


def test_text_report_prints_the_collector_line(capsys):
    assert profiling.main(["fleet_full", "--small", "--top", "3"]) == 0
    out = capsys.readouterr().out
    collector = [line for line in out.splitlines()
                 if line.startswith("collector (gen 0 / 1 / 2): ")]
    assert len(collector) == 1
    assert "collections" in collector[0] and "of wall" in collector[0]


def test_cli_unknown_target_fails_cleanly(capsys):
    rc = profiling.main(["no-such-suite"])
    assert rc == 2
    assert "unknown profile target" in capsys.readouterr().out


def _small_history(profiled):
    """Client-visible history of a tiny seeded YCSB run, optionally under
    the profiler. Mirrors tests/test_perf_golden.py::history_digest."""
    from repro.experiments.common import build_world
    from repro.sim import seeded_rng
    from repro.workloads.driver import ClientPlan, YcsbSpec, run_ycsb
    from repro.workloads.stats import LatencyRecorder

    def run():
        world = build_world("zk", seed=99)
        spec = YcsbSpec(record_count=20, operation_count=80, write_fraction=0.5)
        plans = [
            ClientPlan(
                world.client("virginia"),
                seeded_rng(99, "client0"),
                LatencyRecorder("virginia"),
            )
        ]
        run_ycsb(world.env, plans, spec)
        return [
            (s.kind, repr(s.start), repr(s.latency), s.ok)
            for s in plans[0].recorder.samples
        ]

    if profiled:
        result, _report = profile_callable(run)
        return result
    return run()


def test_profiling_does_not_perturb_seeded_history():
    # cProfile observes the interpreter without changing RNG draws or
    # event ordering: the histories must be identical element-for-element
    # (including repr'd start/latency floats).
    assert _small_history(profiled=False) == _small_history(profiled=True)
