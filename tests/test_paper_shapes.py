"""The paper's shape claims, asserted on the cells ``repro experiments`` runs.

The reproduction targets of EXPERIMENTS.md are *shapes* — who wins, by
what factor, where behaviour crosses over. Each test below reads the
payloads of one suite's own grid (the same cells, built by the same
code, that print the EXPERIMENTS.md tables) and asserts the conservative
form of what the paper claims for that figure.

One session fixture runs the seven default suites' ``--small`` cells
once. Three claims need run length — WanKeeper's migration warm-up must
amortise before they hold — and are asserted on the six full-size cells
they read instead, with the reason beside each; a paper claim is never
loosened to fit a grid.
"""

import os

import pytest

from repro.runner import SUITES, execute, shutdown_pool
from repro.runner.suites import DEFAULT_SUITE_NAMES

SEED = 42

#: Grid keys of the full-size cells the run-length-sensitive claims read.
FULL_SIZE_CELLS = {
    "fig4": [("wk", 0.05), ("zk_observer", 0.05)],
    "fig7": [("wk", 1.0), ("zk_observer", 1.0)],
    "fig10": [("wk", 0.1, True), ("wk", 0.5, True)],
}


@pytest.fixture(scope="session")
def payloads():
    """``{(suite, small): {grid key: payload}}``, every cell run once."""
    grids = {
        (name, True): SUITES[name].grid(True, SEED)
        for name in DEFAULT_SUITE_NAMES
    }
    for name, keys in FULL_SIZE_CELLS.items():
        full = SUITES[name].grid(False, SEED)
        grids[name, False] = {key: full[key] for key in keys}
    report = execute(
        [scenario for grid in grids.values() for scenario in grid.values()],
        # The pool is slower than in-process on a single CPU.
        jobs=min(2, os.cpu_count() or 1),
    )
    shutdown_pool()
    report.raise_on_failure()
    return {
        which: {key: report.payload(scenario) for key, scenario in grid.items()}
        for which, grid in grids.items()
    }


def test_fig4a_write_ratio_throughput(payloads):
    """Paper: WanKeeper ~10x ZooKeeper at 50% writes, ~3x at 5% writes,
    slightly *below* ZooKeeper at 100% reads (marshalling overhead)."""
    by = {
        key: cell["throughput"] for key, cell in payloads["fig4", True].items()
    }
    # 50% writes: paper reports 10x over plain ZK; assert a strong multiple.
    assert by["wk", 0.5] > 3.0 * by["zk", 0.5]
    # 5% writes: paper reports 3x; assert at least 1.5x.
    assert by["wk", 0.05] > 1.5 * by["zk", 0.05]
    # Observers help ZooKeeper but stay below WanKeeper on writes.
    assert by["zk_observer", 0.5] > by["zk", 0.5]
    assert by["wk", 0.5] > by["zk_observer", 0.5]
    # 100% reads: everyone serves locally; WanKeeper *slightly* below ZK
    # (marshalling overhead, paper §IV-A) but within 15%.
    assert by["wk", 0.0] > 0.85 * by["zk", 0.0]
    assert by["wk", 0.0] < by["zk", 0.0]


def test_fig4b_write_ratio_latency(payloads):
    """Paper: WanKeeper write latency far below both ZooKeeper variants
    and *decreasing* with more writes; read latencies essentially equal."""
    small = payloads["fig4", True]
    full = payloads["fig4", False]
    for fraction in (0.05, 0.25, 0.5):
        zk, zko, wk = (
            small[system, fraction] for system in ("zk", "zk_observer", "wk")
        )
        # Write latency: WK << ZKO < ZK.
        if fraction == 0.05:
            # With one write in twenty, the 2000-op --small run has not
            # amortised the migration warm-up (WK 54.77 ms vs 0.7 x 71.0);
            # the claim is about the paper-sized 10K-op run.
            assert (
                full["wk", 0.05]["write_mean_ms"]
                < 0.7 * full["zk_observer", 0.05]["write_mean_ms"]
            )
        else:
            assert wk["write_mean_ms"] < 0.7 * zko["write_mean_ms"]
        assert zko["write_mean_ms"] < zk["write_mean_ms"]
        # Read latency effectively equal (within 1 ms).
        assert abs(wk["read_mean_ms"] - zk["read_mean_ms"]) < 1.0
    # WK average write latency *decreases* as the write ratio grows (more
    # writes -> more token migration -> more local commits).
    assert small["wk", 0.5]["write_mean_ms"] < small["wk", 0.05]["write_mean_ms"]


def test_fig5_latency_cdf(payloads):
    """Paper: 80% / 90% of WanKeeper writes (50% / 100%-write runs) land
    at a couple of ms; ZK+observers writes all pay ~1 WAN RTT; most
    plain-ZK writes pay ~2."""
    cells = payloads["fig5", True]
    one_rtt_ms = 80.0  # covers the 70 ms CA<->VA round trip + slack
    # WanKeeper: most writes are local (under 10 ms). Conservative floors
    # and the ordering between the two runs.
    assert cells["wk", 0.5]["local_write_fraction"] > 0.6
    assert cells["wk", 1.0]["local_write_fraction"] > 0.7
    assert (
        cells["wk", 1.0]["local_write_fraction"]
        >= cells["wk", 0.5]["local_write_fraction"]
    )
    # ZK with observers: essentially no local writes; 90% within ~1 RTT.
    assert cells["zk_observer", 0.5]["local_write_fraction"] < 0.05
    assert cells["zk_observer", 0.5]["write_p90_ms"] < one_rtt_ms
    # Plain ZK: the median write is already beyond the 1-RTT bound.
    assert cells["zk", 0.5]["write_p50_ms"] > one_rtt_ms


def test_fig6_multisite_throughput(payloads):
    """Paper: observers double plain ZooKeeper; WanKeeper beats both by
    committing locally; WK-hot beats WK-cold (no migration warm-up)."""
    cells = payloads["fig6", True]
    zk, zko, cold, hot = (
        cells[setup,]["total_throughput"]
        for setup in ("zk", "zk_observer", "wk", "wk_hot")
    )
    # Observers ~double plain ZK (paper: "doubles the throughput").
    assert 1.5 * zk < zko < 2.6 * zk
    # WanKeeper above both baselines; hot above cold.
    assert cold > zko
    assert hot > cold


def test_fig7_contention_sweep(payloads):
    """Paper: ZooKeeper flat in the overlap; WanKeeper declines smoothly,
    yet at 100% overlap still clears ZooKeeper-with-observers by ~20%."""
    small = payloads["fig7", True]
    full = payloads["fig7", False]
    zk, zko, wk = (
        [small[system, o]["total_throughput"] for o in (0.0, 0.5, 1.0)]
        for system in ("zk", "zk_observer", "wk")
    )
    # ZooKeeper flat in overlap (within 15%).
    assert max(zk) < 1.15 * min(zk)
    assert max(zko) < 1.15 * min(zko)
    # WanKeeper declines monotonically (allowing small noise).
    assert wk[0] > wk[1] * 0.98 and wk[1] > wk[2] * 0.98
    assert wk[0] > 1.5 * wk[-1]
    # Even at full overlap WanKeeper clears ZK+observers (paper: +20%).
    # WanKeeper gets there on random locality in the access sequence, which
    # 800 ops/client have not yet paid the cold start back for (25.24 vs
    # 1.05 x 25.07); asserted on the 2500-op full-size cells.
    assert (
        full["wk", 1.0]["total_throughput"]
        > 1.05 * full["zk_observer", 1.0]["total_throughput"]
    )


def test_fig8_bookkeeper_throughput(payloads):
    """Paper: centralized ZooKeeper is the bottleneck at short write
    durations; WanKeeper adds local writes (+45% over ZK+observers at
    0.4 s); all systems converge as the duration grows."""
    cells = payloads["fig8", True]

    def tput(system, duration_ms):
        return cells[system, duration_ms]["entries_per_sec"]

    for duration_ms in (200.0, 400.0, 1600.0):
        # WanKeeper >= ZK observers >= plain ZK at every duration.
        assert tput("wk", duration_ms) > tput("zk_observer", duration_ms)
        assert tput("zk_observer", duration_ms) > tput("zk", duration_ms)
    # Paper: +45% at 0.4 s; assert a conservative +20%.
    assert tput("wk", 400.0) > 1.2 * tput("zk_observer", 400.0)
    # Coordination matters less at long durations: the WK advantage at
    # 1.6 s is smaller than at 0.2 s (ratios shrink toward 1).
    ratio_short = tput("wk", 200.0) / tput("zk", 200.0)
    ratio_long = tput("wk", 1600.0) / tput("zk", 1600.0)
    assert ratio_long < ratio_short


def _scfs_throughputs(cells, hotspot):
    return (
        [
            cells[system, overlap, hotspot]["total_throughput"]
            for overlap in (0.1, 0.5, 0.8)
        ]
        for system in ("wk", "zk_observer")
    )


def test_fig10a_scfs_overlap(payloads):
    """Paper: at <=10% overlap WanKeeper far outperforms ZK+observers; at
    >=50% its advantage shrinks toward the ZKO level."""
    wk, zko = _scfs_throughputs(payloads["fig10", True], hotspot=False)
    # Low overlap: WanKeeper multiple times better.
    assert wk[0] > 2.0 * zko[0]
    # High overlap: advantage shrinks (ratio declines monotonically).
    ratios = [w / z for w, z in zip(wk, zko)]
    assert ratios[0] > ratios[1] > ratios[2]
    # ZKO itself is insensitive to overlap.
    assert max(zko) < 1.15 * min(zko)


def test_fig10b_scfs_hotspot(payloads):
    """Paper: with 80% of operations on 20% of the data, each site's hot
    records migrate to it quickly — ~5x ZK+observers even at 80% overlap."""
    wk, zko = _scfs_throughputs(payloads["fig10", True], hotspot=True)
    # The hotspot keeps WanKeeper far ahead at every overlap (paper: 5x at
    # 80% overlap; assert a conservative 2x).
    for overlap, w, z in zip((0.1, 0.5, 0.8), wk, zko):
        assert w > 2.0 * z, f"overlap {overlap}: {w} vs {z}"
    assert wk[-1] / zko[-1] > 2.0


def _total_series(timeline):
    """Sum the two sites' ops/sec per 10 s bucket, in time order."""
    combined = {}
    for series in timeline.values():
        for time_ms, ops_per_sec in series:
            combined[time_ms] = combined.get(time_ms, 0.0) + ops_per_sec
    return [ops for _t, ops in sorted(combined.items())]


def test_fig10c_scfs_timeline(payloads):
    """Paper: at 10% contention tokens migrate quicker, so throughput
    grows faster than at 50%; once California finishes, Frankfurt's
    throughput accelerates."""
    for small in (True, False):
        cells = payloads["fig10", small]
        low = _total_series(cells["wk", 0.1, True]["timeline"])
        high = _total_series(cells["wk", 0.5, True]["timeline"])
        # Lower contention finishes the same op count sooner (fewer
        # buckets) and sustains higher early throughput.
        assert sum(low[:2]) > sum(high[:2])
        assert len(low) <= len(high)

    # Frankfurt's throughput ramps as tokens migrate to it. The final
    # bucket is partial (Frankfurt finishes mid-bucket), so only full
    # buckets compare — and --small's 800 ops/client fill just two 10 s
    # buckets, one of them partial: the ramp needs the full-size run.
    timeline = payloads["fig10", False]["wk", 0.1, True]["timeline"]
    fr = [ops for _t, ops in timeline["frankfurt"]]
    ca = [ops for _t, ops in timeline["california"]]
    fr_full = fr[:-1]
    assert len(fr_full) > 1
    assert fr_full[-1] > fr_full[0]
    if len(fr) >= len(ca) + 2:
        # Frankfurt kept running well past California: its post-CA
        # throughput beats its own contended-phase average (paper's
        # "throughput at the Frankfurt site grows quickly").
        tail = fr[len(ca):-1]
        head = fr[: len(ca)]
        assert max(tail) > sum(head) / len(head)


def test_ablation_migration_threshold(payloads):
    """A1 (§II-B): r = 2 is a good heuristic — small r migrates eagerly
    (more recalls under contention), large r degenerates toward
    hub-pinned tokens."""
    cells = payloads["ablations", True]
    tput = {r: cells["a1", r]["total_throughput"] for r in (1, 2, 4, 8, None)}
    # Migrating at all beats never migrating.
    assert tput[2] > 1.5 * tput[None]
    # Large r loses locality: monotone decline from r=2 to r=8 to never.
    assert tput[2] > tput[8] > 0.9 * tput[None]
    # Eager migration (r=1) recalls more tokens than r=2 under contention.
    assert (
        cells["a1", 1]["tokens_recalled"] > cells["a1", 2]["tokens_recalled"]
    )


def test_ablation_markov_prediction(payloads):
    """A2 (§II-B): on a phase-shifting workload the Markov model migrates
    on the *first* access of a phase instead of waiting for the streak."""
    cells = payloads["ablations", True]
    reactive = cells["a2", "consecutive(r=2)"]
    proactive = cells["a2", "markov(r=2,t=0.6)"]
    assert proactive["total_throughput"] > 1.05 * reactive["total_throughput"]
    assert proactive["write_mean_ms"] < reactive["write_mean_ms"]


def test_ablation_bulk_tokens(payloads):
    """A3 (§III-B): bulk tokens "still improve when the lock/queue is only
    accessed by clients from one site"."""
    cells = payloads["ablations", True]
    assert (
        cells["a3", "bulk-migrating"]["acquisitions_per_sec"]
        > 3.0 * cells["a3", "pinned-at-hub"]["acquisitions_per_sec"]
    )


def test_ablation_fractional_read_tokens(payloads):
    """A4 (§VI): fractional tokens give strong reads cheaper than
    forwarding every read to the hub; causal local reads stay fastest."""
    cells = payloads["ablations", True]
    local, forward, fractional = (
        cells["a4", mode] for mode in ("local", "forward", "fractional")
    )
    # Causal local reads are (of course) the fastest.
    assert local["read_mean_ms"] < 2.0
    # Fractional tokens beat naive forwarding on both metrics.
    assert fractional["read_mean_ms"] < 0.8 * forward["read_mean_ms"]
    assert fractional["total_throughput"] > forward["total_throughput"]


def test_ablation_hub_placement(payloads):
    """A5 (§I): the hub belongs where the traffic is (two CA clients, one
    FR client)."""
    cells = payloads["ablations", True]
    tput = {
        site: cells["a5", site]["total_throughput"]
        for site in ("virginia", "california", "frankfurt")
    }
    assert tput["california"] > tput["virginia"]
    assert tput["california"] > tput["frankfurt"]
