#!/usr/bin/env python3
"""Geo-replicated BookKeeper log with iterating writers (paper §IV-B).

Reproduces the paper's BookKeeper scenario in miniature: a logical log
whose home region is California (three writers) with one more writer in
Frankfurt. Writers coordinate via a WanKeeper lock, register their ledgers
in shared metadata, and append to their local bookies. Compare the
handover cost under plain ZooKeeper vs WanKeeper.

Run:  python examples/geo_replicated_log.py
"""

from repro.experiments.fig8 import run_fig8_cell


def main():
    duration_ms = 400.0
    print("BookKeeper iterating writers: 3 in California, 1 in Frankfurt")
    print(f"each writer holds the log for {duration_ms:.0f} ms per turn\n")
    print(f"{'coordination':16s} {'entries/sec':>12s} {'log handovers':>14s}")
    for system, label in [
        ("zk", "ZooKeeper"),
        ("zk_observer", "ZK+observers"),
        ("wk", "WanKeeper"),
    ]:
        cell = run_fig8_cell(system, duration_ms, total_duration_ms=20000.0)
        print(
            f"{label:16s} {cell['entries_per_sec']:12.1f} {cell['handovers']:14d}"
        )
    print(
        "\nWanKeeper wins because the lock's and metadata's tokens migrate\n"
        "to the log's home region, so most handovers never cross the WAN."
    )


if __name__ == "__main__":
    main()
