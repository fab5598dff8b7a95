"""Profiling harness: ``repro profile <suite>``.

Wraps any runner scenario suite in :mod:`cProfile` and prints where the
wall-clock goes: the wall time, one line of collector (``gc``) work, and
a **top-N hotspot table** (tottime-ordered, like ``pstats``).

It is a hotspot finder, not a meter: it prints (``--json`` for a
machine-readable report) and writes no file. Per-layer shares come from
the ledger's traced set (``benchmarks/ledger/run.py --trace 1``,
``<layer>.self_share``), which also books built-ins and generated
methods to the layer that called them; it is the one layer map.

Profiling is observation-only: the simulation under the profiler makes
exactly the same RNG draws and scheduling decisions as an unprofiled
run, so seeded history digests are unchanged (tests/test_profile.py
pins this).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "available_targets",
    "main",
    "profile_callable",
    "profile_target",
]


def profile_callable(
    fn: Callable[[], Any], top: int = 25
) -> Tuple[Any, Dict[str, Any]]:
    """Run ``fn`` under cProfile; return ``(fn_result, report_dict)``.

    The report carries the top-N hotspots and ``gc``: the collector's
    collections and seconds per generation during the call and their
    share of ``wall_s`` (cProfile books that time to whichever frame
    allocated). Both observe the interpreter without
    touching program state, so ``fn``'s result is byte-identical to an
    unprofiled call.
    """
    profiler = cProfile.Profile()
    collector = _CollectorMeter()
    gc.callbacks.append(collector)
    started = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        gc.callbacks.remove(collector)
    wall = time.perf_counter() - started

    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    total_tottime = 0.0
    total_calls = 0
    for (filename, lineno, funcname), (
        ccalls,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        total_tottime += tottime
        total_calls += ncalls
        rows.append(
            {
                "function": funcname,
                "file": _short_path(filename),
                "line": lineno,
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )

    rows.sort(key=lambda row: (-row["tottime_s"], row["file"], row["line"]))
    report = {
        "wall_s": round(wall, 4),
        "profiled_tottime_s": round(total_tottime, 4),
        "total_calls": total_calls,
        "hotspots": rows[:top],
        "gc": {
            "collections": collector.collections,
            "seconds": [round(s, 6) for s in collector.seconds],
            "share_of_wall": (
                round(sum(collector.seconds) / wall, 4) if wall else 0.0
            ),
        },
    }
    return result, report


class _CollectorMeter:
    """A ``gc.callbacks`` hook: collections and seconds per generation."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started


def _short_path(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    marker = "src/repro/"
    index = normalized.find(marker)
    if index >= 0:
        return normalized[index + len("src/") :]
    if normalized.startswith("~") or normalized.startswith("<"):
        return normalized
    return normalized.rsplit("/", 1)[-1]


# -- targets ------------------------------------------------------------------


def available_targets() -> List[str]:
    """Profile targets: every runner suite."""
    from repro.runner import SUITES

    return sorted(SUITES)


def _target_callable(
    target: str, small: bool, seed: int
) -> Callable[[], Any]:
    """Resolve a runner suite name (fig4, fig7, ablations, soak,
    fleet_full, ...) to a zero-arg callable that runs every cell of the
    suite in-process, serially — the same work ``repro experiments
    <name> --jobs 1`` does, minus rendering.
    """
    from repro.runner import SUITES, build_suite
    from repro.runner.cells import run_cell

    if target not in SUITES:
        raise KeyError(
            f"unknown profile target {target!r} "
            f"(available: {', '.join(available_targets())})"
        )
    scenarios = build_suite(target, small, seed)

    def run_suite_cells() -> Dict[str, Any]:
        return {
            scenario.digest(): run_cell(scenario) for scenario in scenarios
        }

    return run_suite_cells


def profile_target(
    target: str, small: bool = False, seed: int = 42, top: int = 25
) -> Dict[str, Any]:
    """Profile one target and return its JSON-plain report."""
    fn = _target_callable(target, small, seed)
    _result, report = profile_callable(fn, top=top)
    report = {
        "target": target,
        "small": small,
        "seed": seed,
        **report,
    }
    return report


# -- report rendering ---------------------------------------------------------


def _format_report(report: Dict[str, Any], top: int) -> str:
    from repro.experiments.common import format_table

    lines = [
        f"{report['target']}"
        f"{' (small)' if report.get('small') else ''}: "
        f"{report['wall_s']:.2f}s wall"
    ]
    collector = report["gc"]
    lines.append(
        "collector (gen 0 / 1 / 2): "
        + " / ".join(str(n) for n in collector["collections"])
        + " collections, "
        + " / ".join(f"{s:.3f}" for s in collector["seconds"])
        + f" s, {collector['share_of_wall']:.1%} of wall"
    )
    hot_rows = [
        [
            f"{row['file']}:{row['line']}",
            row["function"],
            f"{row['ncalls']:,}",
            f"{row['tottime_s']:.3f}",
            f"{row['cumtime_s']:.3f}",
        ]
        for row in report["hotspots"][:top]
    ]
    lines.append(
        format_table(
            ["location", "function", "ncalls", "tottime s", "cumtime s"],
            hot_rows,
            title=f"top {len(hot_rows)} hotspots by tottime",
        )
    )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Profile a runner suite under cProfile and print its wall "
            "time, collector work and top hotspots by tottime. Writes no "
            "file."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "runner suite to profile (fig4..fig10, fig_wpaxos, ablations, "
            "soak, fleet, fleet_full)"
        ),
    )
    parser.add_argument(
        "--small", action="store_true", help="reduced sizes (quick look)"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--top", type=int, default=25, help="hotspot rows to keep (default 25)"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    args = parser.parse_args(argv)

    try:
        report = profile_target(
            args.target, small=args.small, seed=args.seed, top=args.top
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_format_report(report, args.top))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
