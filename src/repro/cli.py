"""Command line of the reproduction: ``python -m repro <subcommand>``.

* ``python -m repro experiments [names|--all] --jobs N`` — the one way to
  regenerate a paper figure (fig4 … fig10, the ablations, the opt-in
  suites): runs the suite's scenario cells in-process (``--jobs 1``) or
  through the warm worker pool, with content-addressed result caching;
  result tables go to stdout (byte-identical for any ``--jobs``),
  progress/timing to stderr. ``--small`` runs a reduced configuration.
* ``python -m repro cache stats|clear`` — inspect or empty the cache.
* ``python -m repro profile <suite>`` — cProfile a runner suite; prints
  its wall time, collector work and top-N hotspots. Performance, and
  each layer's share of it, is *measured* by the ledger
  (``python3 benchmarks/ledger/run.py``), which is not a subcommand.
* ``python -m repro fuzz`` — the coverage-guided fault-schedule fuzzer.
* ``python -m repro trace --out FILE`` — run a small traced WanKeeper
  workload (sentinel on) and dump the structured event trace as JSONL.
* ``python -m repro diff-traces A B`` — first divergence of two JSONL
  traces (sequence numbers ignored).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List

__all__ = ["main"]


# -- `experiments` subcommand -------------------------------------------------


def _experiments_main(argv: List[str]) -> int:
    from repro.runner import (
        ResultCache,
        SUITES,
        build_suite,
        default_cache_dir,
        execute,
        render_suite,
    )
    from repro.runner.suites import DEFAULT_SUITE_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description=(
            "Run evaluation suites through the parallel scenario runner. "
            "Tables print to stdout and are byte-identical for any --jobs; "
            "progress, timing, and cache accounting go to stderr."
        ),
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help=f"suites to run (available: {', '.join(sorted(SUITES))})",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the full figure/ablation set "
        f"({', '.join(DEFAULT_SUITE_NAMES)})",
    )
    parser.add_argument(
        "--small", action="store_true", help="reduced size for a quick look"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="1 = in-process serial (default); N > 1 = N warm pool "
        "workers; 0 = one per CPU",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="per-cell wall-clock timeout in worker mode (default 1800)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default {default_cache_dir()!r})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always recompute; neither read nor write the result cache",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="per-cell progress on stderr"
    )
    parser.add_argument(
        "--sentinel",
        action="store_true",
        help="run every scenario with the online invariant sentinel attached "
        "(any invariant violation fails the run with a trace tail)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print every registered suite and its cells, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SUITES):
            scenarios = build_suite(name, args.small, args.seed)
            marker = "" if name in DEFAULT_SUITE_NAMES else "  (opt-in)"
            print(f"{name}: {len(scenarios)} cells{marker}")
            for scenario in scenarios:
                print(f"  {scenario.describe()}")
        return 0

    if args.sentinel:
        # Worker processes are spawned and inherit os.environ, so setting
        # the gate here covers in-process and parallel execution alike.
        from repro.invariants import SENTINEL_ENV

        os.environ[SENTINEL_ENV] = "1"

    names = list(args.names)
    if args.all:
        names += [n for n in DEFAULT_SUITE_NAMES if n not in names]
    if not names:
        parser.error("name at least one experiment or pass --all")
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)} "
            f"(available: {', '.join(sorted(SUITES))})"
        )

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)

    scenarios = []
    for name in names:
        scenarios += build_suite(name, args.small, args.seed)

    progress = None
    if args.verbose:
        progress = lambda message: print(message, file=sys.stderr)

    started = time.time()
    report = execute(
        scenarios,
        jobs=jobs,
        cache=cache,
        timeout_s=args.timeout,
        progress=progress,
    )

    # Tables always print, in request order, for every cell that has a
    # result — even when other cells failed.
    for name in names:
        try:
            table = render_suite(name, args.small, args.seed, report.results)
        except KeyError:
            print(
                f"[{name}] skipped: missing cell results (see failures)",
                file=sys.stderr,
            )
            continue
        print(f"== {name} (seed {args.seed}"
              f"{', small' if args.small else ''}) ==")
        print(table)
        print()

    print(
        f"[experiments] {report.summary()}, total {time.time() - started:.1f}s",
        file=sys.stderr,
    )
    if cache is not None:
        print(
            f"[cache] {cache.hits} hits, {cache.misses} misses ({cache.root})",
            file=sys.stderr,
        )
    if report.failures:
        for failure in report.failures:
            print(f"FAIL {failure.describe()}", file=sys.stderr)
        return 1
    return 0


# -- `cache` subcommand -------------------------------------------------------


def _cache_main(argv: List[str]) -> int:
    from repro.runner import ResultCache, default_cache_dir

    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or clear the scenario result cache.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default {default_cache_dir()!r})",
    )
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache dir: {stats['root']}")
        print(f"entries:   {stats['entries']}")
        print(f"bytes:     {stats['bytes']}")
        print(
            f"current:   {stats['current_code_entries']} "
            "(match the live code digest)"
        )
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.root}")
    return 0


# -- `trace` / `diff-traces` subcommands --------------------------------------


def _trace_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run a small WanKeeper workload with the structured trace and "
            "invariant sentinel enabled, then dump the trace as JSONL. Two "
            "runs with the same --seed/--ops produce comparable traces for "
            "`python -m repro diff-traces`."
        ),
    )
    parser.add_argument("--out", required=True, help="JSONL output path")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--ops", type=int, default=60, help="writes per site (default 60)"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=65536,
        help="trace ring-buffer capacity (default 65536)",
    )
    args = parser.parse_args(argv)

    from repro.invariants import SENTINEL_ENV

    os.environ[SENTINEL_ENV] = "1"

    import random

    from repro.net.topology import CALIFORNIA, VIRGINIA, wan_topology
    from repro.net.transport import Network
    from repro.sim.kernel import Environment
    from repro.trace import TraceBuffer, install_trace
    from repro.wankeeper import build_wankeeper_deployment

    env = Environment()
    topology = wan_topology(jitter_fraction=0.0)
    net = Network(env, topology, rng=random.Random(args.seed))
    deployment = build_wankeeper_deployment(env, net, topology)
    # Builder attached a default-capacity trace; swap in the sized one
    # before anything runs so the dump can hold the whole workload.
    trace = install_trace(deployment, TraceBuffer(capacity=args.capacity))
    if deployment.sentinel is not None:
        deployment.sentinel.trace = trace
    deployment.start()
    deployment.stabilize()

    def workload(client):
        yield client.connect()
        for index in range(args.ops):
            yield client.create(f"/trace-{client.name}-{index}", b"x")
        yield client.close()

    for site in (VIRGINIA, CALIFORNIA):
        client = deployment.client(site, name=f"tracer-{site}")
        env.process(workload(client), name=f"wl-{site}")
    env.run(until=env.now + 60000.0)
    if deployment.sentinel is not None:
        deployment.sentinel.final_check()

    count = trace.dump(args.out)
    print(
        f"wrote {count} trace events to {args.out} "
        f"({trace.total_emitted} emitted, capacity {args.capacity})"
    )
    return 0


def _diff_traces_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro diff-traces",
        description=(
            "Compare two JSONL traces (from `repro trace` or "
            "TraceBuffer.dump) and report the first divergent event. "
            "Sequence numbers are ignored: only time, category, kind, node, "
            "and detail are compared."
        ),
    )
    parser.add_argument("trace_a")
    parser.add_argument("trace_b")
    parser.add_argument(
        "--context",
        type=int,
        default=3,
        metavar="N",
        help="matching events to print before the divergence (default 3)",
    )
    args = parser.parse_args(argv)

    from repro.trace import first_divergence, load_jsonl

    try:
        events_a = load_jsonl(args.trace_a)
        events_b = load_jsonl(args.trace_b)
    except (OSError, ValueError) as exc:
        print(f"diff-traces: unreadable trace: {exc}", file=sys.stderr)
        return 1
    divergence = first_divergence(events_a, events_b)
    if divergence is None:
        print(f"traces agree ({len(events_a)} events)")
        return 0
    index, event_a, event_b = divergence
    for back in range(max(0, index - args.context), index):
        print(f"  = #{back} {events_a[back]}")
    print(f"first divergence at event #{index}:")
    print(f"  a: {event_a if event_a is not None else '<trace ended>'}")
    print(f"  b: {event_b if event_b is not None else '<trace ended>'}")
    return 1


# -- entry point --------------------------------------------------------------


def _profile_main(argv: List[str]) -> int:
    from repro.profiling import main as profile_main

    return profile_main(argv)


def _fuzz_main(argv: List[str]) -> int:
    from repro.fuzz.cli import main as fuzz_main

    return fuzz_main(argv)


_SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "profile": _profile_main,
    "fuzz": _fuzz_main,
    "experiments": _experiments_main,
    "cache": _cache_main,
    "trace": _trace_main,
    "diff-traces": _diff_traces_main,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the WanKeeper paper. 'experiments' "
        "regenerates the evaluation figures (in parallel, with result "
        "caching); every subcommand has its own --help.",
    )
    parser.add_argument("subcommand", choices=list(_SUBCOMMANDS))
    # Only the subcommand is parsed here; the rest belongs to its parser.
    args = parser.parse_args(argv[:1])
    return _SUBCOMMANDS[args.subcommand](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
