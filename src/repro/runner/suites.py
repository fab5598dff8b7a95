"""Experiment suites: one entry per figure — a grid and a renderer.

A :class:`Suite` is ``grid(small, seed) -> {key: Scenario}`` plus
``render({key: payload}) -> str``. The grid is the single place a
figure's axes and sizes are written; its insertion order is the cell
order ``repro experiments`` runs and lists, and its keys are what the
renderer (and ``tests/test_paper_shapes.py``) address payloads by.
Renderers read their axes back off those keys — never from execution or
completion order — so the output of ``--jobs N`` is byte-identical for
every N, and a cell's spec and its slot in the table cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from repro.experiments.common import format_table
from repro.runner.scenario import Scenario

__all__ = [
    "DEFAULT_SUITE_NAMES",
    "OPT_IN_SUITE_NAMES",
    "SUITES",
    "Suite",
    "build_suite",
    "render_suite",
]

Results = Dict[str, Any]  # scenario digest -> payload
Grid = Dict[Any, Scenario]  # cell key -> scenario, in presentation order
Cells = Dict[Any, Any]  # the same keys -> payload


class Suite(NamedTuple):
    grid: Callable[[bool, int], Grid]
    render: Callable[[Cells], str]


def _axis(cells: Cells, position: int) -> List[Any]:
    """Distinct values at one position of the tuple keys, in grid order."""
    return list(dict.fromkeys(key[position] for key in cells))


def _part(cells: Cells, part: str) -> Cells:
    """The cells whose tuple key starts with ``part``, keyed by the rest."""
    return {key[1:]: cell for key, cell in cells.items() if key[0] == part}


# -- the three workloads more than one suite sweeps ---------------------------


def _write_ratio_cell(suite, system, fraction, seed, records, ops) -> Scenario:
    return Scenario.make(
        "ycsb_write_ratio",
        dict(
            system=system,
            write_fraction=fraction,
            seed=seed,
            record_count=records,
            operation_count=ops,
        ),
        suite=suite,
        label=f"{system}@{fraction:.0%}",
    )


def _disjoint_cell(suite, setup, seed, records, ops, prefix="") -> Scenario:
    return Scenario.make(
        "fig6",
        dict(
            setup=setup,
            seed=seed,
            record_count=records,
            operations_per_client=ops,
            write_fraction=0.5,
        ),
        suite=suite,
        label=f"{prefix}{setup}",
    )


def _contention_cell(
    suite, system, overlap, seed, records, ops, prefix=""
) -> Scenario:
    return Scenario.make(
        "fig7",
        dict(
            system=system,
            overlap=overlap,
            seed=seed,
            record_count=records,
            operations_per_client=ops,
        ),
        suite=suite,
        label=f"{prefix}{system}@{overlap:.0%}",
    )


def _disjoint_rows(cells: Cells) -> List[List[Any]]:
    return [
        [
            setup,
            cell["total_throughput"],
            cell["per_site_throughput"]["california"],
            cell["per_site_throughput"]["frankfurt"],
            cell["write_mean_ms"],
        ]
        for (setup,), cell in cells.items()
    ]


# -- fig4 ---------------------------------------------------------------------


def _fig4_grid(small: bool, seed: int) -> Grid:
    records, ops = (300, 2000) if small else (1000, 10000)
    return {
        (system, fraction): _write_ratio_cell(
            "fig4", system, fraction, seed, records, ops
        )
        for system in ("zk", "zk_observer", "wk")
        for fraction in (0.0, 0.05, 0.25, 0.5)
    }


def _fig4_render(cells: Cells) -> str:
    systems, fractions = _axis(cells, 0), _axis(cells, 1)
    rows = [
        [f"{fraction:.0%}"]
        + [cells[(system, fraction)]["throughput"] for system in systems]
        for fraction in fractions
    ]
    latency_rows = [
        [
            f"{fraction:.0%}",
            system,
            cells[(system, fraction)]["read_mean_ms"] or 0.0,
            cells[(system, fraction)]["write_mean_ms"] or 0.0,
        ]
        for fraction in fractions
        for system in systems
    ]
    return (
        format_table(["write%"] + systems, rows,
                     title="Fig 4a: throughput (ops/sec)")
        + "\n\n"
        + format_table(
            ["write%", "system", "read ms", "write ms"],
            latency_rows,
            title="Fig 4b: mean latency",
        )
    )


# -- fig5 ---------------------------------------------------------------------


def _fig5_grid(small: bool, seed: int) -> Grid:
    records, ops = (200, 1500) if small else (600, 5000)
    return {
        (system, fraction): _write_ratio_cell(
            "fig5", system, fraction, seed, records, ops
        )
        for system in ("zk", "zk_observer", "wk")
        for fraction in (0.5, 1.0)
    }


def _fig5_render(cells: Cells) -> str:
    rows = [
        [
            system,
            f"{fraction:.0%}",
            cell["local_write_fraction"],
            cell["write_p50_ms"],
            cell["write_p90_ms"],
        ]
        for (system, fraction), cell in sorted(cells.items())
    ]
    return format_table(
        ["system", "write%", "local frac", "p50 ms", "p90 ms"],
        rows,
        title="Fig 5: write-latency CDF summary",
    )


# -- fig6 ---------------------------------------------------------------------


def _fig6_grid(small: bool, seed: int) -> Grid:
    records, ops = (300, 1200) if small else (1000, 4000)
    return {
        (setup,): _disjoint_cell("fig6", setup, seed, records, ops)
        for setup in ("zk", "zk_observer", "wk", "wk_hot")
    }


def _fig6_render(cells: Cells) -> str:
    return format_table(
        ["setup", "total ops/s", "CA", "FR", "write ms"],
        _disjoint_rows(cells),
        title="Fig 6: two-site throughput, disjoint access",
    )


# -- fig7 ---------------------------------------------------------------------


def _fig7_grid(small: bool, seed: int) -> Grid:
    records, ops = (200, 800) if small else (400, 2500)
    return {
        (system, overlap): _contention_cell(
            "fig7", system, overlap, seed, records, ops
        )
        for system in ("zk", "zk_observer", "wk")
        for overlap in (0.0, 0.5, 1.0)
    }


def _fig7_render(cells: Cells) -> str:
    systems = _axis(cells, 0)
    rows = [
        [f"{overlap:.0%}"]
        + [cells[(system, overlap)]["total_throughput"] for system in systems]
        for overlap in _axis(cells, 1)
    ]
    return format_table(
        ["overlap"] + systems, rows, title="Fig 7: contention sweep"
    )


# -- fig8 ---------------------------------------------------------------------


def _fig8_grid(small: bool, seed: int) -> Grid:
    total = 10000.0 if small else 25000.0
    return {
        (system, duration): Scenario.make(
            "fig8",
            dict(
                system=system,
                write_duration_ms=duration,
                seed=seed,
                total_duration_ms=total,
            ),
            suite="fig8",
            label=f"{system}@{duration:.0f}ms",
        )
        for system in ("zk", "zk_observer", "wk")
        for duration in (200.0, 400.0, 1600.0)
    }


def _fig8_render(cells: Cells) -> str:
    systems = _axis(cells, 0)
    rows = [
        [f"{duration/1000:.1f}s"]
        + [cells[(system, duration)]["entries_per_sec"] for system in systems]
        for duration in _axis(cells, 1)
    ]
    return format_table(
        ["duration"] + systems, rows, title="Fig 8b: BookKeeper entries/sec"
    )


# -- fig10 --------------------------------------------------------------------

# Fig 10c reads the timelines of two cells Fig 10b already runs: WanKeeper
# with the hotspot at these overlaps.
_FIG10C_OVERLAPS = (0.1, 0.5)


def _fig10_grid(small: bool, seed: int) -> Grid:
    records, ops = (200, 800) if small else (400, 2500)
    return {
        (system, overlap, hotspot): Scenario.make(
            "fig10",
            dict(
                system=system,
                overlap=overlap,
                hotspot=hotspot,
                seed=seed,
                record_count=records,
                operations_per_client=ops,
            ),
            suite="fig10",
            label=f"{system}@{overlap:.0%}" + ("+hotspot" if hotspot else ""),
        )
        for hotspot in (False, True)
        for system in ("zk_observer", "wk")
        for overlap in (0.1, 0.5, 0.8)
    }


def _fig10_render(cells: Cells) -> str:
    systems, overlaps = _axis(cells, 0), _axis(cells, 1)
    parts = [
        format_table(
            ["overlap", "system", "ops/s"],
            [
                [
                    f"{overlap:.0%}",
                    system,
                    cells[(system, overlap, hotspot)]["total_throughput"],
                ]
                for overlap in overlaps
                for system in systems
            ],
            title=title,
        )
        for title, hotspot in (
            ("Fig 10a: SCFS, no hotspot", False),
            ("Fig 10b: SCFS, 20% hotspot per site", True),
        )
    ]
    parts.append(
        format_table(
            ["overlap", "site", "t (s)", "ops/s"],
            [
                [f"{overlap:.0%}", site, time_ms / 1000.0, ops_per_sec]
                for overlap in _FIG10C_OVERLAPS
                for site, series in sorted(
                    cells[("wk", overlap, True)]["timeline"].items()
                )
                for time_ms, ops_per_sec in series
            ],
            title="Fig 10c: WanKeeper throughput per 10 s bucket "
            "(20% hotspot)",
        )
    )
    return "\n\n".join(parts)


# -- ablations ----------------------------------------------------------------


def _ablations_grid(small: bool, seed: int) -> Grid:
    def cell(name, label, **params):
        return Scenario.make(
            name, dict(params, seed=seed), suite="ablations", label=label
        )

    grid: Grid = {}
    for r in (1, 2, 4, 8, None):
        grid["a1", r] = cell(
            "ablation_threshold",
            f"A1 r={r}",
            r=r,
            record_count=150 if small else 300,
            operations_per_client=600 if small else 1500,
            overlap=0.3,
        )
    for policy in ("consecutive(r=2)", "markov(r=2,t=0.6)"):
        grid["a2", policy] = cell(
            "ablation_prediction", f"A2 {policy}", policy=policy
        )
    for policy in ("bulk-migrating", "pinned-at-hub"):
        grid["a3", policy] = cell(
            "ablation_bulk_tokens",
            f"A3 {policy}",
            policy=policy,
            rounds=15 if small else 25,
        )
    for mode in ("local", "forward", "fractional"):
        grid["a4", mode] = cell(
            "ablation_read_mode",
            f"A4 {mode}",
            mode=mode,
            operations_per_client=500 if small else 1500,
        )
    for site in ("virginia", "california", "frankfurt"):
        grid["a5", site] = cell(
            "ablation_hub_placement",
            f"A5 hub={site}",
            l2_site=site,
            record_count=100 if small else 200,
            operations_per_client=400 if small else 1000,
        )
    return grid


def _ablations_render(cells: Cells) -> str:
    def table(part, title, headers, fields):
        return format_table(
            headers,
            [[cell[f] for f in fields] for cell in _part(cells, part).values()],
            title=title,
        )

    return "\n\n".join(
        [
            table(
                "a1",
                "A1: migration threshold r",
                ["policy", "ops/s", "write ms", "recalls"],
                ["label", "total_throughput", "write_mean_ms",
                 "tokens_recalled"],
            ),
            table(
                "a2",
                "A2: Markov prediction",
                ["policy", "ops/s", "write ms"],
                ["policy", "total_throughput", "write_mean_ms"],
            ),
            table(
                "a3",
                "A3: bulk sequential-znode tokens",
                ["policy", "acquisitions/s"],
                ["label", "acquisitions_per_sec"],
            ),
            table(
                "a4",
                "A4: fractional read/write tokens",
                ["read mode", "read ms", "ops/s"],
                ["mode", "read_mean_ms", "total_throughput"],
            ),
            table(
                "a5",
                "A5: hub placement (CA-heavy workload)",
                ["l2 site", "ops/s", "write ms"],
                ["l2_site", "total_throughput", "write_mean_ms"],
            ),
        ]
    )


# -- fig_wpaxos (substrate comparison) ----------------------------------------

# WanKeeper's hierarchical token design vs the WPaxos design point: a flat
# multi-site ensemble on the multileader substrate, where per-object
# ownership plays the role of tokens and owned-object commits need only a
# zone-local quorum. Reuses the fig4/fig6/fig7 workloads so the comparison
# rides the exact cells the paper figures use.


def _wpaxos_grid(small: bool, seed: int) -> Grid:
    systems = ("wk", "wpaxos")
    wr_records, wr_ops = (200, 1200) if small else (600, 5000)
    f6_records, f6_ops = (200, 800) if small else (600, 2500)
    f7_records, f7_ops = (150, 600) if small else (400, 2000)
    grid: Grid = {}
    for system in systems:
        for fraction in (0.05, 0.25, 0.5):
            grid["write_ratio", system, fraction] = _write_ratio_cell(
                "fig_wpaxos", system, fraction, seed, wr_records, wr_ops
            )
    for setup in ("wk", "wk_hot", "wpaxos"):
        grid["disjoint", setup] = _disjoint_cell(
            "fig_wpaxos", setup, seed, f6_records, f6_ops, prefix="disjoint/"
        )
    for system in systems:
        for overlap in (0.0, 0.5, 1.0):
            grid["contention", system, overlap] = _contention_cell(
                "fig_wpaxos", system, overlap, seed, f7_records, f7_ops,
                prefix="contention/",
            )
    return grid


def _wpaxos_render(cells: Cells) -> str:
    def sweep(part, throughput):
        # One row per axis value: each system's ops/s, then its write ms.
        part_cells = _part(cells, part)
        systems = _axis(part_cells, 0)
        return [
            [f"{value:.0%}"]
            + [part_cells[(s, value)][throughput] for s in systems]
            + [part_cells[(s, value)]["write_mean_ms"] or 0.0 for s in systems]
            for value in _axis(part_cells, 1)
        ]

    systems = _axis(_part(cells, "write_ratio"), 0)
    sweep_headers = [f"{s} ops/s" for s in systems] + [
        f"{s} wr ms" for s in systems
    ]
    return (
        format_table(
            ["write%"] + sweep_headers,
            sweep("write_ratio", "throughput"),
            title="WPaxos A: remote-writer YCSB sweep (fig4 workload)",
        )
        + "\n\n"
        + format_table(
            ["setup", "total ops/s", "CA", "FR", "write ms"],
            _disjoint_rows(_part(cells, "disjoint")),
            title="WPaxos B: two-site disjoint access (fig6 workload)",
        )
        + "\n\n"
        + format_table(
            ["overlap"] + sweep_headers,
            sweep("contention", "total_throughput"),
            title="WPaxos C: contention sweep (fig7 workload)",
        )
    )


# -- soak ---------------------------------------------------------------------


def _soak_grid(small: bool, seed: int) -> Grid:
    # Two independent seeded soaks per run, like the acceptance test's
    # seed parametrization (derived from --seed so sweeps stay seeded).
    return {
        soak_seed: Scenario.make(
            "soak",
            dict(
                seed=soak_seed,
                ops_per_actor=25 if small else 60,
                key_count=8,
                quiesce_ms=30000.0,
            ),
            suite="soak",
            label=f"seed={soak_seed}",
        )
        for soak_seed in (seed, seed + 14)
    }


def _soak_render(cells: Cells) -> str:
    rows = [
        [
            soak_seed,
            cell["writes"],
            cell["reads"],
            cell["failures"],
            "yes" if cell["converged"] else "NO",
            cell["token_conflicts"],
            cell["linearizability_violations"],
            cell["max_apply_count"],
        ]
        for soak_seed, cell in cells.items()
    ]
    return format_table(
        ["seed", "writes", "reads", "fails", "converged", "token conflicts",
         "lin viols", "max apply"],
        rows,
        title="Lossy-WAN gray-failure soak invariants",
    )


# -- fleet (the open-loop driver at WAN scale, real servers) ------------------


def _fleet_grid(small: bool, seed: int) -> Grid:
    # Site sweep: how throughput and token migration scale with the number
    # of generated sites at fixed per-site offered load. The 20-site full
    # cell is the acceptance anchor: 10^5 concurrent real sessions.
    sites_axis = (4, 8) if small else (8, 20, 32)
    anchor = 8 if small else 20

    def cell(n_sites, load, label):
        return Scenario.make(
            "fleet_full",
            dict(
                n_sites=n_sites,
                sessions_per_site=1250 if small else 5000,
                duration_ms=4000.0 if small else 15000.0,
                site_ops_per_sec=40.0,
                load_multiplier=load,
                seed=seed,
            ),
            suite="fleet",
            label=label,
        )

    grid: Grid = {("sites", n): cell(n, 1.0, f"{n} sites") for n in sites_axis}
    # Offered-load sweep at the anchor site count, straddling the hub's
    # knee: 4x and 7x are the ledger's fleet_open and fleet_overload
    # multipliers. The 1x cell is the site sweep's anchor cell (one digest,
    # run once).
    for load in (1.0, 4.0, 7.0):
        grid["load", load] = cell(
            anchor, load, f"{anchor} sites @ {load:.1f}x load"
        )
    return grid


def _fleet_render(cells: Cells) -> str:
    site_rows = [
        [
            n,
            cell["sessions"],
            cell["offered_ops_per_sec"],
            cell["throughput_ops_per_sec"],
            cell["token_migrations"],
            cell["write_p99_ms"] or 0.0,
        ]
        for (n,), cell in _part(cells, "sites").items()
    ]
    load_rows = [
        [
            f"{load:.1f}x",
            cell["offered_ops_per_sec"],
            cell["throughput_ops_per_sec"],
            cell["in_flight_at_horizon"],
            cell["write_p99_ms"] or 0.0,
            cell["token_migrations"],
        ]
        for (load,), cell in _part(cells, "load").items()
    ]
    return (
        format_table(
            ["sites", "sessions", "offered/s", "done/s", "migrations",
             "write p99 ms"],
            site_rows,
            title="Fleet A: throughput & token migration vs site count",
        )
        + "\n\n"
        + format_table(
            ["load", "offered/s", "done/s", "backlog", "write p99 ms",
             "migrations"],
            load_rows,
            title="Fleet B: open-loop offered-load sweep (saturation knee)",
        )
    )


# -- fleet_full (the three real stacks under the fleet driver) ----------------


def _fleet_full_grid(small: bool, seed: int) -> Grid:
    shape = dict(
        n_sites=4 if small else 8,
        sessions_per_site=50 if small else 1250,
        duration_ms=4000.0 if small else 15000.0,
        site_ops_per_sec=40.0,
        seed=seed,
    )
    # Which real stacks the driver is pointed at: WanKeeper on zab, flat ZK
    # on zab (hub voters + observers), flat ZK on the wpaxos multileader
    # substrate (one voter per site).
    return {
        f"{system}/{substrate}": Scenario.make(
            "fleet_full",
            dict(shape, system=system, substrate=substrate),
            suite="fleet_full",
            label=f"{system}/{substrate}",
        )
        for system, substrate in (
            ("wankeeper", "zab"),
            ("zk", "zab"),
            ("zk", "wpaxos"),
        )
    }


def _fleet_full_render(cells: Cells) -> str:
    rows = [
        [
            stack,
            cell["sessions"],
            cell["offered_ops_per_sec"],
            cell["throughput_ops_per_sec"],
            cell["read_p50_ms"] or 0.0,
            cell["write_p50_ms"] or 0.0,
            cell["write_p99_ms"] or 0.0,
            cell["token_migrations"],
            cell["messages_sent"],
        ]
        for stack, cell in cells.items()
    ]
    return format_table(
        ["stack", "sessions", "offered/s", "done/s", "read p50",
         "write p50", "write p99", "migrations", "messages"],
        rows,
        title="Fleet full stack: real servers under the open-loop driver",
    )


# -- registry -----------------------------------------------------------------

SUITES: Dict[str, Suite] = {
    "fig4": Suite(_fig4_grid, _fig4_render),
    "fig5": Suite(_fig5_grid, _fig5_render),
    "fig6": Suite(_fig6_grid, _fig6_render),
    "fig7": Suite(_fig7_grid, _fig7_render),
    "fig8": Suite(_fig8_grid, _fig8_render),
    "fig10": Suite(_fig10_grid, _fig10_render),
    "ablations": Suite(_ablations_grid, _ablations_render),
    "fig_wpaxos": Suite(_wpaxos_grid, _wpaxos_render),
    "soak": Suite(_soak_grid, _soak_render),
    "fleet": Suite(_fleet_grid, _fleet_render),
    "fleet_full": Suite(_fleet_full_grid, _fleet_full_render),
}

#: Suites left out of ``--all`` (the soak, the two fleet suites and the
#: substrate comparison run by name). ``--list`` marks these as opt-in.
OPT_IN_SUITE_NAMES = ("soak", "fleet", "fleet_full", "fig_wpaxos")

DEFAULT_SUITE_NAMES = tuple(
    sorted(name for name in SUITES if name not in OPT_IN_SUITE_NAMES)
)


def build_suite(name: str, small: bool, seed: int) -> List[Scenario]:
    return list(SUITES[name].grid(small, seed).values())


def render_suite(name: str, small: bool, seed: int, results: Results) -> str:
    """The suite's tables; ``KeyError`` if a cell has no result."""
    suite = SUITES[name]
    return suite.render(
        {
            key: results[scenario.digest()]
            for key, scenario in suite.grid(small, seed).items()
        }
    )
