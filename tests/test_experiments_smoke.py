"""Smoke tests for the experiment harness (tiny configurations).

The figure-sized runs are the suites of ``repro experiments``, whose
shapes ``tests/test_paper_shapes.py`` asserts; these verify the harness
plumbing (world building, drivers, payload shapes) on tiny cells.
"""

import inspect

import pytest

from repro.experiments.common import SYSTEMS, build_world, format_table
from repro.experiments.fig4 import run_write_ratio_cell
from repro.experiments.fig6 import run_fig6_cell
from repro.experiments.fig7 import run_fig7_cell
from repro.experiments.fig8 import run_fig8_cell
from repro.experiments.fig10 import run_fig10_cell
from repro.net import CALIFORNIA
from repro.runner.cells import CELLS
from repro.runner.suites import SUITES
from repro.sim import Environment
from repro.workloads.driver import drive


def test_build_world_all_systems():
    for system in SYSTEMS:
        world = build_world(system, seed=1)
        assert world.kind == system
        client = world.client(CALIFORNIA)
        assert client is not None


def test_build_world_rejects_unknown():
    with pytest.raises(ValueError):
        build_world("etcd")


def test_format_table():
    text = format_table(
        ["name", "value"], [["a", 1.5], ["b", 2]], title="T"
    )
    assert "T" in text and "a" in text and "1.50" in text


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
def test_every_suite_scenario_binds_to_its_cell(small):
    # Tier-1 runs only a few full-size cells; a dropped or renamed cell
    # parameter must fail here, not in a full `experiments --all` run.
    for name, suite in SUITES.items():
        for key, scenario in suite.grid(small, 42).items():
            try:
                inspect.signature(CELLS[scenario.cell]).bind(**scenario.kwargs)
            except TypeError as exc:
                pytest.fail(f"{name}{key}: {scenario.describe()}: {exc}")


def test_drive_fails_a_wedged_process_at_its_budget():
    env = Environment()

    def wedged():
        yield env.event()  # never fires

    with pytest.raises(RuntimeError, match="budget of 20000 ms"):
        drive(env, env.process(wedged()), 20000.0)
    assert env.now <= 25000.0


def test_drive_returns_the_process_value_and_raises_its_error():
    env = Environment()

    def finishes():
        yield env.timeout(12000.0)
        return "done"

    def fails():
        yield env.timeout(1.0)
        raise KeyError("boom")

    assert drive(env, env.process(finishes()), 60000.0) == "done"
    with pytest.raises(KeyError):
        drive(env, env.process(fails()), 60000.0)


def test_fig4_cell_smoke():
    cell = run_write_ratio_cell("wk", 0.5, record_count=50, operation_count=150)
    assert cell["throughput"] > 0
    assert cell["write_mean_ms"] > 0
    assert cell["read_mean_ms"] > 0
    assert cell["ops"] == 150


def test_fig4_cell_pure_reads():
    cell = run_write_ratio_cell("zk", 0.0, record_count=30, operation_count=60)
    assert cell["write_mean_ms"] is None
    assert cell["read_mean_ms"] is not None


def test_fig6_smoke():
    results = {
        setup: run_fig6_cell(setup, record_count=60, operations_per_client=150)
        for setup in ("zk_observer", "wk_hot")
    }
    for result in results.values():
        assert result["total_throughput"] > 0
        assert set(result["per_site_throughput"]) == {"california", "frankfurt"}
    # Hot tokens make WanKeeper dramatically faster even at this scale.
    assert (
        results["wk_hot"]["total_throughput"]
        > results["zk_observer"]["total_throughput"]
    )


def test_fig7_smoke():
    disjoint, shared = (
        run_fig7_cell("wk", overlap, record_count=60, operations_per_client=150)
        for overlap in (0.0, 1.0)
    )
    assert disjoint["overlap"] == 0.0 and shared["overlap"] == 1.0
    assert disjoint["total_throughput"] > shared["total_throughput"]


def test_fig8_cell_smoke():
    cell = run_fig8_cell("wk", 300.0, total_duration_ms=5000.0)
    assert cell["entries_total"] > 0
    assert cell["handovers"] >= 1
    assert cell["entries_per_sec"] > 0


def test_fig10a_smoke():
    cell = run_fig10_cell(
        "wk", 0.1, False, record_count=60, operations_per_client=150
    )
    assert cell["total_throughput"] > 0
    assert not cell["hotspot"]


def test_fig10c_smoke():
    # Fig. 10c is the per-site throughput timeline of the hotspot cell.
    cell = run_fig10_cell(
        "wk", 0.1, True, record_count=60, operations_per_client=200
    )
    assert set(cell["timeline"]) == {"california", "frankfurt"}
    assert all(len(series) >= 1 for series in cell["timeline"].values())
