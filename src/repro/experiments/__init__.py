"""Experiment cells: one module per paper figure plus the ablations.

Each module exposes per-cell ``run_*_cell`` functions that build a fresh
simulated world, drive one workload and return the cell's JSON-plain
payload: the returned dict is the one statement of the cell's metrics.
:mod:`repro.runner.cells` registers these functions by name as scenario
cells, :mod:`repro.runner.suites` holds each figure's grid and table, and
``python -m repro experiments`` is the one way to regenerate a figure;
the ``examples/`` scripts call the cells directly.
"""

from repro.experiments.common import (
    SYSTEMS,
    World,
    build_world,
    format_table,
)

__all__ = ["SYSTEMS", "World", "build_world", "format_table"]
