"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which every distributed component of
the reproduction runs: a virtual clock, an event queue, generator-based
processes (in the style of SimPy), and FIFO stores used as mailboxes.

The kernel is deliberately single-threaded and deterministic: given the same
seed and the same program, a simulation produces byte-identical histories.
That determinism is what makes the experiment harness reproducible.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Ticker,
    Timeout,
)
from repro.sim.rng import RngRegistry, seeded_rng
from repro.sim.store import Store, StoreClosed

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Store",
    "StoreClosed",
    "Ticker",
    "Timeout",
    "seeded_rng",
]
