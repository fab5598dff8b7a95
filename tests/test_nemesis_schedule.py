"""A random nemesis draws a schedule, and its schedule replays the run.

``Nemesis`` draws one schedule entry per interval and hands it to the
executor ``ScheduleNemesis`` plays declared schedules with. Twin worlds —
the product against ``tests/reference_nemesis.py`` (the probabilistic
scheduler it replaced, which called the injection primitives from seven
``_maybe_*`` drivers) — must inject the same faults at the same instants
and leave the kernel at the same event count, on three fault mixes under
a workload and on the soak cell. The drawn entries are data: played by
``ScheduleNemesis`` in a fresh world of the same seed, a random soak's
``nemesis.schedule`` reproduces its faults, its kernel event count and its
payload.
"""

import itertools
import math
import random

import pytest

from repro import nemesis as nemesis_module
from repro.nemesis import Nemesis, NemesisConfig, ScheduleNemesis
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.runner.cells import cell_soak
from repro.soak import run_soak
from repro.wankeeper import build_wankeeper_deployment

from tests.reference_nemesis import ReferenceNemesis, ReferenceNemesisConfig
from tests.support import fresh_world

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
MIXES = {
    "crash-partition": dict(interval_ms=600.0, crash_probability=0.5,
                            partition_probability=0.2, repair_after_ms=4000.0),
    "gray": dict(interval_ms=400.0, crash_probability=0.0,
                 partition_probability=0.0, flaky_link_probability=0.3,
                 oneway_partition_probability=0.3,
                 gray_degrade_probability=0.3, repair_after_ms=1500.0),
    "soak": dict(interval_ms=1000.0, crash_probability=0.2,
                 partition_probability=0.1, flaky_link_probability=0.15,
                 oneway_partition_probability=0.15,
                 gray_degrade_probability=0.15, repair_after_ms=2500.0),
}


def faults(nemesis):
    """Every injected fault and repair; a refused draw is no fault."""
    return [e for e in nemesis.events if e.kind != "skip"]


def run_world(seed, nemesis_cls, config):
    """One retrying writer per site on four keys, over lossy links, under
    ``nemesis_cls``, run by ``repro.soak.run_soak`` like every soak."""
    env, topo, net = fresh_world(seed=seed, jitter=0.1)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    for a, b in itertools.combinations(SITES, 2):
        net.degrade(a, b, LinkProfile(loss=0.02, duplicate=0.02))
    nemesis = nemesis_cls(env, net, deployment, random.Random(seed), config)
    run = run_soak(
        deployment, nemesis, [f"/twin/k{i}" for i in range(4)],
        [(site, random.Random(seed * 10 + i)) for i, site in enumerate(SITES)],
        ops_per_actor=15, duration_ms=math.inf, max_retries=10,
        request_timeout_ms=3000.0, write_fraction=1.0, pace_ms=(100.0, 600.0),
        settle_ms=0.0, quiesce_ms=20000.0, horizon_ms=3.6e6,
    )
    assert run.finished and run.violation is None
    return nemesis, env, sorted(deployment.tree_fingerprints().items())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_drawn_schedule_matches_the_probabilistic_scheduler(mix, seed):
    product, env, trees = run_world(seed, Nemesis, NemesisConfig(**MIXES[mix]))
    reference, ref_env, ref_trees = run_world(
        seed, ReferenceNemesis, ReferenceNemesisConfig(**MIXES[mix])
    )
    assert faults(product) == faults(reference)
    assert env._seq == ref_env._seq
    assert trees == ref_trees
    assert faults(product), "the mix injected nothing"
    # One entry per interval; each drawn fault was applied or refused.
    drawn = [entry for entry in product.schedule if "kind" in entry]
    assert product.applied + product.skipped == len(drawn)
    assert product.skipped == sum(e.kind == "skip" for e in product.events)


def soak(monkeypatch, nemesis_cls, config_cls, seed):
    """Run the soak cell with ``nemesis_cls``; returns (payload, nemesis)."""
    made = []

    class Recorded(nemesis_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(nemesis_module, "Nemesis", Recorded)
    monkeypatch.setattr(nemesis_module, "NemesisConfig", config_cls)
    payload = cell_soak(seed=seed)
    (nemesis,) = made
    return payload, nemesis


@pytest.mark.parametrize("seed", [3, 17])
def test_soak_cell_matches_the_probabilistic_scheduler(seed, monkeypatch):
    payload, product = soak(monkeypatch, Nemesis, NemesisConfig, seed)
    ref_payload, reference = soak(
        monkeypatch, ReferenceNemesis, ReferenceNemesisConfig, seed
    )
    assert payload == ref_payload
    assert faults(product) == faults(reference)
    assert product.env._seq == reference.env._seq


def test_a_random_soak_replays_from_its_schedule(monkeypatch):
    payload, recorded = soak(monkeypatch, Nemesis, NemesisConfig, 3)
    assert any(e.kind == "skip" for e in recorded.events)
    assert any("kind" not in entry for entry in recorded.schedule)

    class Replay(ScheduleNemesis):
        def __init__(self, env, net, deployment, rng, config):
            super().__init__(env, net, deployment, recorded.schedule, config)

    replayed_payload, replayed = soak(monkeypatch, Replay, NemesisConfig, 3)
    assert replayed_payload == payload
    assert replayed.events == recorded.events
    assert replayed.env._seq == recorded.env._seq
