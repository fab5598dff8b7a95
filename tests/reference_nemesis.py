"""The probabilistic scheduler the schedule-drawing Nemesis replaced.

Before a random run's faults were schedule entries, ``Nemesis._run`` rolled
the fault mix every interval and five ``_maybe_*`` drivers drew their
targets from each kind's substream and called the injection primitives
directly. ``ReferenceNemesis`` restores exactly that loop, verbatim, over
the product's primitives; ``ReferenceNemesisConfig`` carries the fields it
reads that the product config no longer has. ``tests/test_nemesis_schedule.py``
runs it and the product in twin worlds and demands the same faults at the
same instants and the same kernel event count. Test-only — nothing under
``src/`` may import this.
"""

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.nemesis import Nemesis, NemesisConfig
from repro.net.transport import LinkProfile
from repro.sim.kernel import Interrupt


@dataclass
class ReferenceNemesisConfig(NemesisConfig):
    flaky_profile: LinkProfile = LinkProfile(loss=0.05, duplicate=0.05)
    gray_delay_factor: float = 8.0
    repair_cap_factor: float = 3.0


class ReferenceNemesis(Nemesis):
    def __init__(self, env, net, deployment, rng, config=None):
        super().__init__(env, net, deployment, rng,
                         config or ReferenceNemesisConfig())

    def _run(self):
        while self._active:
            try:
                yield self.env.timeout(self.config.interval_ms)
            except Interrupt:
                return
            if not self._active:
                return
            self._repair_due()
            cfg = self.config
            roll = self._stream("schedule").random()
            threshold = cfg.crash_probability
            if roll < threshold:
                self._maybe_crash()
                continue
            threshold += cfg.partition_probability
            if roll < threshold:
                self._maybe_partition()
                continue
            threshold += cfg.flaky_link_probability
            if roll < threshold:
                self._maybe_flaky_link()
                continue
            threshold += cfg.oneway_partition_probability
            if roll < threshold:
                self._maybe_oneway_partition()
                continue
            threshold += cfg.gray_degrade_probability
            if roll < threshold:
                self._maybe_gray_degrade()

    # ------------------------------------------------ probabilistic drivers

    def _maybe_crash(self) -> None:
        rng = self._stream("crash")
        site = rng.choice(self._sites())
        live = [s for s in self._servers_in(site) if s.is_alive]
        if not live:
            return
        victim = rng.choice(live)
        self._inject_crash(victim, self._dwell(rng))

    def _maybe_partition(self) -> None:
        rng = self._stream("partition")
        link = self._pick_link(rng)
        if link is None:
            return
        self._inject_partition(link[0], link[1], self._dwell(rng))

    def _pick_link(
        self, rng: Optional[random.Random] = None
    ) -> Optional[Tuple[str, str]]:
        rng = rng if rng is not None else self._stream("link")
        sites = self._sites()
        if len(sites) < 2:
            return None
        site_a, site_b = rng.sample(sites, 2)
        return site_a, site_b

    def _maybe_flaky_link(self) -> None:
        rng = self._stream("flaky-link")
        link = self._pick_link(rng)
        if link is None:
            return
        self._inject_flaky(
            link[0], link[1], self.config.flaky_profile, self._dwell(rng)
        )

    def _maybe_oneway_partition(self) -> None:
        rng = self._stream("oneway-partition")
        link = self._pick_link(rng)
        if link is None:
            return
        self._inject_oneway(link[0], link[1], self._dwell(rng))

    def _maybe_gray_degrade(self) -> None:
        rng = self._stream("gray-degrade")
        link = self._pick_link(rng)
        if link is None:
            return
        self._inject_gray(
            link[0], link[1], self.config.gray_delay_factor, self._dwell(rng)
        )

    def _dwell(self, rng: Optional[random.Random] = None) -> float:
        rng = rng if rng is not None else self._stream("dwell")
        raw = rng.expovariate(1.0 / self.config.repair_after_ms)
        return min(raw, self.config.repair_after_ms * self.config.repair_cap_factor)
