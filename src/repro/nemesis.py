"""Nemesis: seeded fault injection for whole-system tests, as a schedule.

A fault is data: one JSON-plain schedule entry (``{"at", "kind", ...}``)
that one executor, :meth:`Nemesis._apply_entry`, resolves against the live
deployment and injects from outside the servers — server crashes and
restarts, WAN partitions and heals, flaky links (loss + duplication),
asymmetric one-way partitions and gray degradations (pathological delay)
— while recording everything it did. Every kind is an environmental fault
of the paper's crash-recovery model: no kind makes a server lie. Soak
tests drive a workload under a nemesis and then check the global
invariants (replica convergence, token exclusivity, history consistency)
after a final quiet period.

:class:`Nemesis` draws one entry per interval from a seeded random mix and
appends it to :attr:`Nemesis.schedule`, the run's replayable fault record.
:class:`ScheduleNemesis` plays a declared schedule: the fuzzer's generated
ones (:mod:`repro.fuzz`), checked-in regression artifacts, or a random
run's record, which replays the run's faults in a fresh world of the same
seed. The design follows the Jepsen idea adapted to a deterministic
simulator: because the schedule derives from the experiment seed, any
failure found is perfectly reproducible. Each fault kind draws from its own
*named substream* of the seed (see :func:`repro.sim.rng.seeded_rng`), so
adding a new fault kind never reshuffles the schedules of the existing ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.net.transport import LinkProfile
from repro.sim.kernel import Environment, Interrupt
from repro.sim.rng import seeded_rng

__all__ = ["FaultEvent", "Nemesis", "NemesisConfig", "ScheduleNemesis"]

#: LinkProfile of a flaky-link entry that names no loss/duplicate.
FLAKY_PROFILE = LinkProfile(loss=0.05, duplicate=0.05)
#: Delay multiplier of a gray-degrade entry that names no factor.
GRAY_DELAY_FACTOR = 8.0
#: A drawn dwell is capped at this many times the mean, so tail draws stay
#: bounded (e.g. below a failover timeout when that matters).
REPAIR_CAP_FACTOR = 3.0


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or repair)."""

    time: float
    kind: str  # crash | restart | partition | heal | flaky-link | restore
    #        # | oneway-partition | oneway-heal | gray-degrade
    #        # | skip (an entry its guard refused)
    target: str
    #: Optional structured payload (dwell, parameters); absent for events
    #: recorded by older call sites, so ``(e.time, e.kind, e.target)``
    #: tuples stay the stable comparison form.
    info: Optional[Dict[str, Any]] = None


@dataclass
class NemesisConfig:
    """Probabilities and pacing of the fault schedule."""

    interval_ms: float = 2000.0
    crash_probability: float = 0.25
    partition_probability: float = 0.15
    #: Degrade a random WAN link with loss + duplication (a flaky path).
    flaky_link_probability: float = 0.0
    #: Sever only one direction of a random site pair (gray failure: the
    #: other end still believes the link is healthy).
    oneway_partition_probability: float = 0.0
    #: Multiply a random link's latency (gray failure: up but very slow).
    gray_degrade_probability: float = 0.0
    #: Mean dwell before a fault is repaired (exponential, capped at
    #: ``REPAIR_CAP_FACTOR`` times the mean).
    repair_after_ms: float = 6000.0
    #: Never partition more than one site pair at a time (symmetric and
    #: one-way partitions count toward the same budget).
    max_active_partitions: int = 1
    #: Never degrade more than this many links at a time (flaky + gray).
    max_active_degradations: int = 2


class Nemesis:
    """Injects faults into a deployment of any stack
    (:class:`~repro.zk.deployment.Deployment`), drawing one schedule entry
    per interval."""

    #: Schedule entry kinds understood by :meth:`_apply_entry`.
    KINDS = (
        "crash",
        "partition",
        "oneway-partition",
        "flaky-link",
        "gray-degrade",
    )

    def __init__(
        self,
        env: Environment,
        net,
        deployment,
        rng: random.Random,
        config: Optional[NemesisConfig] = None,
    ):
        self.env = env
        self.net = net
        self.deployment = deployment
        # One draw from the caller's rng fixes this nemesis's identity;
        # every fault kind then gets its own named substream, so enabling
        # a new kind (or a kind drawing more numbers) never reshuffles the
        # schedules of the others.
        self._base_seed = rng.getrandbits(64)
        self._streams: Dict[str, random.Random] = {}
        self.config = config or NemesisConfig()
        #: Every entry this nemesis played, in order: for the random
        #: nemesis one per interval, a bare ``{"at"}`` where it drew none.
        self.schedule: List[Dict[str, Any]] = []
        self.applied = 0
        self.skipped = 0
        self.events: List[FaultEvent] = []
        self._down: List[Tuple[float, Any]] = []  # (repair_at, server)
        self._partitions: List[Tuple[float, str, str]] = []
        self._oneway: List[Tuple[float, str, str]] = []  # (heal_at, src, dst)
        # (restore_at, site_a, site_b, previous profile or None). Keeping
        # the previous profile lets a nemesis degradation stack on top of a
        # baseline link profile (e.g. a soak's ambient loss) and put it
        # back on repair instead of wiping it.
        self._degraded: List[
            Tuple[float, str, str, Optional[LinkProfile]]
        ] = []
        self._proc = None
        self._active = False

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        if self._active:
            raise RuntimeError("nemesis already running")
        self._active = True
        self._proc = self.env.process(self._run(), name="nemesis")

    def stop_and_repair(self) -> None:
        """Stop injecting and repair everything (for the quiet period)."""
        self._active = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("nemesis stopped")
        for _at, server in self._down:
            if not server.is_alive:
                server.restart()
                self._log("restart", server.name)
        self._down = []
        for _at, site_a, site_b in self._partitions:
            self.net.heal(site_a, site_b)
            self._log("heal", f"{site_a}~{site_b}")
        self._partitions = []
        for _at, src, dst in self._oneway:
            self.net.heal_one_way(src, dst)
            self._log("oneway-heal", f"{src}->{dst}")
        self._oneway = []
        for _at, site_a, site_b, previous in self._degraded:
            self._restore_link(site_a, site_b, previous)
        self._degraded = []

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # ----------------------------------------------------------------- guts

    def _stream(self, name: str) -> random.Random:
        """The named substream for one fault kind (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = seeded_rng(self._base_seed, f"nemesis:{name}")
            self._streams[name] = stream
        return stream

    def _log(
        self, kind: str, target: str, info: Optional[Dict[str, Any]] = None
    ) -> None:
        self.events.append(FaultEvent(self.env.now, kind, target, info))
        trace = self.net.trace
        if trace is not None:
            detail: Dict[str, Any] = {"target": target}
            if info:
                detail.update(info)
            trace.emit(self.env.now, "nemesis", kind, "nemesis", detail)

    def _run(self):
        start = self.env.now
        while self._active:
            try:
                yield self.env.timeout(self.config.interval_ms)
            except Interrupt:
                return
            if not self._active:
                return
            self._repair_due()
            # ScheduleNemesis adds ``at`` back to its start: for floats
            # 0 <= start <= now that lands on now, so a replay of the
            # record wakes at the same instants.
            entry = self._draw(self.env.now - start)
            self.schedule.append(entry)
            self._apply_entry(entry)

    def _draw(self, at: float) -> Dict[str, Any]:
        """This interval's entry. The mix picks a kind, or none; the kind's
        substream then picks targets in the live deployment, as the indices
        :meth:`_apply_entry` resolves, and a dwell."""
        entry: Dict[str, Any] = {"at": at}
        cfg = self.config
        roll = self._stream("schedule").random()
        threshold = 0.0
        for kind, probability in (
            ("crash", cfg.crash_probability),
            ("partition", cfg.partition_probability),
            ("flaky-link", cfg.flaky_link_probability),
            ("oneway-partition", cfg.oneway_partition_probability),
            ("gray-degrade", cfg.gray_degrade_probability),
        ):
            threshold += probability
            if roll < threshold:
                break
        else:
            return entry
        rng = self._stream(kind)
        sites = self._sites()
        if kind == "crash":
            site = rng.randrange(len(sites))
            live = [s for s in self._servers_in(sites[site]) if s.is_alive]
            if not live:
                return entry
            victim = live[rng.randrange(len(live))]
            by_name = sorted(live, key=lambda s: s.name)
            entry.update(kind=kind, site=site, victim=by_name.index(victim))
        else:
            if len(sites) < 2:
                return entry
            a, b = rng.sample(range(len(sites)), 2)
            entry.update(kind=kind, a=a, b=b)
        entry["dwell"] = self._dwell(rng)
        return entry

    def _dwell(self, rng: random.Random) -> float:
        mean = self.config.repair_after_ms
        return min(rng.expovariate(1.0 / mean), mean * REPAIR_CAP_FACTOR)

    def _repair_due(self) -> None:
        now = self.env.now
        still_down = []
        for repair_at, server in self._down:
            if now >= repair_at and not server.is_alive:
                server.restart()
                self._log("restart", server.name)
            elif not server.is_alive:
                still_down.append((repair_at, server))
        self._down = still_down
        open_partitions = []
        for heal_at, site_a, site_b in self._partitions:
            if now >= heal_at:
                self.net.heal(site_a, site_b)
                self._log("heal", f"{site_a}~{site_b}")
            else:
                open_partitions.append((heal_at, site_a, site_b))
        self._partitions = open_partitions
        open_oneway = []
        for heal_at, src, dst in self._oneway:
            if now >= heal_at:
                self.net.heal_one_way(src, dst)
                self._log("oneway-heal", f"{src}->{dst}")
            else:
                open_oneway.append((heal_at, src, dst))
        self._oneway = open_oneway
        still_degraded = []
        for restore_at, site_a, site_b, previous in self._degraded:
            if now >= restore_at:
                self._restore_link(site_a, site_b, previous)
            else:
                still_degraded.append((restore_at, site_a, site_b, previous))
        self._degraded = still_degraded

    def _restore_link(
        self, site_a: str, site_b: str, previous: Optional[LinkProfile]
    ) -> None:
        if previous is None:
            self.net.restore(site_a, site_b)
        else:
            self.net.degrade(site_a, site_b, previous)
        self._log("restore", f"{site_a}~{site_b}")

    def _sites(self) -> List[str]:
        return sorted(self.deployment.by_site)

    def _servers_in(self, site: str) -> List[Any]:
        return self.deployment.by_site[site]

    # ------------------------------------------------------------- executor
    #
    # _apply_entry resolves an entry's indices against the sorted live
    # topology and hands the targets to one _inject_* primitive, which
    # applies the fault if its guard allows it, logs it, and schedules
    # the repair.

    def _pick_site(self, index: Any) -> Optional[str]:
        sites = self._sites()
        if not sites:
            return None
        return sites[int(index) % len(sites)]

    def _pick_pair(
        self, entry: Dict[str, Any]
    ) -> Optional[Tuple[str, str]]:
        sites = self._sites()
        if len(sites) < 2:
            return None
        a = sites[int(entry.get("a", 0)) % len(sites)]
        b = sites[int(entry.get("b", 1)) % len(sites)]
        if a == b:
            b = sites[(sites.index(b) + 1) % len(sites)]
        return a, b

    def _apply_entry(self, entry: Dict[str, Any]) -> bool:
        if "kind" not in entry:
            return False  # an interval that drew no fault
        kind = str(entry["kind"])
        dwell = float(entry.get("dwell", self.config.repair_after_ms))
        applied = False
        if kind == "crash":
            site = self._pick_site(entry.get("site", 0))
            if site is not None:
                live = sorted(
                    (s for s in self._servers_in(site) if s.is_alive),
                    key=lambda s: s.name,
                )
                if live:
                    victim = live[int(entry.get("victim", 0)) % len(live)]
                    applied = self._inject_crash(victim, dwell)
        elif kind == "partition":
            pair = self._pick_pair(entry)
            if pair is not None:
                applied = self._inject_partition(pair[0], pair[1], dwell)
        elif kind == "oneway-partition":
            pair = self._pick_pair(entry)
            if pair is not None:
                applied = self._inject_oneway(pair[0], pair[1], dwell)
        elif kind == "flaky-link":
            pair = self._pick_pair(entry)
            if pair is not None:
                profile = LinkProfile(
                    loss=float(entry.get("loss", FLAKY_PROFILE.loss)),
                    duplicate=float(
                        entry.get("duplicate", FLAKY_PROFILE.duplicate)
                    ),
                )
                applied = self._inject_flaky(pair[0], pair[1], profile, dwell)
        elif kind == "gray-degrade":
            pair = self._pick_pair(entry)
            if pair is not None:
                factor = float(entry.get("factor", GRAY_DELAY_FACTOR))
                applied = self._inject_gray(pair[0], pair[1], factor, dwell)
        if applied:
            self.applied += 1
        else:
            self.skipped += 1
            self._log("skip", kind, {"entry": json.dumps(
                entry, sort_keys=True, default=repr)})
        return applied

    def _inject_crash(self, victim, dwell: float) -> bool:
        servers = self._servers_in(victim.site)
        live = [server for server in servers if server.is_alive]
        # Quorum guard: keep a strict majority of each ensemble alive.
        if victim not in live or len(live) - 1 < len(servers) // 2 + 1:
            return False
        victim.crash()
        self._log("crash", victim.name, {"dwell_ms": round(dwell, 3)})
        self._down.append((self.env.now + dwell, victim))
        return True

    def _inject_partition(
        self, site_a: str, site_b: str, dwell: float
    ) -> bool:
        if len(self._partitions) >= self.config.max_active_partitions:
            return False
        if site_a == site_b or self.net.partitioned(site_a, site_b):
            return False
        self.net.partition(site_a, site_b)
        self._log(
            "partition", f"{site_a}~{site_b}", {"dwell_ms": round(dwell, 3)}
        )
        self._partitions.append((self.env.now + dwell, site_a, site_b))
        return True

    def _inject_oneway(self, src: str, dst: str, dwell: float) -> bool:
        total_partitions = len(self._partitions) + len(self._oneway)
        if total_partitions >= self.config.max_active_partitions:
            return False
        if src == dst or self.net.partitioned_one_way(src, dst):
            return False
        self.net.partition_one_way(src, dst)
        self._log(
            "oneway-partition", f"{src}->{dst}",
            {"dwell_ms": round(dwell, 3)},
        )
        self._oneway.append((self.env.now + dwell, src, dst))
        return True

    def _nemesis_degraded(self, site_a: str, site_b: str) -> bool:
        return any(
            {site_a, site_b} == {a, b} for _at, a, b, _prev in self._degraded
        )

    def _inject_flaky(
        self, site_a: str, site_b: str, profile: LinkProfile, dwell: float
    ) -> bool:
        if len(self._degraded) >= self.config.max_active_degradations:
            return False
        if site_a == site_b or self._nemesis_degraded(site_a, site_b):
            return False
        previous = self.net.link_profile(site_a, site_b)
        if previous is not None:
            # Stack on any ambient degradation: keep the worse loss/dup and
            # the ambient delay factor, and restore the ambient profile later.
            profile = LinkProfile(
                loss=max(previous.loss, profile.loss),
                duplicate=max(previous.duplicate, profile.duplicate),
                delay_factor=previous.delay_factor,
            )
        self.net.degrade(site_a, site_b, profile)
        self._log(
            "flaky-link", f"{site_a}~{site_b}",
            {"loss": profile.loss, "duplicate": profile.duplicate,
             "dwell_ms": round(dwell, 3)},
        )
        self._degraded.append(
            (self.env.now + dwell, site_a, site_b, previous)
        )
        return True

    def _inject_gray(
        self, site_a: str, site_b: str, factor: float, dwell: float
    ) -> bool:
        if len(self._degraded) >= self.config.max_active_degradations:
            return False
        if site_a == site_b or self._nemesis_degraded(site_a, site_b):
            return False
        previous = self.net.link_profile(site_a, site_b)
        gray = LinkProfile(delay_factor=factor)
        if previous is not None:
            # Keep ambient loss/duplication; only the latency goes gray.
            gray = LinkProfile(
                loss=previous.loss,
                duplicate=previous.duplicate,
                delay_factor=factor,
            )
        self.net.degrade(site_a, site_b, gray)
        self._log(
            "gray-degrade", f"{site_a}~{site_b}",
            {"delay_factor": factor, "dwell_ms": round(dwell, 3)},
        )
        self._degraded.append(
            (self.env.now + dwell, site_a, site_b, previous)
        )
        return True


class ScheduleNemesis(Nemesis):
    """Plays an explicit, declarative fault schedule.

    Each entry is a JSON-plain dict::

        {"at": 1200.0, "kind": "crash", "site": 1, "victim": 0,
         "dwell": 2500.0}

    ``at`` is milliseconds after :meth:`start`; ``site``/``victim``/``a``/
    ``b`` are *indices* resolved at apply time against the sorted live
    topology (modulo the candidate count), so a schedule stays valid — and
    deterministic — under shrinking and on any topology. Entries whose
    guard refuses (quorum, partition budget, dead target) are logged as
    ``skip`` events rather than silently dropped, so the trace records
    them and shrinking stays honest. An entry without a kind only wakes
    the nemesis to service repairs.
    """

    def __init__(
        self,
        env: Environment,
        net,
        deployment,
        schedule: Iterable[Dict[str, Any]],
        config: Optional[NemesisConfig] = None,
    ):
        super().__init__(env, net, deployment, random.Random(0), config)
        self.schedule = sorted(
            (dict(entry) for entry in schedule),
            key=lambda e: (
                float(e.get("at", 0.0)),
                str(e.get("kind", "")),
                json.dumps(e, sort_keys=True, default=repr),
            ),
        )

    def _run(self):
        start = self.env.now
        for entry in self.schedule:
            target_t = start + float(entry.get("at", 0.0))
            while self.env.now < target_t:
                try:
                    yield self.env.timeout(target_t - self.env.now)
                except Interrupt:
                    return
            if not self._active:
                return
            self._repair_due()
            self._apply_entry(entry)
        # Past the last entry: keep servicing repairs until stopped.
        while self._active:
            try:
                yield self.env.timeout(self.config.interval_ms)
            except Interrupt:
                return
            self._repair_due()
