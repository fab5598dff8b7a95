"""Nemesis: scheduled, seeded fault injection for whole-system tests.

A :class:`Nemesis` runs alongside a deployment and injects faults from a
seeded random schedule — server crashes and restarts, WAN partitions and
heals, flaky links (loss + duplication), asymmetric one-way partitions,
gray degradations (pathological delay), and two *adversarial* actors (a
site leader that falsely claims token ownership, and a stale leader that
keeps serving fractional-read leases it was told to drop) — while
recording everything it did. Soak tests drive a workload under a nemesis
and then check the global invariants (replica convergence, token
exclusivity, history consistency) after a final quiet period.

The design follows the Jepsen idea adapted to a deterministic simulator:
because the schedule derives from the experiment seed, any failure found
is perfectly reproducible. Each fault kind draws from its own *named
substream* of the seed (see :func:`repro.sim.rng.seeded_rng`), so adding
a new fault kind never reshuffles the schedules of the existing ones.

:class:`ScheduleNemesis` replaces the probabilistic scheduler with an
explicit declarative schedule — a sorted list of ``{"at", "kind", ...}``
entries. It is the executor for the fuzzer's generated fault schedules
(:mod:`repro.fuzz`) and for checked-in regression artifacts, and shares
every injection primitive (and the quorum guard) with the random nemesis.
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


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or repair)."""

    time: float
    kind: str  # crash | restart | partition | heal | flaky-link | restore
    #        # | oneway-partition | oneway-heal | gray-degrade
    #        # | token-usurper | usurper-repair | stale-leader | stale-repair
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
    #: Adversarial: a site leader silently adds a token it was never
    #: granted to its owned set and starts admitting local writes under it
    #: (a Byzantine broker; the sentinel's exclusivity checks are the
    #: oracle that must catch the resulting dual ownership).
    token_usurper_probability: float = 0.0
    #: Adversarial: a site leader acks fractional-read invalidations but
    #: keeps serving (even expired) leases — the paper's §VI coherence
    #: contract broken at the reader.
    stale_leader_probability: float = 0.0
    #: LinkProfile applied by flaky-link faults.
    flaky_profile: LinkProfile = LinkProfile(loss=0.05, duplicate=0.05)
    #: Delay multiplier applied by gray-degradation faults.
    gray_delay_factor: float = 8.0
    #: Mean dwell before a crash/partition is repaired (exponential,
    #: capped at ``repair_cap_factor`` times the mean so tail draws stay
    #: bounded — e.g. below a failover timeout when that matters).
    repair_after_ms: float = 6000.0
    repair_cap_factor: float = 3.0
    #: Never crash below this many live voters per ensemble (quorum guard);
    #: the nemesis tests liveness under *tolerable* faults by default.
    min_live_fraction: float = 0.6
    #: Never partition more than one site pair at a time (symmetric and
    #: one-way partitions count toward the same budget).
    max_active_partitions: int = 1
    #: Never degrade more than this many links at a time (flaky + gray).
    max_active_degradations: int = 2


class Nemesis:
    """Injects faults into a WanKeeper (or ZK) deployment on a schedule."""

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
        self.rng = rng
        # One draw from the caller's rng fixes this nemesis's identity;
        # every fault kind then gets its own named substream, so enabling
        # a new kind (or a kind drawing more numbers) never reshuffles the
        # schedules of the others.
        self._base_seed = rng.getrandbits(64)
        self._streams: Dict[str, random.Random] = {}
        self.config = config or NemesisConfig()
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
        self._stale: List[Tuple[float, Any]] = []  # (repair_at, server)
        self._usurped: List[Tuple[float, Any, str]] = []  # (at, server, key)
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
        for _at, server in self._stale:
            self._repair_stale_leader(server)
        self._stale = []
        for _at, server, key in self._usurped:
            self._repair_usurped(server, key)
        self._usurped = []

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
                continue
            threshold += cfg.token_usurper_probability
            if roll < threshold:
                self._maybe_token_usurper()
                continue
            threshold += cfg.stale_leader_probability
            if roll < threshold:
                self._maybe_stale_leader()

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
        still_stale = []
        for repair_at, server in self._stale:
            if now >= repair_at:
                self._repair_stale_leader(server)
            else:
                still_stale.append((repair_at, server))
        self._stale = still_stale
        still_usurped = []
        for repair_at, server, key in self._usurped:
            if now >= repair_at:
                self._repair_usurped(server, key)
            else:
                still_usurped.append((repair_at, server, key))
        self._usurped = still_usurped

    def _restore_link(
        self, site_a: str, site_b: str, previous: Optional[LinkProfile]
    ) -> None:
        if previous is None:
            self.net.restore(site_a, site_b)
        else:
            self.net.degrade(site_a, site_b, previous)
        self._log("restore", f"{site_a}~{site_b}")

    def _repair_stale_leader(self, server) -> None:
        if getattr(server, "stale_reads", False):
            server.stale_reads = False
            if server._reads is not None:
                server._reads.drop_leases()
            self._log("stale-repair", server.name)

    def _repair_usurped(self, server, key: str) -> None:
        """Take a usurped token back, unless a later legitimate grant made
        the ownership genuine (the hub's location map is the authority)."""
        tokens = getattr(server, "site_tokens", None)
        if tokens is None or key not in tokens.owned:
            return
        hub = getattr(self.deployment, "hub_leader", None)
        if hub is not None and hub.hub_tokens.where(key) == server.site:
            return
        tokens.owned.discard(key)
        tokens.outgoing.discard(key)
        tokens.inflight.pop(key, None)
        self._log(
            "usurper-repair", f"{server.site}:{key}",
            {"server": server.name, "key": key},
        )

    def _sites(self) -> List[str]:
        by_site = getattr(self.deployment, "by_site", None)
        if by_site is not None:
            return sorted(by_site)
        return sorted({server.site for server in self.deployment.servers})

    def _servers_in(self, site: str) -> List[Any]:
        by_site = getattr(self.deployment, "by_site", None)
        if by_site is not None:
            return by_site[site]
        return [s for s in self.deployment.servers if s.site == site]

    def _site_leader(self, site: str) -> Optional[Any]:
        for server in self._servers_in(site):
            if server.is_alive and server.peer.is_leader:
                return server
        return None

    def _usurpable_keys(self, site: str) -> List[str]:
        """Tokens the hub believes belong to *another* site: stealing one
        of those is the strongest lie a Byzantine leader at ``site`` can
        tell, because a legitimate owner exists to collide with."""
        hub = getattr(self.deployment, "hub_leader", None)
        if hub is None or getattr(hub, "hub_tokens", None) is None:
            return []
        return sorted(
            key
            for key, where in hub.hub_tokens.location.items()
            if where is not None and where != site
        )

    # ----------------------------------------------- injection primitives
    #
    # Each _inject_* applies one fault if its guard allows it, logs it, and
    # schedules the repair. The probabilistic _maybe_* drivers draw targets
    # from their kind's substream; ScheduleNemesis calls the primitives
    # directly with targets resolved from declarative schedule entries.

    def _inject_crash(self, victim, dwell: float) -> bool:
        servers = self._servers_in(victim.site)
        live = [server for server in servers if server.is_alive]
        # Quorum guard: keep a strict majority of each ensemble alive.
        min_keep = max(
            len(servers) // 2 + 1,
            int(len(servers) * self.config.min_live_fraction),
        )
        if victim not in live or len(live) - 1 < min_keep:
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

    def _inject_token_usurper(self, leader, key: str, dwell: float) -> bool:
        tokens = getattr(leader, "site_tokens", None)
        if tokens is None or key in tokens.owned:
            return False
        # The Byzantine move: claim the token without any committed grant.
        tokens.grant(key)
        self._log(
            "token-usurper", f"{leader.site}:{key}",
            {"server": leader.name, "key": key, "dwell_ms": round(dwell, 3)},
        )
        self._usurped.append((self.env.now + dwell, leader, key))
        return True

    def _inject_stale_leader(self, leader, dwell: float) -> bool:
        if getattr(leader, "stale_reads", None) is not False:
            return False  # not a WanKeeper server, or already stale
        leader.stale_reads = True
        self._log(
            "stale-leader", leader.name,
            {"site": leader.site, "dwell_ms": round(dwell, 3)},
        )
        self._stale.append((self.env.now + dwell, leader))
        return True

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

    def _nemesis_degraded(self, site_a: str, site_b: str) -> bool:
        return any(
            {site_a, site_b} == {a, b} for _at, a, b, _prev in self._degraded
        )

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

    def _maybe_token_usurper(self) -> None:
        rng = self._stream("token-usurper")
        site = rng.choice(self._sites())
        leader = self._site_leader(site)
        if leader is None:
            return
        candidates = self._usurpable_keys(site)
        if not candidates:
            return
        key = rng.choice(candidates)
        self._inject_token_usurper(leader, key, self._dwell(rng))

    def _maybe_stale_leader(self) -> None:
        rng = self._stream("stale-leader")
        site = rng.choice(self._sites())
        leader = self._site_leader(site)
        if leader is None:
            return
        self._inject_stale_leader(leader, self._dwell(rng))

    def _dwell(self, rng: Optional[random.Random] = None) -> float:
        rng = rng if rng is not None else self._stream("dwell")
        raw = rng.expovariate(1.0 / self.config.repair_after_ms)
        return min(raw, self.config.repair_after_ms * self.config.repair_cap_factor)

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class ScheduleNemesis(Nemesis):
    """Plays an explicit, declarative fault schedule.

    Each entry is a JSON-plain dict::

        {"at": 1200.0, "kind": "crash", "site": 1, "victim": 0,
         "dwell": 2500.0}

    ``at`` is milliseconds after :meth:`start`; ``site``/``victim``/``a``/
    ``b``/``key`` are *indices* resolved at apply time against the sorted
    live topology (modulo the candidate count), so a schedule stays valid
    — and deterministic — under shrinking and across topology mutations.
    Entries whose guard refuses (quorum, partition budget, dead target)
    are logged as ``skip`` events rather than silently dropped, so the
    fuzzer's coverage signal sees them and shrinking stays honest.
    """

    #: Schedule entry kinds understood by :meth:`_apply_entry`.
    KINDS = (
        "crash",
        "partition",
        "oneway-partition",
        "flaky-link",
        "gray-degrade",
        "token-usurper",
        "stale-leader",
    )

    def __init__(
        self,
        env: Environment,
        net,
        deployment,
        schedule: Iterable[Dict[str, Any]],
        config: Optional[NemesisConfig] = None,
        keys: Iterable[str] = (),
        rng: Optional[random.Random] = None,
    ):
        super().__init__(env, net, deployment, rng or random.Random(0), config)
        self.schedule = sorted(
            (dict(entry) for entry in schedule),
            key=lambda e: (
                float(e.get("at", 0.0)),
                str(e.get("kind", "")),
                json.dumps(e, sort_keys=True, default=repr),
            ),
        )
        self.keys = tuple(keys)
        self.applied = 0
        self.skipped = 0

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

    # ------------------------------------------------------------- resolve

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
        kind = str(entry.get("kind", ""))
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
                    loss=float(entry.get("loss", self.config.flaky_profile.loss)),
                    duplicate=float(
                        entry.get("duplicate", self.config.flaky_profile.duplicate)
                    ),
                )
                applied = self._inject_flaky(pair[0], pair[1], profile, dwell)
        elif kind == "gray-degrade":
            pair = self._pick_pair(entry)
            if pair is not None:
                factor = float(
                    entry.get("factor", self.config.gray_delay_factor)
                )
                applied = self._inject_gray(pair[0], pair[1], factor, dwell)
        elif kind == "token-usurper":
            site = self._pick_site(entry.get("site", 0))
            leader = self._site_leader(site) if site is not None else None
            if leader is not None:
                candidates = self._usurpable_keys(site)
                if not candidates and self.keys:
                    tokens = getattr(leader, "site_tokens", None)
                    owned = tokens.owned if tokens is not None else set()
                    candidates = sorted(set(self.keys) - owned)
                if candidates:
                    key = candidates[int(entry.get("key", 0)) % len(candidates)]
                    applied = self._inject_token_usurper(leader, key, dwell)
        elif kind == "stale-leader":
            site = self._pick_site(entry.get("site", 0))
            leader = self._site_leader(site) if site is not None else None
            if leader is not None:
                applied = self._inject_stale_leader(leader, dwell)
        if applied:
            self.applied += 1
        else:
            self.skipped += 1
            self._log("skip", kind, {"entry": json.dumps(
                entry, sort_keys=True, default=repr)})
        return applied
