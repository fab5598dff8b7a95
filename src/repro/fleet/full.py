"""Fleet cells: the open-loop driver against the real servers.

Each site offers load as a Poisson arrival process regardless of
completions, modulated by a follow-the-sun diurnal cosine of its local
solar time, and a hotspot rotates through the key space once per
simulated day. Pushing the offered load past the hub's capacity builds a
real backlog, the saturation knee a closed-loop client cannot show.
Every operation goes into a real :class:`~repro.zk.server.ZkServer` or
WanKeeper deployment over the simulated network, on either broadcast
substrate. Three mechanisms make 10^5 concurrent *real* sessions
affordable:

* **Idle-gap fast-forward** — one global scan callback walks the tick
  grid in plain Python, drawing each site's arrivals in (tick, site)
  order and scheduling every operation at its exact instant with
  :meth:`~repro.sim.kernel.Environment.call_at`. After scheduling a busy
  tick it re-arms itself at the next tick boundary; across quiescent
  stretches it just keeps iterating — simulated time jumps from burst to
  burst with *zero* kernel events in between. The per-tick generator
  it replaced (one ``env.timeout(tick_ms)`` per tick, identical draws)
  lives on as ``tests/reference_fleet.py``; the equality tests pin that
  both issue bit-identical schedules.

* **Flyweight sessions** — one :class:`FleetStation` per site owns a
  single physical inbox shared by all of the site's sessions through
  :meth:`~repro.net.transport.Network.register_alias`. Every session
  still has its own :class:`~repro.net.topology.NodeAddress` (servers
  key connect-dedup, watches, and expiry notices by client address) and
  is a real ``Session`` object server-side, but client-side state is
  array columns indexed by the reply envelope's destination alias: no
  per-session coroutines, no per-session inbox stores, no heartbeater
  generators. Session timeouts are set far past the run horizon, so
  liveness costs nothing while the server's expiry watermark keeps the
  ticker O(1).

* **Shared op records** — read and write ops are immutable records
  precomputed once per key and shared by every request that touches the
  key; each op sends one fresh ``OpRequest``. The per-op kind/latency
  bookkeeping lives in an int-keyed dict with the sign bit of the issue
  timestamp encoding read-vs-write, so the steady state allocates no
  per-op tuples. The fresh-records-per-op station is the second oracle
  in ``tests/reference_fleet.py``; payloads are bit-identical either
  way.

Determinism: all stochastic choices draw from per-site named
``seeded_rng`` streams consumed in (tick, site, arrival) order, the scan
inserts operations in exactly the order the per-tick generator process
would, and no unordered collection is ever iterated. Payloads are pure
functions of the spec, bit-identical across PYTHONHASHSEED values and
executors.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

from repro.fleet.topology import build_fleet_topology, fleet_sites
from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, SimulationError
from repro.sim.rng import seeded_rng
from repro.workloads.stats import LatencyRecorder
from repro.zk.ops import GetDataOp, SetDataOp
from repro.zk.protocol import ConnectReply, ConnectRequest, OpRequest, OpReply

__all__ = ["FleetFullSpec", "FleetStation", "run_fleet_full"]

#: Per-session cxid space inside the int-keyed inflight table
#: (key = session_index * _CXID_SPAN + cxid). A session would need to
#: issue two million ops in one run to overflow.
_CXID_SPAN = 1 << 21


#: Keys per site; tokens start at each key's home site.
KEYS_PER_SITE = 16
#: The hub is the first generated site.
HUB_INDEX = 0
#: Voters in each WanKeeper site ensemble (flat ZK puts 3 at the hub).
VOTERS_PER_SITE = 1
#: Far past the horizon: sessions are real server-side objects but
#: never heartbeat, so the expiry watermark keeps tickers O(1).
SESSION_TIMEOUT_MS = 3_600_000.0
#: The phases around the driven window: sessions connect over the first,
#: the stack settles for the second, and in-flight ops drain in the last.
CONNECT_WINDOW_MS = 500.0
SETTLE_MS = 500.0
DRAIN_MS = 2000.0
#: Bytes of every write.
PAYLOAD_BYTES = 16
#: Follow-the-sun modulation: the offered rate swings by +-60 % over one
#: simulated "day", and 15 % of ops go to a hotspot site's keys that
#: circles the sites once per day.
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD_MS = 20000.0
HOTSPOT_FRACTION = 0.15
#: Latency samples each station's sketch keeps for its percentiles.
RESERVOIR_SIZE = 1024


@dataclass
class FleetFullSpec:
    """Parameters of one full-stack fleet cell (all JSON scalars)."""

    n_sites: int = 8
    sessions_per_site: int = 1250
    duration_ms: float = 15000.0
    #: Offered load per site at load_multiplier 1.0 and diurnal peak 1.0.
    site_ops_per_sec: float = 40.0
    load_multiplier: float = 1.0
    write_fraction: float = 0.2
    #: Which real system serves the ops: "wankeeper" (one ensemble per
    #: site, hub at HUB_INDEX) or "zk" (observers under zab; one voter
    #: per site under wpaxos, its natural multileader shape).
    system: str = "wankeeper"
    substrate: str = "zab"  # "zab" | "wpaxos"
    seed: int = 42

    #: Simulated ms per arrival tick; callers that size a cell in ticks
    #: read it here.
    tick_ms: ClassVar[float] = 10.0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.sessions_per_site < 1:
            raise ValueError("sessions_per_site must be positive")
        if self.system not in ("wankeeper", "zk"):
            raise ValueError(f"unknown system {self.system!r}")
        if self.substrate not in ("zab", "wpaxos"):
            raise ValueError(f"unknown substrate {self.substrate!r}")
        if self.system == "wankeeper" and self.substrate != "zab":
            # WanKeeper requires a single-leader substrate (its site
            # ensembles relay through an elected leader); wpaxos pairs
            # with the flat ZK deployment instead.
            raise ValueError("wankeeper runs on the zab substrate only")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.duration_ms <= 0:
            raise ValueError("durations must be positive")
        if self.site_ops_per_sec < 0 or self.load_multiplier < 0:
            raise ValueError("offered load must not be negative")

    @property
    def total_sessions(self) -> int:
        return self.n_sites * self.sessions_per_site


def diurnal_factor(phase: float, t_ms: float) -> float:
    """Follow-the-sun modulation of a site's offered rate at ``t_ms``:
    a cosine of the site's local time of day (``phase`` in days)."""
    day_fraction = t_ms / DIURNAL_PERIOD_MS + phase
    return 1.0 + DIURNAL_AMPLITUDE * math.cos(2.0 * math.pi * day_fraction)


def poisson(rng, mean: float) -> int:
    """One Poisson draw from ``rng`` (Knuth for small means, normal
    approximation above — both consume only this stream)."""
    if mean <= 0.0:
        return 0
    if mean < 30.0:
        threshold = math.exp(-mean)
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= threshold:
                return k
            k += 1
    n = int(round(rng.gauss(mean, math.sqrt(mean))))
    return n if n > 0 else 0


class FleetStation:
    """Flyweight client layer for one site's sessions.

    All sessions share one inbox store and one consumer; per-session
    state is three array columns plus the shared inflight table. Replies
    are routed back to their session by the envelope's destination
    alias, so no session-id reverse map is needed.
    """

    __slots__ = (
        "env", "net", "spec", "site_index", "server_addr", "recorder",
        "addr", "inbox", "aliases", "_idx_of", "session_ids", "cxids",
        "connected", "ops_issued", "ops_completed", "ops_failed",
        "not_connected_drops", "unexpected_messages", "inflight",
        "_read_ops", "_write_ops", "_key_paths", "_issue_cb",
        "_connect_batch_cb",
    )

    #: Sessions per connect batch; batches spread over CONNECT_WINDOW_MS.
    CONNECT_BATCH = 64

    def __init__(
        self,
        env: Environment,
        net: Network,
        spec: FleetFullSpec,
        site_index: int,
        site_name: str,
        server_addr: NodeAddress,
        read_ops: List[GetDataOp],
        write_ops: List[SetDataOp],
        key_paths: List[str],
    ):
        self.env = env
        self.net = net
        self.spec = spec
        self.site_index = site_index
        self.server_addr = server_addr
        self.recorder = LatencyRecorder(
            site_name, mode="sketch", reservoir_size=RESERVOIR_SIZE
        )
        per_site = spec.sessions_per_site
        # One physical inbox; every session is an alias onto it. The
        # aliases bypass Site.address (whose membership list is O(n) per
        # registration) — nothing routes by site membership.
        self.addr = NodeAddress(site_name, "fleet-station")
        self.inbox = net.register(self.addr)
        self.inbox.consume(self._on_envelope)
        self.aliases = [
            NodeAddress(site_name, f"fs{k}") for k in range(per_site)
        ]
        register_alias = net.register_alias
        inbox = self.inbox
        for alias in self.aliases:
            register_alias(alias, inbox)
        # Lookups only (never iterated): hash-seed safe.
        self._idx_of = {alias: k for k, alias in enumerate(self.aliases)}
        self.session_ids: List[Optional[str]] = [None] * per_site
        self.cxids = array("I", bytes(4 * per_site))
        self.connected = 0
        self.ops_issued = 0
        self.ops_completed = 0
        self.ops_failed = 0
        self.not_connected_drops = 0
        self.unexpected_messages = 0
        #: key -> issue time; negative timestamps mark writes, so the
        #: steady state allocates no per-op tuples.
        self.inflight: Dict[int, float] = {}
        self._read_ops = read_ops
        self._write_ops = write_ops
        self._key_paths = key_paths
        self._issue_cb = self._issue
        self._connect_batch_cb = self._connect_batch

    # -- connect phase -------------------------------------------------------

    def connect_from(self, t_start: float) -> None:
        """Schedule all sessions' ConnectRequests over the connect window."""
        per_site = self.spec.sessions_per_site
        batch = self.CONNECT_BATCH
        n_batches = (per_site + batch - 1) // batch
        spacing = CONNECT_WINDOW_MS / n_batches
        call_at = self.env.call_at
        for b in range(n_batches):
            call_at(t_start + b * spacing, self._connect_batch_cb, b * batch)

    def _connect_batch(self, start: int) -> None:
        spec = self.spec
        end = min(start + self.CONNECT_BATCH, spec.sessions_per_site)
        send = self.net.send
        server = self.server_addr
        aliases = self.aliases
        for k in range(start, end):
            alias = aliases[k]
            send(alias, server, ConnectRequest(alias, SESSION_TIMEOUT_MS))

    # -- op issue (called by the fleet driver at each arrival instant) -------

    def _issue(self, code: int) -> None:
        is_write = code & 1
        rest = code >> 1
        n_keys = len(self._key_paths)
        key_index = rest % n_keys
        sess = rest // n_keys
        session_id = self.session_ids[sess]
        if session_id is None:
            self.not_connected_drops += 1
            return
        cxid = self.cxids[sess] + 1
        self.cxids[sess] = cxid
        op = (
            self._write_ops[key_index]
            if is_write
            else self._read_ops[key_index]
        )
        now = self.env.now
        self.inflight[sess * _CXID_SPAN + cxid] = -now if is_write else now
        self.ops_issued += 1
        self.net.send(self.aliases[sess], self.server_addr,
                      OpRequest(session_id, cxid, op))

    # -- replies -------------------------------------------------------------

    def _on_envelope(self, envelope) -> None:
        body = envelope.body
        cls = body.__class__
        if cls is OpReply:
            idx = self._idx_of[envelope.dst]
            key = idx * _CXID_SPAN + body.cxid
            issued = self.inflight.pop(key, None)
            if issued is None:
                self.unexpected_messages += 1
                return
            now = self.env.now
            if body.ok:
                self.ops_completed += 1
            else:
                self.ops_failed += 1
            if issued < 0.0:
                self.recorder.record("write", -issued, now + issued, body.ok)
            else:
                self.recorder.record("read", issued, now - issued, body.ok)
        elif cls is ConnectReply:
            idx = self._idx_of[envelope.dst]
            if self.session_ids[idx] is None:
                self.session_ids[idx] = body.session_id
                self.connected += 1
        else:
            # Watch / expiry / heartbeat traffic the stations don't use.
            self.unexpected_messages += 1


class _FleetFullEngine:
    """All run state for one full-stack fleet cell (built fresh per run)."""

    #: Client layer built per site. With :meth:`_start_driver`, the seam
    #: through which tests/reference_fleet.py substitutes its oracles.
    station_class = FleetStation

    def __init__(self, spec: FleetFullSpec):
        self.spec = spec
        self.sites = fleet_sites(spec.n_sites, spec.seed)
        # jitter_fraction=0.0 keeps the transport on its RNG-free fast
        # path: delays are per-pair constants.
        self.topology = build_fleet_topology(self.sites, seed=spec.seed)
        self.env = Environment()
        self.net = Network(self.env, self.topology)
        self.names = [site.name for site in self.sites]
        self.hub_site = self.names[HUB_INDEX]
        self.phase = [site.longitude / 360.0 for site in self.sites]
        self.rngs = [
            seeded_rng(spec.seed, f"fleet-full-site-{i:04d}")
            for i in range(spec.n_sites)
        ]
        self.offered = [0] * spec.n_sites

        # Shared immutable op records, one per key, site-major.
        self.key_paths: List[str] = []
        for name in self.names:
            for j in range(KEYS_PER_SITE):
                self.key_paths.append(f"/fleet/{name}/k{j:02d}")
        self.read_ops = [GetDataOp(path) for path in self.key_paths]
        write_data = b"w" * PAYLOAD_BYTES
        self.write_ops = [SetDataOp(path, write_data) for path in self.key_paths]

        self.deployment = self._build_deployment()
        self.stations: List[FleetStation] = []
        self._ticks = int(math.ceil(spec.duration_ms / spec.tick_ms))
        self._t0 = 0.0
        self._scan_cb = self._scan
        self.bootstrap_ms = 0.0
        #: Per-tick arrival mean at diurnal multiplier 1.0.
        self._base = (
            spec.site_ops_per_sec * spec.load_multiplier * spec.tick_ms / 1000.0
        )

    def _build_deployment(self):
        spec = self.spec
        if spec.system == "wankeeper":
            from repro.wankeeper.deployment import build_wankeeper_deployment

            # Key tokens start at their home site; structural parents
            # stay at the hub, where the bootstrap client creates them.
            tokens: Dict[str, str] = {"/": self.hub_site, "/fleet": self.hub_site}
            for name in self.names:
                tokens[f"/fleet/{name}"] = self.hub_site
            for index, path in enumerate(self.key_paths):
                tokens[path] = self.names[index // KEYS_PER_SITE]
            return build_wankeeper_deployment(
                self.env,
                self.net,
                self.topology,
                sites=self.names,
                l2_site=self.hub_site,
                voters_per_site=VOTERS_PER_SITE,
                initial_tokens=tokens,
                substrate=spec.substrate,
            )
        from repro.zk.deployment import build_zk_deployment

        if spec.substrate == "wpaxos":
            # WPaxos's natural shape: one proposing voter per site.
            return build_zk_deployment(
                self.env,
                self.net,
                self.topology,
                leader_site=self.hub_site,
                voting_sites=self.names,
                substrate="wpaxos",
            )
        return build_zk_deployment(
            self.env,
            self.net,
            self.topology,
            leader_site=self.hub_site,
            observer_sites=[n for n in self.names if n != self.hub_site],
            substrate="zab",
        )

    # -- arrival planning ----------------------------------------------------

    def _schedule_tick(self, tick_index: int) -> bool:
        """Draw every site's arrivals for one tick and schedule each op
        at its exact instant. Returns True if any site had arrivals.

        Draw and insertion order is (site, arrival) within the tick —
        identical whether called from the fast-forward scan or the
        per-tick generator of tests/reference_fleet.py, which is what
        makes the two produce bit-identical schedules.
        """
        spec = self.spec
        rel = tick_index * spec.tick_ms
        base = self._base
        rngs = self.rngs
        busy = False
        for i in range(spec.n_sites):
            rng = rngs[i]
            arrivals = poisson(rng, base * diurnal_factor(self.phase[i], rel))
            if arrivals <= 0:
                continue
            busy = True
            self._emit_arrivals(tick_index, i, arrivals, rng)
        return busy

    def _emit_arrivals(
        self, tick_index: int, site_index: int, arrivals: int, rng
    ) -> None:
        """Draw the per-arrival choices for one busy (tick, site) cell and
        schedule each op at its exact instant. Consumes ``rng`` in the
        same (sess, hotspot, key, write) order as the original inline
        loop, so factoring it out of :meth:`_schedule_tick` changes no
        schedule."""
        spec = self.spec
        self.offered[site_index] += arrivals
        rel = tick_index * spec.tick_ms
        t_tick = self._t0 + rel
        keys_per_site = KEYS_PER_SITE
        n_sites = spec.n_sites
        hot_base = (
            int((rel / DIURNAL_PERIOD_MS % 1.0) * n_sites) % n_sites
        ) * keys_per_site
        n_keys = n_sites * keys_per_site
        per_site = spec.sessions_per_site
        hotspot = HOTSPOT_FRACTION
        write_fraction = spec.write_fraction
        call_at = self.env.call_at
        spacing = spec.tick_ms / arrivals
        issue = self.stations[site_index]._issue_cb
        home_base = site_index * keys_per_site
        randrange = rng.randrange
        random = rng.random
        for k in range(arrivals):
            at = t_tick + (k + 0.5) * spacing
            sess = randrange(per_site)
            if random() < hotspot:
                key_index = hot_base + randrange(keys_per_site)
            else:
                key_index = home_base + randrange(keys_per_site)
            is_write = random() < write_fraction
            code = ((sess * n_keys + key_index) << 1) | (1 if is_write else 0)
            call_at(at, issue, code)

    def _scan(self, tick_index: int) -> None:
        """Idle-gap fast-forward: walk ticks inline, re-arming only after
        a busy tick. Quiescent stretches cost zero kernel events — the
        clock jumps straight to the next burst."""
        ticks = self._ticks
        schedule = self._schedule_tick
        t0 = self._t0
        tick_ms = self.spec.tick_ms
        call_at = self.env.call_at
        while tick_index < ticks:
            busy = schedule(tick_index)
            tick_index += 1
            if busy and tick_index < ticks:
                call_at(t0 + tick_index * tick_ms, self._scan_cb, tick_index)
                return

    def _start_driver(self) -> None:
        """Arm the scan at tick 0 of the driven window (``_t0`` is now)."""
        self.env.call_soon(self._scan_cb, 0)

    # -- run -----------------------------------------------------------------

    def _bootstrap(self):
        """Create the key tree through one real client at the hub."""
        client = self.deployment.client(
            self.hub_site,
            name="fleet-bootstrap",
            session_timeout_ms=SESSION_TIMEOUT_MS,
        )
        yield client.connect()
        yield client.create("/fleet", b"")
        for name in self.names:
            yield client.create(f"/fleet/{name}", b"")
        for path in self.key_paths:
            yield client.create(path, b"")

    def run(self) -> Dict[str, Any]:
        spec = self.spec
        env = self.env
        self.deployment.start()
        self.deployment.stabilize()
        boot_start = env.now
        env.run(until=env.process(self._bootstrap(), name="fleet-bootstrap"))
        self.bootstrap_ms = env.now - boot_start
        # Quantize the connect phase start so every later phase boundary
        # is a pure function of the spec.
        t_connect = 50.0 * math.ceil(env.now / 50.0)
        if t_connect > env.now:
            env.run(until=t_connect)
        for i in range(spec.n_sites):
            station = self.station_class(
                env, self.net, spec, i, self.names[i],
                self.deployment.server_at(self.names[i]).client_addr,
                self.read_ops, self.write_ops, self.key_paths,
            )
            self.stations.append(station)
            station.connect_from(t_connect)
        env.run(until=t_connect + CONNECT_WINDOW_MS + SETTLE_MS)
        connected = sum(station.connected for station in self.stations)
        if connected < spec.total_sessions:
            raise SimulationError(
                f"only {connected}/{spec.total_sessions} sessions connected"
            )
        self._t0 = env.now
        self._start_driver()
        env.run(until=self._t0 + self._ticks * spec.tick_ms + DRAIN_MS)
        return self.payload()

    # -- result payload ------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        spec = self.spec
        duration_s = self._ticks * spec.tick_ms / 1000.0
        offered = sum(self.offered)
        issued = sum(station.ops_issued for station in self.stations)
        completed = sum(station.ops_completed for station in self.stations)
        failed = sum(station.ops_failed for station in self.stations)
        merged = self.stations[0].recorder
        for station in self.stations[1:]:
            merged = merged.merged(station.recorder)

        def maybe(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return None

        servers = self.deployment.servers
        tokens_granted = sum(
            getattr(server, "tokens_granted", 0) for server in servers
        )
        per_site_completed = {
            self.names[i]: self.stations[i].ops_completed
            for i in range(spec.n_sites)
        }
        return {
            "system": spec.system,
            "substrate": spec.substrate,
            "n_sites": spec.n_sites,
            "sessions": sum(st.connected for st in self.stations),
            "offered_ops": offered,
            "issued_ops": issued,
            "completed_ops": completed,
            "failed_ops": failed,
            "in_flight_at_horizon": issued - completed - failed,
            "offered_ops_per_sec": round(offered / duration_s, 3),
            "throughput_ops_per_sec": round(completed / duration_s, 3),
            "reads_served": sum(s.reads_served for s in servers),
            "writes_accepted": sum(s.writes_accepted for s in servers),
            "commits_applied": sum(s.commits_applied for s in servers),
            "token_migrations": tokens_granted,
            "messages_sent": self.net.messages_sent,
            "bootstrap_ms": round(self.bootstrap_ms, 3),
            "read_p50_ms": maybe(merged.percentile_latency, 50, "read"),
            "read_p99_ms": maybe(merged.percentile_latency, 99, "read"),
            "write_p50_ms": maybe(merged.percentile_latency, 50, "write"),
            "write_p99_ms": maybe(merged.percentile_latency, 99, "write"),
            "write_mean_ms": maybe(merged.mean_latency, "write"),
            "unexpected_messages": sum(
                st.unexpected_messages for st in self.stations
            ),
            "not_connected_drops": sum(
                st.not_connected_drops for st in self.stations
            ),
            "per_site_completed": per_site_completed,
        }


def run_fleet_full(spec: FleetFullSpec) -> Dict[str, Any]:
    """Run one full-stack fleet cell to completion and return its payload."""
    return _FleetFullEngine(spec).run()
