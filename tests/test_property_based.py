"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.wankeeper import (
    ConsecutiveAccessPolicy,
    HubTokenState,
    MarkovPredictor,
    SiteTokenState,
    token_key,
    token_keys,
)
from repro.workloads import HotspotChooser, UniformChooser, ZipfianChooser, percentile
from repro.zab import TxnLog, Zxid
from repro.zk import CreateOp, DataTree, DeleteOp, SetDataOp
from repro.zk.paths import basename, parent_of, validate_path

# -- strategies ---------------------------------------------------------------

path_component = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
    min_size=1,
    max_size=8,
)

znode_path = st.lists(path_component, min_size=1, max_size=4).map(
    lambda parts: "/" + "/".join(parts)
)


# -- paths ---------------------------------------------------------------------


@given(znode_path)
def test_valid_paths_roundtrip(path):
    assert validate_path(path) == path
    parent = parent_of(path)
    if parent == "/":
        assert path == "/" + basename(path)
    else:
        assert path == parent + "/" + basename(path)


@given(znode_path)
def test_token_key_idempotent(path):
    key = token_key(path)
    assert token_key(key) == key


@given(znode_path, st.integers(min_value=0, max_value=99))
def test_sequential_child_maps_to_parent_token(path, seq):
    child = f"{path}/item-{seq:010d}"
    assert token_key(child) == path


# -- zxids ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_zxid_pack_unpack_roundtrip(epoch, counter):
    zxid = Zxid(epoch, counter)
    assert Zxid.unpack(zxid.packed()) == zxid


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_zxid_order_matches_packed_order(pairs):
    zxids = [Zxid(e, c) for e, c in pairs]
    by_value = sorted(zxids)
    by_packed = sorted(zxids, key=lambda z: z.packed())
    assert by_value == by_packed


# -- txn log ---------------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_log_append_monotone_and_truncate(opens_epoch):
    log = TxnLog()
    appended = []
    last = Zxid(1, 0)
    for new_epoch in opens_epoch:
        # The log is contiguous: the tail's successor is the next counter
        # or the first entry of a later epoch.
        candidate = Zxid(last.epoch + 1, 1) if new_epoch else last.next()
        log.append(candidate, f"txn-{candidate}")
        appended.append(candidate)
        last = candidate
    assert log.last_zxid == appended[-1]
    # entries_after/truncate_after partition the log at any cut point.
    cut = appended[len(appended) // 2]
    after = [entry.zxid for entry in log.entries_after(cut)]
    log.truncate_after(cut)
    kept = [entry.zxid for entry in log]
    assert kept + after == appended


class _ModelLog:
    """What ``TxnLog`` must behave like: a plain sorted list, searched."""

    def __init__(self):
        self.items = []  # [(zxid, txn)]
        self.base = Zxid.ZERO  # the newest zxid dropped from the front

    def zxids(self):
        return [zxid for zxid, _txn in self.items]

    def last(self):
        return self.items[-1][0] if self.items else self.base

    def get(self, zxid):
        return next((txn for z, txn in self.items if z == zxid), None)

    def after(self, zxid):
        return [z for z in self.zxids() if z > zxid]

    def successors(self):
        """The zxids ``append`` must accept after the current tail."""
        last = self.last()
        return [last.next(), Zxid(last.epoch + 1, 1), Zxid(last.epoch + 3, 1)]


def _probe_zxids(rng, model):
    """Held zxids, their neighbours, and a few that cannot be held."""
    probes = [Zxid.ZERO, Zxid(99, 1), model.last().next()]
    for zxid in rng.sample(model.zxids(), min(4, len(model.items))):
        probes += [zxid, Zxid(zxid.epoch, zxid.counter + 50), Zxid(zxid.epoch, 0)]
    return probes


def test_txn_log_matches_a_sorted_list_model():
    """append / truncate_after / replace_all / drop_before / get /
    contains / entries_after / position_after and a cursor walk, across
    epoch changes, against a sorted-list model: positional lookup is an
    optimisation, not a behaviour."""
    for seed in range(60):
        rng = random.Random(seed)
        log, model = TxnLog(), _ModelLog()
        cursor = 0  # the way ZabPeer walks: index of the next entry
        applied = Zxid.ZERO
        for step in range(120):
            where = f"seed {seed} step {step}"
            action = rng.random()
            if action < 0.55 or not model.items:
                if model.items or model.base != Zxid.ZERO:
                    zxid = rng.choice(model.successors())
                else:
                    zxid = Zxid(rng.randint(1, 3), rng.randint(1, 5))
                log.append(zxid, f"t{step}")
                model.items.append((zxid, f"t{step}"))
            elif action < 0.65:
                # A hole, a repeat, an older epoch: refused, nothing changes.
                last = model.last()
                bad = rng.choice([
                    last, Zxid(last.epoch, last.counter + 2),
                    Zxid(last.epoch + 1, 2), Zxid(last.epoch + 1, 0),
                    Zxid(max(last.epoch - 1, 0), last.counter + 1),
                ])
                try:
                    log.append(bad, "bad")
                except ValueError:
                    pass
                else:
                    raise AssertionError(f"{where}: append took {bad} after {last}")
            elif action < 0.80:
                cut = rng.choice(_probe_zxids(rng, model))
                dropped = log.truncate_after(cut)
                assert [e.zxid for e in dropped] == model.after(cut), where
                model.items = [(z, t) for z, t in model.items if z <= cut]
                # What the peer does after TRUNC: re-seek from what it applied.
                applied = min(applied, model.last())
                cursor = log.position_after(applied)
            elif action < 0.84:
                # A snapshot: a contiguous log of its own, any first entry,
                # above a base (the zxid its state stands at) or from zero.
                source = TxnLog()
                first = zxid = Zxid(rng.randint(1, 4), rng.randint(2, 9))
                for index in range(rng.randint(0, 12)):
                    source.append(zxid, f"s{step}.{index}")
                    zxid = (
                        Zxid(zxid.epoch + 1, 1) if rng.random() < 0.3 else zxid.next()
                    )
                base = rng.choice([Zxid.ZERO, Zxid(first.epoch, first.counter - 1)])
                log.replace_all(list(source), base=base)
                model.items = [(e.zxid, e.txn) for e in source]
                model.base = base
                cursor, applied = 0, base
            elif action < 0.90:
                # Compaction: drop what the cursor has passed, some of it.
                if cursor:
                    drop = rng.randint(1, cursor)
                    log.drop_before(drop)
                    model.base = model.items[drop - 1][0]
                    del model.items[:drop]
                    cursor -= drop
                    assert log.base == model.base, where
            else:
                # Walk the cursor forward the way _apply_up_to does.
                target = rng.choice(_probe_zxids(rng, model))
                while cursor < len(log.entries) and log.entries[cursor].zxid <= target:
                    applied = log.entries[cursor].zxid
                    cursor += 1
                assert applied == max(
                    [z for z in model.zxids() if z <= max(target, applied)],
                    default=model.base,
                ), where
            assert [e.zxid for e in log] == model.zxids(), where
            assert len(log) == len(model.items), where
            assert log.last_zxid == model.last(), where
            assert cursor == len([z for z in model.zxids() if z <= applied]), where
            for probe in _probe_zxids(rng, model):
                held = model.get(probe)
                assert log.contains(probe) == (held is not None), (where, probe)
                entry = log.get(probe)
                assert (entry.txn if entry else None) == held, (where, probe)
                assert [e.zxid for e in log.entries_after(probe)] == model.after(
                    probe
                ), (where, probe)
                assert log.position_after(probe) == len(model.items) - len(
                    model.after(probe)
                ), (where, probe)


# -- data tree --------------------------------------------------------------------


@st.composite
def tree_ops(draw):
    """A random batch of ops over a small path universe."""
    universe = ["/a", "/b", "/a/x", "/a/y", "/b/z"]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["create", "set", "delete"]))
        path = draw(st.sampled_from(universe))
        if kind == "create":
            ops.append(CreateOp(path, draw(st.binary(max_size=4))))
        elif kind == "set":
            ops.append(SetDataOp(path, draw(st.binary(max_size=4))))
        else:
            ops.append(DeleteOp(path))
    return ops


@given(tree_ops())
@settings(max_examples=60)
def test_data_tree_determinism(ops):
    """Two trees applying the same ops in the same order stay identical."""
    t1, t2 = DataTree(), DataTree()
    for index, op in enumerate(ops, start=1):
        o1 = t1.apply(op, Zxid(1, index), "s")
        o2 = t2.apply(op, Zxid(1, index), "s")
        assert o1.ok == o2.ok
        assert type(o1.error) is type(o2.error)
    assert t1.fingerprint() == t2.fingerprint()


@given(tree_ops())
@settings(max_examples=60)
def test_data_tree_parent_child_invariants(ops):
    """Parents' child sets always match the node table."""
    tree = DataTree()
    for index, op in enumerate(ops, start=1):
        tree.apply(op, Zxid(1, index), "s")
    for path in tree.paths():
        node = tree.node(path)
        if path != "/":
            parent = tree.node(parent_of(path))
            assert parent is not None, f"orphan {path}"
            assert basename(path) in parent.children
        for child in node.children:
            child_path = f"{path}/{child}" if path != "/" else f"/{child}"
            assert child_path in tree, f"dangling child {child_path}"


@given(st.lists(st.binary(max_size=6), min_size=1, max_size=15))
def test_data_tree_version_counts_sets(datas):
    tree = DataTree()
    tree.apply(CreateOp("/v", b""), Zxid(1, 1), "s")
    for index, data in enumerate(datas, start=2):
        tree.apply(SetDataOp("/v", data), Zxid(1, index), "s")
    assert tree.node("/v").version == len(datas)
    assert tree.node("/v").data == datas[-1]


# -- token state ---------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["grant", "recall", "admit", "retire", "release"]),
            st.sampled_from(["/k1", "/k2", "/k3"]),
        ),
        max_size=40,
    )
)
def test_site_token_state_invariants(events):
    """inflight never negative; outgoing subset of owned; holds() implies
    owned and not outgoing."""
    state = SiteTokenState("ca")
    admitted = {}
    for kind, key in events:
        if kind == "grant":
            state.grant(key)
        elif kind == "recall":
            state.start_recall(key)
        elif kind == "admit":
            if state.holds(key):
                state.admit([key])
                admitted[key] = admitted.get(key, 0) + 1
        elif kind == "retire":
            if admitted.get(key, 0) > 0:
                state.retire([key])
                admitted[key] -= 1
        elif kind == "release":
            state.release(key)
            admitted.pop(key, None)
        for k, count in state.inflight.items():
            assert count > 0
        assert state.outgoing <= state.owned | state.outgoing
        for k in list(state.owned):
            if state.holds(k):
                assert k not in state.outgoing


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["grant", "return"]),
            st.sampled_from(["/k1", "/k2"]),
            st.sampled_from(["ca", "fr"]),
        ),
        max_size=30,
    )
)
def test_hub_token_state_single_owner(events):
    hub = HubTokenState()
    for kind, key, site in events:
        if kind == "grant":
            hub.grant(key, site)
        else:
            hub.accept_return(key)
        # Each key has at most one owning site.
        owners = [s for s in ("ca", "fr") if key in hub.held_by(s)]
        assert len(owners) <= 1


# -- policies --------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.sampled_from(["ca", "fr", "va"]), min_size=1, max_size=40),
)
def test_consecutive_policy_fires_exactly_at_r(r, accesses):
    """The policy returns True precisely on the r-th consecutive access."""
    policy = ConsecutiveAccessPolicy(r=r)
    streak = 0
    last = None
    for site in accesses:
        streak = streak + 1 if site == last else 1
        expected = streak >= r
        got = policy.observe_and_decide("/k", site)
        assert got == expected
        if expected:
            streak = 0
            last = None
        else:
            last = site


@given(st.lists(st.sampled_from(["ca", "fr"]), min_size=1, max_size=60))
def test_predictor_probabilities_normalized(accesses):
    predictor = MarkovPredictor(window=16)
    for site in accesses:
        predictor.observe("/k", site)
    for site in ("ca", "fr"):
        prediction = predictor.predict_next_site("/k", site)
        if prediction is not None:
            assert 0.0 < prediction[1] <= 1.0


# -- workload choosers --------------------------------------------------------------


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=10**6))
def test_choosers_stay_in_range(count, seed):
    rng = random.Random(seed)
    for chooser in (
        UniformChooser(count),
        ZipfianChooser(count),
        HotspotChooser(count, rotation=count // 3),
    ):
        for _ in range(20):
            assert 0 <= chooser.choose(rng) < count


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_bounded_by_extremes(values, p):
    ordered = sorted(values)
    result = percentile(ordered, p)
    assert ordered[0] <= result <= ordered[-1]


# -- kernel determinism ---------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=20))
def test_kernel_timeout_ordering(delays):
    env = Environment()
    fired = []

    def waiter(env, delay, index):
        yield env.timeout(delay)
        fired.append((env.now, index))

    for index, delay in enumerate(delays):
        env.process(waiter(env, delay, index))
    env.run()
    times = [t for t, _i in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
