"""The structured trace layer: ring buffer, JSONL roundtrip, divergence."""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.trace import (
    TraceBuffer,
    first_divergence,
    install_trace,
    load_jsonl,
    render_event,
)
from repro.wankeeper import build_wankeeper_deployment

from tests.support import fresh_world, plain_zk, run_app


def _fill(buffer, count):
    for index in range(count):
        buffer.emit(float(index), "kernel", "tick", f"n{index}", {"i": index})


def test_ring_buffer_keeps_newest():
    buffer = TraceBuffer(capacity=4)
    _fill(buffer, 10)
    events = buffer.events()
    assert len(events) == 4
    assert buffer.total_emitted == 10
    # Oldest-first within the retained window, newest last.
    assert [event[0] for event in events] == [7, 8, 9, 10]


def test_tail_is_oldest_first():
    buffer = TraceBuffer(capacity=8)
    _fill(buffer, 5)
    tail = buffer.tail(3)
    assert [event[0] for event in tail] == [3, 4, 5]
    assert len(buffer.tail(100)) == 5


def test_clear_resets_window_not_seq():
    buffer = TraceBuffer(capacity=8)
    _fill(buffer, 3)
    buffer.clear()
    assert buffer.events() == []
    buffer.emit(9.0, "net", "drop", "net")
    assert buffer.events()[0][0] == 4  # sequence keeps counting


def test_render_event_mentions_fields():
    buffer = TraceBuffer()
    buffer.emit(12.5, "wan", "token-grant", "hub", {"key": "/k"})
    line = render_event(buffer.events()[0])
    assert "t=12.500" in line
    assert "[wan/token-grant]" in line
    assert "hub" in line
    assert "key='/k'" in line or "key=/k" in line


def test_jsonl_roundtrip(tmp_path):
    buffer = TraceBuffer(capacity=16)
    _fill(buffer, 6)
    path = tmp_path / "trace.jsonl"
    written = buffer.dump(str(path))
    assert written == 6
    loaded = load_jsonl(str(path))
    assert len(loaded) == 6
    assert loaded[0]["cat"] == "kernel"
    assert loaded[0]["kind"] == "tick"
    assert loaded[-1]["detail"] == {"i": 5}


def test_first_divergence(tmp_path):
    a = TraceBuffer(capacity=16)
    b = TraceBuffer(capacity=16)
    _fill(a, 4)
    _fill(b, 4)
    b.emit(99.0, "net", "drop", "net")
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.dump(str(path_a))
    b.dump(str(path_b))
    events_a = load_jsonl(str(path_a))
    events_b = load_jsonl(str(path_b))
    index, event_a, event_b = first_divergence(events_a, events_b)
    assert index == 4
    assert event_a is None  # a ended
    assert event_b["kind"] == "drop"


def test_first_divergence_ignores_seq():
    events_a = [{"seq": 1, "t": 0.0, "cat": "zk", "kind": "apply", "node": "x"}]
    events_b = [{"seq": 7, "t": 0.0, "cat": "zk", "kind": "apply", "node": "x"}]
    assert first_divergence(events_a, events_b) is None


def test_install_trace_wires_deployment_and_captures_workload():
    env, topo, net = fresh_world(seed=5)
    deployment = plain_zk(env, net, topo)
    trace = install_trace(deployment, TraceBuffer(capacity=4096))
    assert env.trace is trace
    assert net.trace is trace
    for server in deployment.servers:
        assert server._trace is trace
        assert server.peer._trace is trace

    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/traced", b"v")
        yield client.close()
        return True

    assert run_app(env, app()) is True
    kinds = {(event[2], event[3]) for event in trace.events()}
    assert ("zk", "session-create") in kinds
    assert ("zk", "apply") in kinds
    assert ("zk", "session-close") in kinds


def test_net_drop_and_fault_transitions_traced():
    env, topo, net = fresh_world(seed=5)
    deployment = plain_zk(env, net, topo)
    trace = install_trace(deployment, TraceBuffer(capacity=4096))
    victim = deployment.servers[-1]
    net.crash(victim.client_addr)
    net.crash(victim.peer.addr)
    env.run(until=env.now + 2000.0)
    net.restart(victim.client_addr)
    net.restart(victim.peer.addr)
    env.run(until=env.now + 500.0)
    kinds = {(event[1], event[2], event[3]) for event in trace.events()}
    cats_kinds = {(cat, kind) for _t, cat, kind in kinds}
    assert ("net", "crash") in cats_kinds
    assert ("net", "restart") in cats_kinds
    assert ("net", "drop") in cats_kinds


def _token_moves(trace, server):
    """``(time, key, owner)`` for each ``token-grant`` / ``token-accept``
    event ``server`` emitted; owner ``None`` is a return to the hub."""
    moves = []
    for _seq, t, cat, kind, node, detail in trace.events():
        if cat != "wan" or node != server.name:
            continue
        if kind == "token-grant":
            moves.append((t, detail["key"], detail["site"]))
        elif kind == "token-accept":
            moves.extend((t, key, None) for key in detail["keys"])
    return moves


def _traced_wankeeper():
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    trace = install_trace(deployment)
    deployment.start()
    deployment.stabilize()
    return env, deployment, trace


def test_token_events_record_migration_and_return():
    env, deployment, trace = _traced_wankeeper()
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/t", b"")
        yield ca.set_data("/t", b"1")   # grant to CA
        yield env.timeout(300.0)
        yield fr.set_data("/t", b"2")   # recall to hub
        yield env.timeout(2000.0)
        return True

    run_app(env, app())
    moves = [move for move in _token_moves(trace, deployment.hub_leader)
             if move[1] == "/t"]
    owners = [owner for _t, _k, owner in moves]
    assert owners[0] == CALIFORNIA
    assert None in owners  # returned to the hub after the recall
    times = [t for t, _k, _o in moves]
    assert times == sorted(times)


def test_the_replicas_of_a_site_emit_the_same_token_events():
    """Each replica emits the grants and returns it applies, so in a
    fault-free run the three replicas of a site list the same movements
    (the times differ by when each applied)."""
    env, deployment, trace = _traced_wankeeper()
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/s", b"")
        for _round in range(2):
            yield ca.set_data("/s", b"ca")
            yield fr.set_data("/s", b"fr")
        yield env.timeout(2000.0)
        return True

    run_app(env, app())
    for site in (VIRGINIA, CALIFORNIA, FRANKFURT):
        replicas = deployment.by_site[site]
        assert len(replicas) == 3
        moves = [
            [(key, owner) for _t, key, owner in _token_moves(trace, server)]
            for server in replicas
        ]
        assert moves[0], site
        assert moves[1:] == [moves[0], moves[0]], site
