"""No handler writes to a message it received.

A fan-out sends one body to all its recipients: Zab's Propose, Commit and
Ping, WPaxos's Accept and Learn, a resync request. Wire records are not
frozen (``repro.net.message.record``: a frozen ``__init__`` costs 4-5x per
message), so nothing but this test stops one recipient's handler from
changing what the others, or a duplicate delivery, will read. The fleet
stations are held to the same rule: nothing rewrites a request after it
is sent.
"""

import pytest

from repro.fleet.full import FleetFullSpec, run_fleet_full
from repro.net import Network

from tests.test_perf_golden import seeded_ycsb_run


def _send_log():
    """A tap that keeps every sent body with its repr at send time."""
    sent = []

    def on_send(envelope):
        sent.append((envelope.body, repr(envelope.body)))

    return sent, on_send


def _changed_after_send(sent):
    return [
        (at_send, repr(body)) for body, at_send in sent
        if repr(body) != at_send
    ]


@pytest.mark.parametrize("system", ["wpaxos", "wk"])
def test_every_sent_body_keeps_its_repr_to_the_end_of_the_run(system):
    sent, on_send = _send_log()
    seeded_ycsb_run(system, tap=on_send)
    assert len(sent) > 10000
    shared = len(sent) - len({id(body) for body, _ in sent})
    assert shared > 1000  # fan-outs do share one body
    changed = _changed_after_send(sent)
    assert not changed, changed[:3]


def test_fleet_bodies_keep_their_repr_to_the_end_of_the_run(monkeypatch):
    sent, on_send = _send_log()
    # run_fleet_full builds its own network: tap each one as it is built.
    original = Network.__init__

    def tapped(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.tap(on_send)

    monkeypatch.setattr(Network, "__init__", tapped)
    run_fleet_full(FleetFullSpec(
        n_sites=4, sessions_per_site=50, duration_ms=4000.0, seed=7,
    ))
    assert len(sent) > 4000
    changed = _changed_after_send(sent)
    assert not changed, changed[:3]
