"""No handler writes to a message it received.

A fan-out sends one body to all its recipients: Zab's Propose, Commit and
Ping, WPaxos's Accept and Learn, a resync request. Wire records are not
frozen (``repro.net.message.record``: a frozen ``__init__`` costs 4-5x per
message), so nothing but this test stops one recipient's handler from
changing what the others, or a duplicate delivery, will read.
"""

import pytest

from tests.test_perf_golden import seeded_ycsb_run


@pytest.mark.parametrize("system", ["wpaxos", "wk"])
def test_every_sent_body_keeps_its_repr_to_the_end_of_the_run(system):
    sent = []

    def on_send(envelope):
        sent.append((envelope.body, repr(envelope.body)))

    seeded_ycsb_run(system, tap=on_send)
    assert len(sent) > 10000
    shared = len(sent) - len({id(body) for body, _ in sent})
    assert shared > 1000  # fan-outs do share one body
    changed = [
        (at_send, repr(body)) for body, at_send in sent
        if repr(body) != at_send
    ]
    assert not changed, changed[:3]
