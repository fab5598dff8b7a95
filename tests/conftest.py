"""Test-wide defaults.

The invariant sentinel (``repro.invariants``) is opt-in at runtime so the
hot bench path stays untouched, but every test run gets it for free: any
single-token-ownership, double-apply, zxid-monotonicity, or reply-cache
violation fails the test that produced it, with the trace tail attached.

Setting ``REPRO_SENTINEL=0`` in the environment turns it back off (the
``setdefault`` below never overrides an explicit choice).
"""

import os

import pytest

os.environ.setdefault("REPRO_SENTINEL", "1")


@pytest.fixture
def zab_reference():
    """Register the pre-PR-18 Zab peer (``tests/reference_zab.py``) as
    substrate ``"zab-reference"`` for one test: the product never knows
    the name."""
    from repro.substrate import SUBSTRATES
    from tests import reference_zab

    reference_zab.register()
    yield reference_zab
    del SUBSTRATES["zab-reference"]


@pytest.fixture
def zab_replay():
    """Register the product Zab peer with its replay-from-zero restart and
    whole-log SNAP (``tests/reference_replay.py``) as substrate
    ``"zab-replay"`` for one test."""
    from repro.substrate import SUBSTRATES
    from tests import reference_replay

    reference_replay.register()
    yield reference_replay
    del SUBSTRATES["zab-replay"]


@pytest.fixture
def wpaxos_replay():
    """Register the product WPaxos peer with its replay-from-zero restart
    and never-compacted chosen log (``tests/reference_replay.py``) as
    substrate ``"wpaxos-replay"`` for one test."""
    from repro.substrate import SUBSTRATES
    from tests import reference_replay

    reference_replay.register_wpaxos()
    yield reference_replay
    del SUBSTRATES["wpaxos-replay"]
