"""The twin-world harness (``tests/twins.py``) has teeth.

Each differential leg built on it runs here with a one-line mutant on the
product side only, and the sentinel off, so that the harness alone must
catch it: the failure names the stream, the index and the sim time of the
first record on which the twins differ.
"""

import pytest

from repro.substrate import SUBSTRATES, SubstrateSpec
from repro.zab.peer import ZabPeer
from repro.zk import deployment as zk_deployment
from repro.zk.server import ZkServer

from tests import (
    test_at_most_once_reference,
    test_state_transfer_reference,
    test_zab_commit_path,
)
from tests.twins import first_divergence

pytestmark = pytest.mark.usefixtures("zab_reference", "zab_replay")


class NeverRetransmits(ZabPeer):
    """Mutant: a leader never re-sends a proposal whose ack is overdue."""

    def _retransmit_pending(self):
        pass


class RestartSkipsAnEntry(ZabPeer):
    """Mutant: a restarted replica resumes one entry past its applied point."""

    def restart(self):
        super().restart()
        self._cursor += 1


class AppliesADuplicate(ZkServer):
    """Mutant: the at-most-once table forgets a request before its commit."""

    def _commit_client_txn(self, zxid, txn):
        self.apply_counts.pop(txn.key, None)
        return super()._commit_client_txn(zxid, txn)


def zab_mutant(mutant):
    def patch(monkeypatch):
        monkeypatch.setitem(SUBSTRATES, "zab",
                            SubstrateSpec("zab", mutant, single_leader=True))
    return patch


def server_mutant(monkeypatch):
    monkeypatch.setattr(zk_deployment, "ZkServer", AppliesADuplicate)


def zab_commit_path(monkeypatch):
    (test_zab_commit_path
     .test_same_seeded_world_sends_commits_and_schedules_identically("zk", 1, True))


def state_transfer(monkeypatch):
    (test_state_transfer_reference
     .test_state_transfer_matches_replay_from_zero("zk", "lossy", monkeypatch))


def at_most_once(monkeypatch):
    (test_at_most_once_reference
     .test_one_table_matches_the_two_it_replaced("zk-zab", True, monkeypatch))


#: leg -> (its mutant, the stream it diverges on, the leg)
LEGS = {
    "zab-commit-path": (zab_mutant(NeverRetransmits), "sent", zab_commit_path),
    "state-transfer": (zab_mutant(RestartSkipsAnEntry), "sent", state_transfer),
    "at-most-once": (server_mutant, r"logs\[[^\]]+\]", at_most_once),
}


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_each_leg_names_where_a_product_mutant_diverges(leg, monkeypatch):
    monkeypatch.setenv("REPRO_SENTINEL", "0")
    mutate, stream, run = LEGS[leg]
    mutate(monkeypatch)
    with pytest.raises(AssertionError,
                       match=rf"^{stream}\[\d+\] at t=\d+(\.\d+)? ms:\n"):
        run(monkeypatch)


def test_first_divergence_names_the_stream_index_and_time():
    ours = [(1.0, "a"), (2.5, "b")]
    assert first_divergence("s", ours, list(ours)) is None
    assert first_divergence("s", ours, [(1.0, "a"), (2.5, "c")]).startswith(
        "s[1] at t=2.5 ms:\n  product   (2.5, 'b')\n  reference (2.5, 'c')"
    )
    assert first_divergence("s", ours[:1], ours).startswith(
        "s[1] at t=2.5 ms:\n  product   '<missing>'"
    )
    # Only what follows the cursor is compared.
    assert first_divergence("s", [(0.0, "x")] + ours[1:], ours, start=1) is None
