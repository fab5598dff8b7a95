"""Unit tests for WanKeeper token state, policies, and prediction."""

import pytest

from repro.wankeeper import (
    AlwaysMigratePolicy,
    ConsecutiveAccessPolicy,
    HubTokenState,
    MarkovPolicy,
    MarkovPredictor,
    NeverMigratePolicy,
    SiteTokenState,
    token_key,
    token_keys,
)
from repro.zk.ops import (
    CreateOp,
    DeleteOp,
    MultiOp,
    SetDataOp,
    SyncOp,
)


# -- token keys -------------------------------------------------------------


def test_plain_path_is_its_own_token():
    assert token_key("/records/user42") == "/records/user42"


def test_sequential_path_uses_parent_bulk_token():
    assert token_key("/locks/lock-0000000007") == "/locks"


def test_root_is_its_own_token():
    assert token_key("/") == "/"


def test_create_token_keys():
    assert token_keys(CreateOp("/a/b")) == {"/a/b"}
    assert token_keys(CreateOp("/locks/l-", sequential=True)) == {"/locks"}


def test_set_and_delete_token_keys():
    assert token_keys(SetDataOp("/x", b"")) == {"/x"}
    assert token_keys(DeleteOp("/x")) == {"/x"}
    assert token_keys(DeleteOp("/q/n-0000000003")) == {"/q"}


def test_multi_token_keys_union():
    op = MultiOp((CreateOp("/a"), SetDataOp("/b", b""), DeleteOp("/c")))
    assert token_keys(op) == {"/a", "/b", "/c"}


def test_sync_needs_no_tokens():
    assert token_keys(SyncOp()) == set()


# -- site token state ---------------------------------------------------------


def test_site_holds_after_grant():
    state = SiteTokenState("ca")
    assert not state.holds("/x")
    state.grant("/x")
    assert state.holds("/x")
    assert state.holds_all(["/x"])


def test_recall_with_no_inflight_is_immediate():
    state = SiteTokenState("ca")
    state.grant("/x")
    assert state.start_recall("/x") is True
    assert not state.holds("/x")  # outgoing blocks new admissions


def test_recall_waits_for_inflight():
    state = SiteTokenState("ca")
    state.grant("/x")
    state.admit(["/x"])
    assert state.start_recall("/x") is False
    ready = state.retire(["/x"])
    assert ready == {"/x"}


def test_retire_only_releases_drained_outgoing():
    state = SiteTokenState("ca")
    state.grant("/x")
    state.admit(["/x"])
    state.admit(["/x"])
    state.start_recall("/x")
    assert state.retire(["/x"]) == set()  # one still inflight
    assert state.retire(["/x"]) == {"/x"}


def test_release_clears_everything():
    state = SiteTokenState("ca")
    state.grant("/x")
    state.admit(["/x"])
    state.release("/x")
    assert not state.holds("/x")
    assert state.inflight == {}


def test_recall_of_unowned_key():
    state = SiteTokenState("ca")
    assert state.start_recall("/ghost") is False


# -- hub token state ----------------------------------------------------------


def test_hub_tracks_locations():
    hub = HubTokenState()
    assert hub.at_hub("/x")
    hub.grant("/x", "ca")
    assert hub.where("/x") == "ca"
    assert hub.held_by("ca") == {"/x"}
    assert len(hub.location) == 1
    hub.accept_return("/x")
    assert hub.at_hub("/x")


# -- migration policies ---------------------------------------------------------


def test_consecutive_policy_r2():
    policy = ConsecutiveAccessPolicy(r=2)
    assert policy.observe_and_decide("/x", "ca") is False
    assert policy.observe_and_decide("/x", "ca") is True


def test_consecutive_policy_resets_on_site_change():
    policy = ConsecutiveAccessPolicy(r=2)
    policy.observe_and_decide("/x", "ca")
    assert policy.observe_and_decide("/x", "fr") is False
    assert policy.observe_and_decide("/x", "fr") is True


def test_consecutive_policy_r1_migrates_immediately():
    policy = ConsecutiveAccessPolicy(r=1)
    assert policy.observe_and_decide("/x", "ca") is True


def test_consecutive_policy_rejects_bad_r():
    with pytest.raises(ValueError):
        ConsecutiveAccessPolicy(r=0)


def test_consecutive_policy_forget():
    policy = ConsecutiveAccessPolicy(r=3)
    policy.observe_and_decide("/x", "ca")
    policy.observe_and_decide("/x", "ca")
    policy.forget("/x")
    assert policy.observe_and_decide("/x", "ca") is False


def test_never_and_always_policies():
    never = NeverMigratePolicy()
    always = AlwaysMigratePolicy()
    for _ in range(5):
        assert never.observe_and_decide("/x", "ca") is False
        assert always.observe_and_decide("/x", "ca") is True


def test_high_r_policy_keys_independent():
    policy = ConsecutiveAccessPolicy(r=2)
    policy.observe_and_decide("/x", "ca")
    assert policy.observe_and_decide("/y", "ca") is False


# -- Markov predictor -----------------------------------------------------------


def test_predictor_learns_self_transition():
    predictor = MarkovPredictor(window=32)
    for _ in range(10):
        predictor.observe("/x", "ca")
    prediction = predictor.predict_next_site("/x", "ca")
    assert prediction is not None
    site, probability = prediction
    assert site == "ca"
    assert probability == 1.0


def test_predictor_learns_alternation():
    predictor = MarkovPredictor(window=64)
    for _ in range(10):
        predictor.observe("/x", "ca")
        predictor.observe("/x", "fr")
    prediction = predictor.predict_next_site("/x", "ca")
    assert prediction is not None
    assert prediction[0] == "fr"


def test_predictor_no_evidence_returns_none():
    predictor = MarkovPredictor()
    assert predictor.predict_next_site("/unknown", "ca") is None


def test_predictor_window_slides():
    predictor = MarkovPredictor(window=4)
    for _ in range(10):
        predictor.observe("/x", "ca")
    for _ in range(10):
        predictor.observe("/x", "fr")
    # Old ca->ca transitions have slid out.
    assert predictor.transition_probability(("/x", "ca"), ("/x", "ca")) <= 0.5


def test_predictor_rejects_tiny_window():
    with pytest.raises(ValueError):
        MarkovPredictor(window=1)


def test_markov_policy_proactive_migration():
    policy = MarkovPolicy(r=3, threshold=0.6)
    # Teach the model that ca accesses repeat.
    for _ in range(6):
        policy.predictor.observe("/x", "ca")
    # A single access now migrates proactively (r=3 not yet reached).
    assert policy.observe_and_decide("/x", "ca") is True


def test_markov_policy_falls_back_to_streak():
    policy = MarkovPolicy(r=2, threshold=0.99)
    assert policy.observe_and_decide("/y", "fr") is False
    assert policy.observe_and_decide("/y", "fr") is True  # streak rule
