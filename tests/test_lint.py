"""The iteration-order lint: unit checks plus the repo-wide gate.

PR 3 fixed a class of bugs where iterating a raw ``set`` leaked hash
order into message order, breaking run-to-run determinism under varying
``PYTHONHASHSEED``. ``tools/lint_iteration_order.py`` keeps that class
extinct; the gate test here fails the suite if a new site appears.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_iteration_order import lint_file, lint_paths  # noqa: E402


def _lint_source(tmp_path, source: str):
    file = tmp_path / "sample.py"
    file.write_text(source)
    return lint_file(file)


def test_flags_direct_set_iteration(tmp_path):
    findings = _lint_source(
        tmp_path,
        "pending = set()\n"
        "for item in pending:\n"
        "    print(item)\n",
    )
    assert [rule for _line, rule, _msg in findings] == ["set-iteration"]
    assert findings[0][0] == 2


def test_flags_set_literal_and_comprehension(tmp_path):
    findings = _lint_source(
        tmp_path,
        "for item in {1, 2, 3}:\n"
        "    print(item)\n"
        "names = [str(x) for x in {4, 5}]\n",
    )
    assert len(findings) == 2
    assert all(rule == "set-iteration" for _line, rule, _msg in findings)


def test_flags_set_typed_attribute(tmp_path):
    findings = _lint_source(
        tmp_path,
        "class Broker:\n"
        "    def __init__(self):\n"
        "        self._dirty = set()\n"
        "    def flush(self):\n"
        "        for key in self._dirty:\n"
        "            self.emit(key)\n",
    )
    assert [rule for _line, rule, _msg in findings] == ["set-iteration"]


def test_flags_annotated_set_argument(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from typing import Set\n"
        "def fan_out(keys: Set[str]):\n"
        "    for key in keys:\n"
        "        yield key\n",
    )
    assert [rule for _line, rule, _msg in findings] == ["set-iteration"]


def test_sorted_wrapper_passes(tmp_path):
    findings = _lint_source(
        tmp_path,
        "pending = set()\n"
        "for item in sorted(pending):\n"
        "    print(item)\n",
    )
    assert findings == []


def test_aggregators_are_order_insensitive(tmp_path):
    findings = _lint_source(
        tmp_path,
        "live = set()\n"
        "count = sum(1 for x in live)\n"
        "good = all(x > 0 for x in live)\n"
        "frozen = frozenset(x for x in live)\n",
    )
    assert findings == []


def test_suppression_comment(tmp_path):
    findings = _lint_source(
        tmp_path,
        "pending = set()\n"
        "for item in pending:  # lint: iteration-order-ok\n"
        "    print(item)\n",
    )
    assert findings == []


def test_flags_dict_values_fanout(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def route(self):\n"
        "    for peer in self.peers.values():\n"
        "        self.net.send(peer)\n",
    )
    assert [rule for _line, rule, _msg in findings] == ["dict-order-fanout"]


def test_flags_dict_values_first_match_return(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def find(self, client):\n"
        "    for session in self.sessions.values():\n"
        "        if session.client == client:\n"
        "            return session\n",
    )
    assert [rule for _line, rule, _msg in findings] == ["dict-order-fanout"]


def test_dict_values_aggregation_passes(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def count(self):\n"
        "    total = 0\n"
        "    for session in self.sessions.values():\n"
        "        total += 1\n"
        "    return total\n",
    )
    assert findings == []


def test_repo_is_clean():
    """The gate: no iteration-order findings anywhere under src/repro."""
    reports = lint_paths([REPO_ROOT / "src" / "repro"])
    assert reports == [], "\n".join(reports)


def test_kernel_contract_is_read_where_it_is_written():
    """The kernel's private fields belong to ``sim/`` and to the transport
    that inlines its scheduling lines (``sim/kernel.py``, "the contract");
    everything else reads ``env.now`` and calls methods. And the machinery
    that contract replaced stays gone: the ``_now`` slot, pooled ``sleep``."""
    src = REPO_ROOT / "src" / "repro"
    private = re.compile(r"env\._\w+")
    retired = re.compile(r"\._now\b|(?<!time)\.sleep\(|_timeout_pool|_poolable")
    found = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        inlines = name.startswith("sim/") or name == "net/transport.py"
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if retired.search(line) or (not inlines and private.search(line)):
                found.append(f"{name}:{number}: {line.strip()}")
    assert found == [], "\n".join(found)


def _src_lines_matching(pattern):
    """Every line under ``src/repro`` that ``pattern`` matches, as
    ``file:line: text``."""
    src = REPO_ROOT / "src" / "repro"
    return [
        f"{path.relative_to(src).as_posix()}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_the_replay_hooks_and_token_history_stay_retired():
    """One restart rule: a replica keeps its state and moves below the log
    window by state transfer, so no product code wires a replay-from-zero
    hook (the replaying oracles under ``tests/`` carry their own), and the
    trace's ``token-grant`` / ``token-accept`` events are the one record of
    token ownership."""
    retired = re.compile(
        r"on_reset|_on_tree_reset|on_peer_reset|on_object_reset"
        r"|on_replica_reset|tree-reset|token_history"
    )
    found = _src_lines_matching(retired)
    assert found == [], "\n".join(found)


def test_the_fleet_queueing_model_stays_retired():
    """One fleet driver: every fleet question runs the open-loop driver
    against real servers (``repro.fleet.full``). The queueing model that
    stood in for them, its spec, its entry point and its cell stay gone."""
    retired = re.compile(
        r"repro\.fleet\.engine|FleetSpec\b|\brun_fleet\(|\bcell_fleet\b"
    )
    found = _src_lines_matching(retired)
    assert found == [], "\n".join(found)


def test_the_latency_sketch_and_profile_rollup_stay_retired():
    """One latency recorder and one layer map: every cell, fleet stations
    included, records every sample in ``LatencyRecorder``'s columns, and
    per-layer shares come from the ledger's traced set, not from a second
    bucketing in ``repro profile``."""
    retired = re.compile(
        r"mode=\"sketch\"|reservoir_size|_reservoir_rng|RESERVOIR_SIZE"
        r"|module_group|protocol_over_substrate"
    )
    found = _src_lines_matching(retired)
    assert found == [], "\n".join(found)


def test_the_fuzz_mutation_loop_and_adversarial_actors_stay_retired():
    """The fuzzer generates and judges: a campaign runs one generated case
    per index, with no coverage map, no mutation and no rounds. The nemesis
    injects only environmental faults: no site leader claims a token or
    serves a lease it may not."""
    retired = re.compile(
        r"repro\.fuzz\.coverage|CoverageMap|\bmutate\(|StaleReads"
        r"|token-usurper|stale-leader|--rounds|--no-adversarial"
    )
    found = _src_lines_matching(retired)
    assert found == [], "\n".join(found)


def test_one_soak_driver():
    """One soak harness: the soak cell and the fuzz case build their world
    and nemesis and hand them to ``repro.soak.run_soak``, which alone
    opens the actors' retrying sessions."""
    found = [
        line
        for line in _src_lines_matching(re.compile(r"connect_retrying\("))
        if not line.startswith(("zk/client.py:", "soak.py:"))
    ]
    assert found == [], "\n".join(found)


def test_one_digest_import():
    """One SHA-256 import site: every product digest comes from
    ``repro.sim.rng.sha256``, which imports ``hashlib`` (and with it
    OpenSSL's libcrypto) only where CPython has no built-in SHA-256."""
    found = _src_lines_matching(re.compile(r"^\s*(import|from) hashlib\b"))
    assert [line.partition(":")[0] for line in found] == ["sim/rng.py"], (
        "\n".join(found)
    )


def test_every_fleet_cell_runs_the_real_stack():
    """Both sizes of the ``fleet`` suite are ``fleet_full`` cells, and the
    load sweep's 1x row is the site sweep's anchor cell, so the runner
    runs it once."""
    from repro.runner.suites import SUITES, build_suite

    for small in (True, False):
        assert {sc.cell for sc in build_suite("fleet", small, 42)} == {
            "fleet_full"
        }
        grid = SUITES["fleet"].grid(small, 42)
        anchor = 8 if small else 20
        assert grid["load", 1.0].digest() == grid["sites", anchor].digest()


#: Every settable value of the config surfaces: the init fields of five
#: dataclasses and the defaulted parameters of three builders. A value no
#: product caller sets is a constant, so growing this table is a
#: deliberate edit, made together with the caller that needs the option.
OPTION_SURFACE = {
    "FleetFullSpec": (
        "n_sites", "sessions_per_site", "duration_ms", "site_ops_per_sec",
        "load_multiplier", "write_fraction", "system", "substrate", "seed",
    ),
    "EnsembleConfig": ("voters", "observers", "processing_delay_ms"),
    "WanConfig": (
        "sites", "l2_site", "hub_server_addrs", "policy_factory",
        "initial_tokens", "read_mode", "read_lease_ms", "enable_l2_failover",
        "site_server_addrs", "substrate",
    ),
    "YcsbSpec": (
        "record_count", "operation_count", "write_fraction", "table",
        "key_prefix",
    ),
    "NemesisConfig": (
        "interval_ms", "crash_probability", "partition_probability",
        "flaky_link_probability", "oneway_partition_probability",
        "gray_degrade_probability", "repair_after_ms",
        "max_active_partitions", "max_active_degradations",
    ),
    "build_zk_deployment": (
        "leader_site", "voting_sites", "observer_sites", "substrate",
    ),
    "build_wankeeper_deployment": (
        "sites", "l2_site", "voters_per_site", "policy_factory",
        "initial_tokens", "processing_delay_ms", "read_mode", "read_lease_ms",
        "enable_l2_failover", "substrate",
    ),
    "build_world": ("seed", "initial_tokens", "policy_factory", "read_mode"),
}


def test_the_option_surface_stays_pinned():
    """The timing, record shape, fleet driver and site shape the paper's
    evaluation fixes are constants; tests that need another value patch
    the constant. Only the values some product caller sets stay options."""
    import dataclasses
    import inspect

    from repro.experiments.common import build_world
    from repro.fleet import FleetFullSpec
    from repro.nemesis import NemesisConfig
    from repro.wankeeper import build_wankeeper_deployment
    from repro.wankeeper.server import WanConfig
    from repro.workloads import YcsbSpec
    from repro.zab import EnsembleConfig
    from repro.zk import build_zk_deployment

    found = {
        cls.__name__: tuple(f.name for f in dataclasses.fields(cls) if f.init)
        for cls in (FleetFullSpec, EnsembleConfig, WanConfig, YcsbSpec,
                    NemesisConfig)
    }
    for builder in (build_zk_deployment, build_wankeeper_deployment, build_world):
        found[builder.__name__] = tuple(
            name
            for name, param in inspect.signature(builder).parameters.items()
            if param.default is not param.empty
        )
    assert found == OPTION_SURFACE
    assert sum(map(len, OPTION_SURFACE.values())) == 54


def test_no_source_file_over_a_thousand_lines():
    """ROADMAP item 5's size exit: a file this long is several roles in one
    namespace (``wankeeper/server.py`` was 1 558 before it was split by
    role). Split by responsibility; do not reformat to fit."""
    src = REPO_ROOT / "src" / "repro"
    long_files = {
        path.relative_to(src).as_posix(): lines
        for path in sorted(src.rglob("*.py"))
        if (lines := len(path.read_text().splitlines())) > 1000
    }
    assert long_files == {}
