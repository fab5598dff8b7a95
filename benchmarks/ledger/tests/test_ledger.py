"""The ledger's own tests (``pytest benchmarks/ledger/tests -q``).

Outside the tier-1 ``testpaths``: they guard the measuring instrument,
not the product.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from layers import LAYERS, OTHER, PACKAGE_LAYER, LayerMap, ProfileTable, package_dirs
from workloads import SIZES, WORKLOADS

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
REPRO = os.path.join(ROOT, "src", "repro")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def catalogue():
    return run.load_catalogue()


# -- the catalogue ------------------------------------------------------------


def test_every_package_has_a_layer():
    """A new package under src/repro must be placed, not land in `other`."""
    unplaced = [name for name in package_dirs(REPRO) if name not in PACKAGE_LAYER]
    assert not unplaced, f"add {unplaced} to layers.PACKAGE_LAYER"
    named = {layer for layer in PACKAGE_LAYER.values() if not layer.startswith("<")}
    assert named == set(LAYERS) | {OTHER}


def test_catalogue_names_and_counts(catalogue):
    workloads = [entry["name"] for entry in catalogue["workloads"]]
    end_to_end = [entry["name"] for entry in catalogue["end_to_end"]]
    per_layer = [entry["name"] for entry in catalogue["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(workloads + end_to_end + per_layer)) == len(
        workloads + end_to_end + per_layer
    )
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert workloads == list(WORKLOADS) and set(workloads) == set(SIZES)
    assert "setup_s" in end_to_end
    assert all(0 < entry["bound"] <= 0.25 for entry in catalogue["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in catalogue["workloads"])


# -- attribution --------------------------------------------------------------


def test_builtin_time_is_charged_to_the_calling_layer():
    layer_map = LayerMap(REPRO, "zab")
    kernel = (os.path.join(REPRO, "sim", "kernel.py"), 10, "run")
    peer = (os.path.join(REPRO, "zab", "peer.py"), 20, "on_ack")
    stdlib = ("/usr/lib/python3/random.py", 5, "randrange")
    builtin = ("~", 0, "<built-in method heappush>")
    table = ProfileTable()
    table.calls = {kernel: 1, peer: 4, stdlib: 2, builtin: 10}
    table.self_s = {kernel: 1.0, peer: 2.0, stdlib: 0.5, builtin: 1.0}
    table.edges = {
        peer: {kernel: (4, 2.0)},
        stdlib: {peer: (2, 0.5)},
        # 6 pushes from the kernel, 4 through random.py called by zab.
        builtin: {kernel: (6, 0.6), stdlib: (4, 0.4)},
    }
    split = table.by_layer(layer_map)
    assert split["sim"]["self_s"] == pytest.approx(1.6)
    assert split["zab"]["self_s"] == pytest.approx(2.9)
    assert split[OTHER]["self_s"] == 0.0
    assert sum(bucket["self_s"] for bucket in split.values()) == pytest.approx(
        table.total_self_s()
    )
    # Calls: own functions, plus direct calls into layerless code.
    assert split["sim"]["calls"] == 1 + 6
    assert split["zab"]["calls"] == 4 + 2
    assert split[OTHER]["calls"] == 4  # stdlib -> builtin


def test_profile_tables_subtract():
    key, caller = ("f.py", 1, "f"), ("g.py", 1, "g")
    full, setup = ProfileTable(), ProfileTable()
    full.calls, full.self_s, full.edges = {key: 10}, {key: 1.0}, {key: {caller: (10, 1.0)}}
    setup.calls, setup.self_s, setup.edges = {key: 4}, {key: 0.25}, {key: {caller: (4, 0.25)}}
    diff = full - setup
    assert diff.calls[key] == 6
    assert diff.self_s[key] == pytest.approx(0.75)
    assert diff.edges[key][caller] == (6, pytest.approx(0.75))


def test_substrate_folds_into_the_backend():
    path = os.path.join(REPRO, "substrate", "__init__.py")
    assert LayerMap(REPRO, "zab").of_path(path) == "zab"
    assert LayerMap(REPRO, "wpaxos").of_path(path) == "wpaxos"
    assert LayerMap(REPRO, "zab").of_module("repro.wpaxos.messages") == "wpaxos"
    assert LayerMap(REPRO, "zab").of_path(os.path.join(REPRO, "trace.py")) == OTHER
    assert LayerMap(REPRO, "zab").of_path("/usr/lib/python3/heapq.py") is None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_sum_to_the_total(workload):
    result = run.run_round(workload, 42, "tiny", "profile")
    total = result["profile_total_s"]
    attributed = sum(bucket["self_s"] for bucket in result["profile"].values())
    assert attributed == pytest.approx(total, rel=0.01)
    assert result["profile"][OTHER]["self_s"] < 0.05 * total
    assert not result["violations"]


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_simulated_results_ignore_the_hash_seed(workload):
    first = run.run_round(workload, 42, "tiny", "timed", hash_seed="0")
    second = run.run_round(workload, 42, "tiny", "timed", hash_seed="4242")
    assert run._simulated(first) == run._simulated(second)
    assert not first["violations"]


def test_slicing_a_fleet_cell_does_not_change_its_payload():
    """A timed pass has the cell's clock call the instrument back; the
    profile pass does not. Same simulated bytes either way."""
    timed = run.run_round("fleet_overload", 42, "tiny", "timed")
    plain = run.run_round("fleet_overload", 42, "tiny", "profile")
    assert timed["sim"] == plain["sim"]
    assert timed["timed_ops"] > 0


def test_calibration_never_imports_the_product():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import calibration; "
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]; "
        "sys.exit(1 if bad else 0)" % (LEDGER, os.path.join(ROOT, "src"))
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# -- the command --------------------------------------------------------------


def test_one_command_prints_every_declared_metric(catalogue):
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        completed = subprocess.run(
            [sys.executable, os.path.join(LEDGER, "run.py"), "--workload", "wk_contended",
             "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny"],
            stdout=subprocess.PIPE, check=True,
        )
        result = json.loads(completed.stdout.decode().strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [entry["name"] for entry in catalogue[declared]]
        for entry in catalogue[declared]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_refuses_to_run_without_the_product(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "wk_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
