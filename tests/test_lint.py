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


def test_the_replay_hooks_and_token_history_stay_retired():
    """One restart rule: a replica keeps its state and moves below the log
    window by state transfer, so no product code wires a replay-from-zero
    hook (the replaying oracles under ``tests/`` carry their own), and the
    trace's ``token-grant`` / ``token-accept`` events are the one record of
    token ownership."""
    src = REPO_ROOT / "src" / "repro"
    retired = re.compile(
        r"on_reset|_on_tree_reset|on_peer_reset|on_object_reset"
        r"|on_replica_reset|tree-reset|token_history"
    )
    found = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if retired.search(line):
                found.append(f"{name}:{number}: {line.strip()}")
    assert found == [], "\n".join(found)


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
