"""Content-addressed result cache: keying, invalidation, clearing.

The cache key is ``sha256(code_digest : scenario_digest)`` — results are
reused only while both the scenario spec and the ``repro`` source tree
are unchanged. These tests pin hit/miss accounting, code-digest
invalidation, corruption tolerance, and ``repro cache stats|clear``.
"""

import json

from repro.runner import ResultCache, Scenario, code_digest, execute


def _echo(value: int) -> Scenario:
    return Scenario.make("debug_echo", {"value": value, "sleep_s": 0.0})


def test_second_run_hits_first_run_misses(tmp_path):
    root = str(tmp_path / "cache")
    first = execute([_echo(1), _echo(2)], jobs=1, cache=ResultCache(root))
    assert first.cache_hits == 0
    assert first.cache_misses == 2
    assert first.executed == 2

    second = execute([_echo(1), _echo(2)], jobs=1, cache=ResultCache(root))
    assert second.cache_hits == 2
    assert second.cache_misses == 0
    assert second.executed == 0
    assert first.results == second.results


def test_code_digest_change_invalidates(tmp_path):
    root = str(tmp_path / "cache")
    execute([_echo(3)], jobs=1, cache=ResultCache(root))
    # Same scenario under a different code digest: miss, not a stale hit.
    other = execute([_echo(3)], jobs=1, cache=ResultCache(root, code="f" * 64))
    assert other.cache_hits == 0
    assert other.executed == 1
    # Original code digest still hits its own entry.
    again = execute([_echo(3)], jobs=1, cache=ResultCache(root))
    assert again.cache_hits == 1


def test_untouched_cells_hit_while_new_cells_run(tmp_path):
    root = str(tmp_path / "cache")
    execute([_echo(1)], jobs=1, cache=ResultCache(root))
    mixed = execute([_echo(1), _echo(2)], jobs=1, cache=ResultCache(root))
    assert mixed.cache_hits == 1
    assert mixed.cache_misses == 1
    assert mixed.executed == 1


def test_clear_empties_cache(tmp_path):
    root = str(tmp_path / "cache")
    cache = ResultCache(root)
    execute([_echo(1), _echo(2)], jobs=1, cache=cache)
    assert cache.stats()["entries"] == 2
    # What a writer killed mid-put leaves behind: swept, not counted.
    stray = tmp_path / "cache" / "ab" / "abcdef.dead-writer.tmp"
    # Keys hash the source tree, so an entry may already live under "ab".
    stray.parent.mkdir(exist_ok=True)
    stray.write_text('{"half": ')
    removed = cache.clear()
    assert removed == 2
    assert cache.stats()["entries"] == 0
    assert not stray.exists()
    cold = execute([_echo(1)], jobs=1, cache=ResultCache(root))
    assert cold.cache_hits == 0


def test_corrupt_entry_is_treated_as_miss(tmp_path):
    root = str(tmp_path / "cache")
    cache = ResultCache(root)
    scenario = _echo(9)
    execute([scenario], jobs=1, cache=cache)
    path = cache._path(cache.key(scenario))
    # Cache files are outside input: truncated JSON, well-formed JSON of
    # the wrong shape, and an entry with no payload are all misses.
    for garbage in ("{ not json", "[]", '{"schema": "repro-cache/v1"}'):
        with open(path, "w") as handle:
            handle.write(garbage)
        assert ResultCache(root).stats()["entries"] == 1
        retry = execute([scenario], jobs=1, cache=ResultCache(root))
        assert retry.cache_hits == 0
        assert retry.executed == 1
        # The corrupt file was replaced by a fresh, valid entry.
        with open(path) as handle:
            assert json.load(handle)["payload"] == {"value": 9}


def test_nested_writers_of_one_key_leave_one_valid_entry(tmp_path, monkeypatch):
    """Two writers of one key must not share a temp file.

    The second ``put`` is issued from inside the first one's
    ``json.dump`` — the interleaving of two processes sharing a cache
    directory, made deterministic. With one shared ``path + ".tmp"`` the
    inner writer truncated the outer's open temp file and published it,
    and the outer ``os.replace`` raised ``FileNotFoundError``.
    """
    cache = ResultCache(str(tmp_path / "cache"))
    scenario = _echo(5)
    real_dump = json.dump
    nested = []

    def dump_with_a_second_writer_inside(entry, handle, **kwargs):
        if not nested:
            nested.append(None)
            nested[0] = cache.put(scenario, {"value": 5}, 0.1)
        real_dump(entry, handle, **kwargs)

    monkeypatch.setattr(json, "dump", dump_with_a_second_writer_inside)
    path = cache.put(scenario, {"value": 5}, 0.2)
    monkeypatch.undo()

    assert nested == [path]
    shard = tmp_path / "cache" / cache.key(scenario)[:2]
    assert [p.name for p in shard.iterdir()] == [cache.key(scenario) + ".json"]
    assert cache.get(scenario)["payload"] == {"value": 5}


def test_code_digest_is_stable_and_hex():
    a = code_digest()
    b = code_digest()
    assert a == b
    assert len(a) == 64
    int(a, 16)  # raises if not hex


def test_cache_cli_stats_and_clear(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "cache")
    execute([_echo(4)], jobs=1, cache=ResultCache(root))

    assert main(["cache", "stats", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    assert "entries:   1" in out

    assert main(["cache", "clear", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    assert "removed 1 cache entries" in out

    assert main(["cache", "stats", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    assert "entries:   0" in out
