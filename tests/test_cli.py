"""Tests for the command line (``python -m repro <subcommand>``)."""

import pytest

from repro.cli import main


def test_cli_rejects_unknown_experiment():
    # "bench" and the bare figure names ("fig4") are retired: to argparse,
    # one more unknown subcommand (exit 2). Figures run as
    # `experiments fig4`.
    for name in ("fig99", "bench", "fig4"):
        with pytest.raises(SystemExit) as info:
            main([name])
        assert info.value.code == 2


def test_cli_trace_dump_and_diff(tmp_path, capsys):
    trace_a = str(tmp_path / "a.jsonl")
    trace_b = str(tmp_path / "b.jsonl")
    assert main(["trace", "--out", trace_a, "--seed", "7", "--ops", "5"]) == 0
    assert main(["trace", "--out", trace_b, "--seed", "7", "--ops", "5"]) == 0
    capsys.readouterr()
    # Same seed + workload: identical traces.
    assert main(["diff-traces", trace_a, trace_b]) == 0
    assert "traces agree" in capsys.readouterr().out
    # Different workload size: a divergence, reported with its index.
    trace_c = str(tmp_path / "c.jsonl")
    assert main(["trace", "--out", trace_c, "--seed", "7", "--ops", "6"]) == 0
    capsys.readouterr()
    assert main(["diff-traces", trace_a, trace_c]) == 1
    assert "first divergence at event #" in capsys.readouterr().out
    # A file that is not a JSONL trace: one line naming it, no traceback.
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text('{"seq": 0}\nnot json\n')
    assert main(["diff-traces", trace_a, str(garbage)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"{garbage}:2" in err


def test_cli_experiments_sentinel_flag_sets_env(monkeypatch, capsys):
    import os

    monkeypatch.delenv("REPRO_SENTINEL", raising=False)
    assert main(
        ["experiments", "fig5", "--small", "--no-cache", "--sentinel"]
    ) == 0
    assert os.environ.get("REPRO_SENTINEL") == "1"
    output = capsys.readouterr().out
    assert "fig5" in output


def test_cli_experiments_list_prints_all_suites(capsys):
    from repro.runner import SUITES

    assert main(["experiments", "--list"]) == 0
    output = capsys.readouterr().out
    for name in SUITES:
        assert f"{name}:" in output
    # Opt-in suites are flagged, and fleet cells are enumerated.
    assert "fleet:" in output
    assert "(opt-in)" in output
    assert "fleet:20 sites" in output


@pytest.mark.parametrize(
    "subcommand",
    [None, "profile", "fuzz", "experiments", "cache", "trace", "diff-traces"],
)
def test_every_subcommand_renders_help(subcommand, capsys):
    """argparse %-formats help strings at render time, so a bare ``%`` in
    one only blows up when somebody asks for ``--help``."""
    argv = ["--help"] if subcommand is None else [subcommand, "--help"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
