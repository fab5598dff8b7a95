"""The examples must stay runnable end to end."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

EXAMPLES = [
    "quickstart.py",
    "geo_fair_lock.py",
    "geo_replicated_log.py",
    "token_observatory.py",
    "operating_wankeeper.py",
    "consistency_models.py",
]


def run_example(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    run_example(name)
    output = capsys.readouterr().out
    assert "Done." in output or "entries/sec" in output or output.strip()


def test_quickstart_demonstrates_migration(capsys):
    run_example("quickstart.py")
    output = capsys.readouterr().out
    assert "LOCAL commit" in output
    assert "hub-serialized" in output


def test_token_observatory_prints_the_timeline(capsys):
    run_example("token_observatory.py")
    output = capsys.readouterr().out
    assert "-> california" in output


def test_locks_example_mutual_exclusion_narrative(capsys):
    run_example("geo_fair_lock.py")
    output = capsys.readouterr().out
    assert "acquired" in output
