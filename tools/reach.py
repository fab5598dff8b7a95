#!/usr/bin/env python
"""Reach: which functions under ``src/repro`` no product surface runs.

A ``sys.setprofile`` hook records every code object entered while these
surfaces run, one after another, in this process (pool size 1, no result
cache, ``REPRO_*`` variables cleared so the sentinel stays off):

* ``repro experiments --all --small``
* ``repro experiments soak fleet fleet_full fig_wpaxos --small``
* ``repro fuzz --seed 1 --cases 12 --bug recall-race``
* ``repro trace``
* the seven ``benchmarks/ledger`` workloads at ``tiny`` size, seed 42,
  timed pass

Then it lists every ``def`` (nested ones too) under ``src/repro`` that was
never entered, per file, with the lines the missed functions span (a
nested function's lines count once), and the totals. A missed function is
one only tests and examples reach — or a surface this list leaves out:
the worker pool (``--jobs`` > 1), the cache, ``profile``, ``diff-traces``
and full sizes are not run.

Usage: ``python tools/reach.py [--summary]`` from the repository root
(stdlib only; several minutes on one core). The surfaces' own output is
discarded; ``--summary`` prints only the per-file counts and the totals.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "benchmarks" / "ledger"

# (file, first line, last line, qualified name) of one ``def``.
Def = Tuple[str, int, int, str]


def inventory() -> List[Def]:
    """Every function definition under ``src/repro``. The first line is
    the first decorator's, as in the function's code object."""
    found: List[Def] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [deco.lineno for deco in child.decorator_list]
                    )
                    name = prefix + child.name
                    found.append((str(path), first, child.end_lineno, name))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def run_surfaces() -> Set[Tuple[str, int]]:
    """Run every surface under the call hook; ``(file, first line)`` of
    each code object entered."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(SRC), str(LEDGER)]
    from repro.cli import main as repro_main

    codes: Set = set()

    def hook(frame, event, _arg, add=codes.add) -> None:
        if event == "call":
            add(frame.f_code)

    def ledger() -> None:
        from instrument import Instrument
        from layers import LayerMap
        from workloads import SIZES, WORKLOADS

        for name, workload in WORKLOADS.items():
            layer_map = LayerMap(str(PACKAGE), workload.substrate)
            workload.run(42, SIZES[name]["tiny"], Instrument("timed", layer_map))

    with tempfile.TemporaryDirectory() as scratch:
        surfaces = [
            lambda: repro_main(["experiments", "--all", "--small", "--no-cache"]),
            lambda: repro_main(["experiments", "soak", "fleet", "fleet_full",
                                "fig_wpaxos", "--small", "--no-cache"]),
            lambda: repro_main(["fuzz", "--seed", "1", "--cases", "12",
                                "--bug", "recall-race"]),
            lambda: repro_main(["trace", "--out",
                                os.path.join(scratch, "trace.jsonl")]),
            ledger,
        ]
        sink = io.StringIO()
        for surface in surfaces:
            sys.setprofile(hook)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    surface()
            finally:
                sys.setprofile(None)
            sink.seek(0)
            sink.truncate()
    package = str(PACKAGE)
    return {
        (code.co_filename, code.co_firstlineno)
        for code in codes
        if code.co_filename.startswith(package)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", action="store_true",
                        help="per-file counts and totals only")
    args = parser.parse_args(argv)

    defs = inventory()
    reached = run_surfaces()
    missed: Dict[str, List[Def]] = {}
    for entry in defs:
        if (entry[0], entry[1]) not in reached:
            missed.setdefault(entry[0], []).append(entry)

    total_lines = 0
    for path in sorted(missed):
        spans: Set[int] = set()
        for _path, first, last, _name in missed[path]:
            spans.update(range(first, last + 1))
        total_lines += len(spans)
        rel = os.path.relpath(path, PACKAGE)
        print(f"{rel}: {len(missed[path])} missed, {len(spans)} lines")
        if not args.summary:
            for _path, first, last, name in missed[path]:
                print(f"  {first:5d}-{last:<5d} {name}")
    count = sum(len(entries) for entries in missed.values())
    print(f"reached {len(defs) - count} of {len(defs)} defs; "
          f"missed {count} ({total_lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
