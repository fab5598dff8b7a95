"""Layer attribution: which package of ``src/repro`` a cost belongs to.

One map (:class:`LayerMap`) serves three instruments, all driven from
the harness's own files:

* ``cProfile`` self time — frames are bucketed by the path of their code
  object; C built-ins and stdlib frames have no layer of their own and
  are charged to the layer of the frame that called them, through the
  profiler's callers table (without this, ``heapq``, ``dict`` and
  ``random`` time makes ``other`` 14-23 % of a run);
* ``tracemalloc`` live bytes — by the file of the allocating line;
* message counts — ``Network.tap`` sees every envelope, classified by the
  module of its body class and by same-site vs cross-site.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "OTHER",
    "PACKAGE_LAYER",
    "LayerMap",
    "MessageCounter",
    "ProfileTable",
    "live_kb_by_layer",
    "package_dirs",
]

#: The named layers, bottom of the stack first.
LAYERS = ("sim", "net", "zab", "wpaxos", "zk", "wankeeper", "fleet", "workloads")
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)

#: ``substrate`` is a dispatch seam, not a layer: its frames fold into the
#: backend the deployment under test dispatches to.
_SUBSTRATE = "<substrate>"

#: Every package directory under ``src/repro``. A package missing here
#: fails ``tests/test_ledger.py`` instead of landing silently in ``other``.
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "zab": "zab",
    "wpaxos": "wpaxos",
    "zk": "zk",
    "wankeeper": "wankeeper",
    "fleet": "fleet",
    "workloads": "workloads",
    "substrate": _SUBSTRATE,
    "bookkeeper": OTHER,
    "consistency": OTHER,
    "experiments": OTHER,
    "fuzz": OTHER,
    "runner": OTHER,
    "scfs": OTHER,
}

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def package_dirs(repro_root: str) -> List[str]:
    """Names of the package directories directly under ``src/repro``."""
    return sorted(
        name
        for name in os.listdir(repro_root)
        if os.path.isfile(os.path.join(repro_root, name, "__init__.py"))
    )


class LayerMap:
    """Maps source paths and module names to layers for one deployment.

    ``repro_root`` is the directory of the ``repro`` package under test;
    ``substrate`` is the backend (``zab`` | ``wpaxos``) that
    ``repro.substrate`` frames fold into.
    """

    def __init__(self, repro_root: str, substrate: str) -> None:
        self._root = os.path.abspath(repro_root) + os.sep
        self.substrate = substrate

    def _of_package(self, package: str) -> str:
        layer = PACKAGE_LAYER.get(package, OTHER)
        return self.substrate if layer == _SUBSTRATE else layer

    def of_path(self, filename: str) -> Optional[str]:
        """Layer of a source file. ``other`` for the harness and for
        ``repro`` code outside the named layers; None for code with no
        place in the repo at all (C built-ins, stdlib), which inherits
        its caller's layer."""
        if filename.startswith(self._root):
            head, sep, _tail = filename[len(self._root):].partition(os.sep)
            return self._of_package(head) if sep else OTHER
        if filename.startswith(_HARNESS_DIR):
            return OTHER
        return None

    def of_module(self, module: str) -> str:
        """Layer of a dotted module name (``repro.zab.messages`` -> ``zab``)."""
        parts = module.split(".")
        if len(parts) >= 3 and parts[0] == "repro":
            return self._of_package(parts[1])
        return OTHER


# -- cProfile -----------------------------------------------------------------

#: (filename, first line, function name); C built-ins are ("~", 0, repr).
FuncKey = Tuple[str, int, str]


def _func_key(code) -> FuncKey:
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


class ProfileTable:
    """Per-function call counts and self times, with their caller edges.

    ``calls[f]`` / ``self_s[f]`` are totals for function ``f``;
    ``edges[f][g]`` is ``(calls, self seconds)`` of ``f`` when called by
    ``g``. Tables subtract, so a fleet cell's measured phase is the full
    cell's table minus the set-up cell's.
    """

    def __init__(self) -> None:
        self.calls: Dict[FuncKey, int] = {}
        self.self_s: Dict[FuncKey, float] = {}
        self.edges: Dict[FuncKey, Dict[FuncKey, Tuple[int, float]]] = {}

    @classmethod
    def from_profiler(cls, profiler) -> "ProfileTable":
        table = cls()
        for entry in profiler.getstats():
            key = _func_key(entry.code)
            table.calls[key] = table.calls.get(key, 0) + entry.callcount
            table.self_s[key] = table.self_s.get(key, 0.0) + entry.inlinetime
            for sub in entry.calls or ():
                edges = table.edges.setdefault(_func_key(sub.code), {})
                calls, self_s = edges.get(key, (0, 0.0))
                edges[key] = (calls + sub.callcount, self_s + sub.inlinetime)
        return table

    def __sub__(self, other: "ProfileTable") -> "ProfileTable":
        # The two cells run their shared prefix at slightly different
        # speeds, so a time can come out a hair below zero: clamp.
        result = ProfileTable()
        for key, calls in self.calls.items():
            result.calls[key] = calls - other.calls.get(key, 0)
            result.self_s[key] = max(
                0.0, self.self_s[key] - other.self_s.get(key, 0.0)
            )
        for callee, edges in self.edges.items():
            theirs = other.edges.get(callee, {})
            result.edges[callee] = {
                caller: (
                    calls - theirs.get(caller, (0, 0.0))[0],
                    max(0.0, self_s - theirs.get(caller, (0, 0.0))[1]),
                )
                for caller, (calls, self_s) in edges.items()
            }
        return result

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def by_layer(self, layer_map: LayerMap) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` over the layers + other.

        A frame with a layer of its own keeps its time and its calls. A
        frame without one (built-in, stdlib) hands the time it spent
        under each caller to that caller's layer, resolved through
        further layerless callers by call count; its calls count for the
        layer of each direct caller, so call counts stay whole numbers.
        What nothing in the repo called is ``other``.
        """
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in ALL_LAYERS}
        own = {key: layer_map.of_path(key[0]) for key in self.calls}
        resolved: Dict[FuncKey, Dict[str, float]] = {}

        def shares(key: FuncKey) -> Dict[str, float]:
            layer = own.get(key)
            if layer is not None:
                return {layer: 1.0}
            if key in resolved:
                return resolved[key]
            resolved[key] = {OTHER: 1.0}  # what a stdlib recursion sees
            callers = {
                caller: calls
                for caller, (calls, _s) in self.edges.get(key, {}).items()
                if calls > 0
            }
            total = sum(callers.values())
            if total:
                result: Dict[str, float] = {}
                for caller, calls in callers.items():
                    for name, part in shares(caller).items():
                        result[name] = result.get(name, 0.0) + part * calls / total
                resolved[key] = result
            return resolved[key]

        for key, self_s in self.self_s.items():
            layer = own[key]
            edges = self.edges.get(key)
            if layer is not None or not edges:
                bucket = out[layer or OTHER]
                bucket["self_s"] += self_s
                bucket["calls"] += self.calls[key]
                continue
            for caller, (edge_calls, edge_self_s) in edges.items():
                for name, part in shares(caller).items():
                    out[name]["self_s"] += edge_self_s * part
                out[own.get(caller) or OTHER]["calls"] += edge_calls
        return out


# -- tracemalloc --------------------------------------------------------------


def live_kb_by_layer(snapshot, layer_map: LayerMap) -> Dict[str, float]:
    """Live traced KB per layer, by the file of the allocating line."""
    out = {layer: 0.0 for layer in ALL_LAYERS}
    for stat in snapshot.statistics("filename"):
        layer = layer_map.of_path(stat.traceback[0].filename) or OTHER
        out[layer] += stat.size / 1024.0
    return out


# -- Network.tap --------------------------------------------------------------


class MessageCounter:
    """``Network.tap`` callback: envelopes and bytes per layer, and how many
    envelopes cross a site boundary. An envelope's layer is that of the
    module defining its body class."""

    def __init__(self, layer_map: LayerMap) -> None:
        self._layer_map = layer_map
        self._layer_of_class: Dict[type, str] = {}
        self.by_layer: Dict[str, int] = {layer: 0 for layer in ALL_LAYERS}
        self.wan = 0

    def __call__(self, envelope) -> None:
        cls = envelope.body.__class__
        layer = self._layer_of_class.get(cls)
        if layer is None:
            layer = self._layer_map.of_module(cls.__module__)
            self._layer_of_class[cls] = layer
        self.by_layer[layer] += 1
        if envelope.src.site != envelope.dst.site:
            self.wan += 1

    def counters(self) -> Dict[str, int]:
        out = {f"msgs.{layer}": count for layer, count in self.by_layer.items()}
        out["msgs.wan"] = self.wan
        return out
