"""Per-layer spans and counts, recorded from outside the engine.

The tracer replaces each public module-level function of the engine layers in
every namespace of the package where it is bound, because a module that did
`from .pebbles import find_pebble` looks the name up in its own globals.  Each
call becomes a span (function, start, end, parent span, operation id) kept in
one flat array and written out when the run ends; a few functions also feed
counters through probes on their arguments and results.  A layer's self time
is the sum of its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "sparsity_kit"
LAYERS = ("graph", "pebbles", "canonical", "decompose", "sliders", "oracle")


def _probe_search(c: Counter, args, result, before) -> None:
    path, visited = result
    c["pebbles.search_visited"] += len(visited)
    c["pebbles.search_hits"] += path is not None


def _probe_screen(c: Counter, args, result, before) -> None:
    c["pebbles.screen_rejects"] += bool(result)


def _probe_collect(c: Counter, args, result, before) -> None:
    c["canonical.failed_collections"] += not result


def _before_components(args):
    state, v = args[0], args[1]
    return state.component_id[v]


def _probe_components(c: Counter, args, result, before) -> None:
    state, v = args[0], args[1]
    c["pebbles.component_tags"] += state.component_id[v] != before


# function -> (probe after the call, optional probe before it)
PROBES = {
    "pebbles.find_pebble": (_probe_search, None),
    "pebbles.reject_fast": (_probe_screen, None),
    "canonical.collect_pebbles_canonically": (_probe_collect, None),
    "pebbles.update_components": (_probe_components, _before_components),
}

# functions whose raised exception is counted under the given name
RAISES = {"canonical.plan_pebble_path": ("PlanUnsoundError", "canonical.plan_unsound")}


class Tracer:
    """Wraps the engine's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        # five doubles per span: function id, parent span, operation, start, end
        self.spans = array("d")
        self.current = -1
        self.op = -1
        self.op_kinds: list[str] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.wrapped: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        fid = self._fid.get(name)
        if fid is None:
            fid = self._fid[name] = len(self.names)
            self.names.append(name)
        return fid

    def begin_op(self, kind: str) -> int:
        """Start a new operation; later spans and counts belong to it."""
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.current = -1
        return self.op

    def _open(self, fid: int) -> tuple[int, int]:
        # one extend call, so an alarm between bytecodes never leaves a partial
        # record; a span it interrupts keeps end = 0 and counts as empty
        idx = len(self.spans) // 5
        parent = self.current
        self.spans.extend((fid, parent, self.op, time.perf_counter(), 0.0))
        self.current = idx
        return idx, parent

    def _close(self, idx: int, parent: int) -> None:
        self.spans[5 * idx + 4] = time.perf_counter()
        self.current = parent

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx, parent)

    def _wrap(self, name: str, func):
        fid = self._id(name)
        after, before = PROBES.get(name, (None, None))
        raises = RAISES.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx, parent = tracer._open(fid)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if raises is not None and type(exc).__name__ == raises[0]:
                    tracer.counts[tracer.op][raises[1]] += 1
                raise
            finally:
                tracer._close(idx, parent)
            if after is not None:
                after(tracer.counts[tracer.op], args, result, pre)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in originals.items()}
        self.wrapped = {name for name, _ in originals.values()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------------

    def records(self):
        """Yield (function id, parent span, operation, start, end) per span."""
        s = self.spans
        for i in range(0, len(s), 5):
            start, end = s[i + 3], s[i + 4]
            yield int(s[i]), int(s[i + 1]), int(s[i + 2]), start, max(end, start)

    def self_times(self) -> dict[int, dict[str, tuple[float, int]]]:
        """Per operation, per span name: (self time in s, number of spans)."""
        own = array("d", (end - start for _, _, _, start, end in self.records()))
        for _, parent, _, start, end in self.records():
            if parent >= 0:
                own[parent] -= end - start
        table: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for (fid, _, op, _, _), t in zip(self.records(), own):
            cell = table[op][self.names[fid]]
            cell[0] += t
            cell[1] += 1
        return {op: {k: (v[0], v[1]) for k, v in row.items()} for op, row in table.items()}

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then one tab-separated line each."""
        header = {"names": self.names, "op_kinds": self.op_kinds,
                  "columns": ["name", "parent", "op", "start_s", "end_s"]}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for fid, parent, op, start, end in self.records():
                fh.write(f"{fid}\t{parent}\t{op}\t{start:.9f}\t{end:.9f}\n")


# Per-layer metrics: name, unit, better, how it is computed, and which
# end-to-end metric on which workload it should move.  "self" sums the self
# time of the listed functions; "calls" counts their spans; "count" reads the
# probe counter of a function; "ratio" divides a counter by the calls of a
# function; "external" values are
# filled in by the runner.  Values are per timed operation, except
# oracle.generate_s (per generated input) and sliders.timeouts (instances of
# the seed's pool that ran past the limit).
LAYER_METRICS = [
    ("graph.parse_s", "s", "lower", ("self", ["graph.parse_graph"]),
     "solve_s_p50, all workloads (<1%; predicted flat)"),
    ("pebbles.search_s", "s", "lower", ("self", ["pebbles.find_pebble"]),
     "solve_s_p50/edges_per_s on trees-33 (most) and rigid-23; setup_s everywhere"),
    ("pebbles.searches", "count", "lower", ("calls", ["pebbles.find_pebble"]),
     "solve_s_p50/edges_per_s on trees-33 and rigid-23; setup_s everywhere"),
    ("pebbles.search_visited", "count", "lower", ("count", "pebbles.search_visited", "pebbles.find_pebble"),
     "solve_s_p50/edges_per_s on trees-33 and rigid-23; setup_s everywhere"),
    ("pebbles.search_hit_ratio", "1", "higher", ("ratio", "pebbles.search_hits", "pebbles.find_pebble"),
     "solve_s_p50/edges_per_s on trees-33 and rigid-23"),
    ("pebbles.slides", "count", "lower", ("calls", ["pebbles.pebble_slide"]),
     "solve_s_p50/edges_per_s on trees-33 and rigid-23; setup_s everywhere"),
    ("pebbles.slide_s", "s", "lower", ("self", ["pebbles.pebble_slide"]),
     "solve_s_p50/edges_per_s on trees-33 and rigid-23; setup_s everywhere"),
    ("canonical.collect_s", "s", "lower", ("self", ["canonical.collect_pebbles_canonically"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.plan_s", "s", "lower", ("self", ["canonical.plan_pebble_path"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.plan_fallback_ratio", "1", "lower",
     ("ratio", "canonical.plan_unsound", "canonical.plan_pebble_path"),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.dynamic_s", "s", "lower", ("self", ["canonical.bring_pebble_dynamic"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.dynamic_routes", "count", "lower", ("calls", ["canonical.bring_pebble_dynamic"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.execute_s", "s", "lower", ("self", ["canonical.execute_plan"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.cycle_checks", "count", "lower", ("calls", ["canonical.creates_monochromatic_cycle"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.cycle_check_s", "s", "lower", ("self", ["canonical.creates_monochromatic_cycle"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("canonical.game_s", "s", "lower",
     ("self", ["canonical.run_canonical_game", "canonical.canonical_add_edge",
               "pebbles.add_edge", "pebbles.init_game"]),
     "solve_s_p50 on trees-33 first, then rigid-23"),
    ("pebbles.components_s", "s", "lower", ("self", ["pebbles.update_components"]),
     "solve_s_p50 on rigid-23; predicted no change on trees-33"),
    ("pebbles.component_runs", "count", "lower", ("calls", ["pebbles.update_components"]),
     "solve_s_p50 on rigid-23; predicted no change on trees-33"),
    ("pebbles.component_tag_ratio", "1", "higher",
     ("ratio", "pebbles.component_tags", "pebbles.update_components"),
     "solve_s_p50 on rigid-23; predicted no change on trees-33"),
    ("pebbles.screen_s", "s", "lower", ("self", ["pebbles.reject_fast"]),
     "solve_s_p50 on dense-23; zero on the tight workloads"),
    ("pebbles.screen_rejects", "count", "higher", ("count", "pebbles.screen_rejects", "pebbles.reject_fast"),
     "solve_s_p50 on dense-23; zero on the tight workloads"),
    ("canonical.failed_collections", "count", "lower", ("count", "canonical.failed_collections",
                                                       "canonical.collect_pebbles_canonically"),
     "solve_s_p50 on dense-23; zero on the tight workloads"),
    ("decompose.extract_s", "s", "lower",
     ("self", ["decompose.extract_certificate", "decompose.extract_proper_ltk",
               "decompose.extract_maps_and_trees", "decompose.result_decomposition",
               "decompose.extract_coloring"]),
     "session_s_p50 on rigid-23; predicted flat on trees-33"),
    ("decompose.json_s", "s", "lower",
     ("self", ["decompose.certificate_to_json", "decompose.certificate_from_json"]),
     "session_s_p50 on rigid-23; predicted flat on trees-33"),
    ("decompose.validate_s", "s", "lower",
     ("self", ["decompose.validate_certificate", "decompose.certify_coloring",
               "decompose.count_tree_pieces", "decompose.count_tree_pieces_exact",
               "decompose.tree_pieces"]),
     "session_s_p50 on rigid-23; predicted flat on trees-33"),
    ("decompose.piece_counts", "count", "lower", ("calls", ["decompose.count_tree_pieces"]),
     "session_s_p50 on rigid-23; predicted flat on trees-33"),
    ("sliders.graded_s", "s", "lower", ("self", ["sliders.graded_tight_check"]),
     "failed, solve_s_p50 and the solve-time tail on sliders"),
    ("sliders.axis_s", "s", "lower", ("self", ["sliders.axis_parallel_slider_check"]),
     "failed, solve_s_p50 and the solve-time tail on sliders"),
    ("sliders.timeouts", "count", "lower", ("external",),
     "failed, solve_s_p50 and the solve-time tail on sliders"),
    ("oracle.generate_s", "s", "lower", ("self", ["oracle.random_tight_graph"]),
     "setup_s, all workloads"),
    ("cli.overhead_s", "s", "lower", ("self", ["cli.decompose", "cli.certify", "cli.recognize", "sliders.op"]),
     "solve_s_p50; predicted flat"),
    ("other_s", "s", "lower", ("other",),
     "self time of traced functions no other metric names; predicted flat"),
    ("trace.overhead_ratio", "1", "lower", ("overhead",),
     "traced over untraced operation time in the same run, minus one"),
]


def layer_metrics(tracer: Tracer, overhead: float) -> tuple[dict[str, float], list[str], dict]:
    """Per-layer values, the metrics whose functions no longer exist, and the
    full per-function self-time table of the timed operations."""
    table = tracer.self_times()
    timed = [op for op, kind in enumerate(tracer.op_kinds) if kind == "op"]
    setup = [op for op, kind in enumerate(tracer.op_kinds) if kind == "setup"]
    per_fn: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for op in timed:
        for name, (own, calls) in table.get(op, {}).items():
            per_fn[name][0] += own
            per_fn[name][1] += calls
    counts = Counter()
    for op in timed:
        counts.update(tracer.counts.get(op, {}))
    ops = max(len(timed), 1)
    named = set()
    for _, _, _, how, _ in LAYER_METRICS:
        if how[0] in ("self", "calls"):
            named.update(how[1])
    known = tracer.wrapped | set(tracer.names)
    values: dict[str, float] = {}
    absent: list[str] = []
    for name, _, _, how, _ in LAYER_METRICS:
        kind = how[0]
        if kind in ("self", "calls") and not known.intersection(how[1]):
            absent.append(name)
        if kind in ("count", "ratio") and how[2] not in known:
            absent.append(name)
        if kind == "self" and name == "oracle.generate_s":
            own = sum(table.get(op, {}).get(f, (0.0, 0))[0] for op in setup for f in how[1])
            values[name] = own / max(len(setup), 1)
        elif kind == "self":
            values[name] = sum(per_fn[f][0] for f in how[1] if f in per_fn) / ops
        elif kind == "calls":
            values[name] = sum(per_fn[f][1] for f in how[1] if f in per_fn) / ops
        elif kind == "count":
            values[name] = counts[how[1]] / ops
        elif kind == "ratio":
            base = per_fn[how[2]][1] if how[2] in per_fn else 0
            values[name] = counts[how[1]] / base if base else 0.0
        elif kind == "other":
            values[name] = sum(v[0] for f, v in per_fn.items() if f not in named) / ops
        elif kind == "overhead":
            values[name] = overhead
        else:
            values[name] = 0.0
    functions = {f: {"self_s_per_op": v[0] / ops, "calls_per_op": v[1] / ops}
                 for f, v in sorted(per_fn.items(), key=lambda kv: -kv[1][0])}
    return values, absent, functions
