"""Checks of the benchmark itself: planted answers against the brute-force
oracles at n <= 8, the tracer's namespace patching, and BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import contextlib
import json
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sparsity_kit as sk  # noqa: E402
import sparsity_kit.cli  # noqa: E402,F401
from anchor import Anchor  # noqa: E402
from run import END_TO_END, _on_alarm, measure, operation_memory, run_op  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, DenseWorkload, SliderWorkload, TightWorkload  # noqa: E402

from sparsity_kit import (  # noqa: E402
    SparsityParams,
    brute_force_axis_parallel,
    brute_force_graded_tight,
    brute_force_sparse,
)


def NOSPAN(name):
    return contextlib.nullcontext()


def _parse(inst):
    return sk.graph.parse_graph(inst.path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("k,l,kind", [(2, 3, "proper-ltk"), (3, 3, "maps-and-trees")])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_tight_inputs_are_tight_and_certify(tmp_path, k, l, kind, n):
    wl = TightWorkload("t", k, l, kind, n=n, pool=1)
    inst = wl.generate(sk, random.Random(n), 0, tmp_path)
    assert brute_force_sparse(_parse(inst), SparsityParams(k, l)).tight
    assert run_op(sk, wl, inst, NOSPAN).outcome == "ok"


@pytest.mark.parametrize("n", [4, 6, 8])
def test_dense_inputs_hold_a_spanning_tight_subgraph(n):
    rng = random.Random(n)
    tight = sk.oracle.random_tight_graph(n, SparsityParams(2, 3), n)
    g = DenseWorkload(n, 1).bury(sk, tight, rng)
    assert brute_force_sparse(tight, SparsityParams(2, 3)).tight
    remaining = list(g.edges)
    for e in tight.edges:
        remaining.remove(e)  # the planted graph survives shuffling intact
    assert not brute_force_sparse(g, SparsityParams(2, 3)).sparse
    assert g.m == DenseWorkload.density * n


def test_dense_operation_accepts_exactly_2n_minus_3(tmp_path):
    wl = DenseWorkload(n=8, pool=1)
    inst = wl.generate(sk, random.Random(3), 0, tmp_path)
    assert run_op(sk, wl, inst, NOSPAN).outcome == "ok"


@pytest.mark.parametrize("n", [3, 5, 8])
def test_slider_positives_are_pinned(tmp_path, n):
    wl = SliderWorkload(n=n, pool=1, negatives_every=10, limit_s=5.0)
    for seed in range(4):
        inst = wl.generate(sk, random.Random(seed), 0, tmp_path)
        g = _parse(inst)
        assert inst.positive and g.m == 2 * n
        assert brute_force_graded_tight(g)
        assert brute_force_axis_parallel(g, inst.loop_colors)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_slider_negatives_are_overfilled(tmp_path, n):
    wl = SliderWorkload(n=n, pool=1, negatives_every=1, limit_s=5.0)
    for seed in range(4):
        inst = wl.generate(sk, random.Random(seed), 0, tmp_path)
        g = _parse(inst)
        assert not inst.positive and g.m == 2 * n
        assert not brute_force_graded_tight(g)
        assert not brute_force_axis_parallel(g, inst.loop_colors)


def test_slider_timeout_is_reported_not_raised(tmp_path):
    wl = SliderWorkload(n=60, pool=1, negatives_every=1, limit_s=0.05)
    inst = wl.generate(sk, random.Random(0), 0, tmp_path)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        res = run_op(sk, wl, inst, NOSPAN)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert res.outcome == "timeout"
    assert res.solve_s >= 0.05


def test_timed_out_inputs_run_once_and_unscaled(tmp_path):
    wl = SliderWorkload(n=60, pool=2, negatives_every=2, limit_s=0.05)
    rng = random.Random(0)
    pool = [wl.generate(sk, rng, i, tmp_path) for i in range(2)]
    assert pool[0].positive and not pool[1].positive
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        results = measure(sk, wl, pool, 0.3, Anchor())
    finally:
        signal.signal(signal.SIGALRM, old)
    timeouts = [r for idx, r in results if idx == 1]
    assert len(timeouts) == 1 and timeouts[0].outcome == "timeout"
    assert timeouts[0].scale == 1.0
    assert sum(idx == 0 for idx, _ in results) > 1


def test_operation_memory_measures_answered_inputs(tmp_path):
    wl = TightWorkload("t", 2, 3, "proper-ltk", n=40, pool=3)
    rng = random.Random(1)
    pool = [wl.generate(sk, rng, i, tmp_path) for i in range(3)]
    results = [(2, run_op(sk, wl, pool[2], NOSPAN)), (0, run_op(sk, wl, pool[0], NOSPAN))]
    memory = operation_memory(sk, wl, pool, results)
    assert [idx for idx, _, _ in memory] == [0, 2]
    assert all(res.outcome == "ok" and 0 < peak < 50 for _, res, peak in memory)


def test_tracer_patches_every_lookup_namespace():
    original = sk.canonical.find_pebble
    g = sk.oracle.random_tight_graph(12, SparsityParams(2, 3), 1)
    tracer = Tracer()
    tracer.install()
    try:
        assert sk.canonical.find_pebble is not original
        assert sk.pebbles.find_pebble is sk.canonical.find_pebble
        tracer.begin_op("op")
        with tracer.span("cli.recognize"):
            sk.canonical.run_canonical_game(g, SparsityParams(2, 3))
    finally:
        tracer.uninstall()
    assert sk.canonical.find_pebble is original
    table = tracer.self_times()[0]
    assert table["pebbles.find_pebble"][1] > 0
    assert table["canonical.run_canonical_game"][1] == 1
    parents = {tracer.names[int(tracer.spans[5 * p])] for fid, p, *_ in tracer.records()
               if tracer.names[fid] == "pebbles.find_pebble" and p >= 0}
    assert "canonical.plan_pebble_path" in parents
    values, absent, _ = layer_metrics(tracer, 0.0)
    assert absent == []
    assert values["pebbles.component_runs"] == g.m


def test_missing_functions_are_reported_absent():
    tracer = Tracer()
    tracer.wrapped = {"pebbles.find_pebble"}
    values, absent, _ = layer_metrics(tracer, 0.0)
    assert "canonical.plan_s" in absent and "canonical.plan_fallback_ratio" in absent
    assert "pebbles.search_s" not in absent
    assert values["canonical.plan_s"] == 0.0


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_anchor_is_deterministic_and_engine_free():
    import anchor

    a, b = Anchor(), Anchor()
    assert a._run() == b._run() > 0
    assert a.time() > 0
    assert "sparsity_kit" not in Path(anchor.__file__).read_text()
