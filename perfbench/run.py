"""End-to-end and per-layer benchmark of the pebble-game engine.

Closed loop, one client, one thread: the next operation starts when the
previous one has finished.  The engine is imported from `src/` of the checkout
this file sits in and receives only the inputs generated here from the seed.

    python3 perfbench/run.py --workload rigid-23 --seed 1 --seconds 15 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it wraps
the engine's public functions and reports per-layer self times and counts
instead.  Human-readable lines come first; the last line of standard output is
one JSON object.  A record of the run (and, traced, its spans) is written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

from anchor import Anchor
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import GRAPH_LIMIT_S, WORKLOADS, OpResult, OpTimeout

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = [
    ("solve_s_p50", "s", "lower"),
    ("session_s_p50", "s", "lower"),
    ("edges_per_s", "edges/s", "higher"),
    ("setup_s", "s", "lower"),
    ("op_peak_mb", "MB", "lower"),
]

# Engine module loads timed for setup_s; their median is reported.
RELOADS = 5
# Answered inputs whose operation memory is measured for op_peak_mb.
MEMORY_INPUTS = 2


def import_engine():
    """Import sparsity_kit from this checkout's src/, timing the import."""
    src = ROOT / "src"
    if not (src / "sparsity_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source at {src / 'sparsity_kit'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import sparsity_kit
    import sparsity_kit.cli  # noqa: F401  (binds sparsity_kit.cli)

    import_s = time.perf_counter() - t0
    if not Path(sparsity_kit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported {sparsity_kit.__file__}, not the checkout's engine")
    return sparsity_kit, import_s


def reload_s(anchor: Anchor) -> float:
    """Median anchor-scaled seconds to load and run the engine's module code
    again.  The standard library stays imported, so this is the engine's own
    share of an import, measured several times."""
    names = sorted(n for n in sys.modules if n == "sparsity_kit" or n.startswith("sparsity_kit."))
    times = []
    anchor.mark()
    for _ in range(RELOADS):
        t0 = time.perf_counter()
        for name in names:
            spec = sys.modules[name].__spec__
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        times.append((time.perf_counter() - t0) * anchor.mark())
    return statistics.median(times)


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(sk, wl, inst, span, limit_s=None) -> OpResult:
    """One operation under a time limit (the workload's by default), enforced
    by SIGALRM."""
    limit_s = limit_s or wl.limit_s
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            return wl.run(sk, inst, span)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        dt = time.perf_counter() - t0
        return OpResult(dt, dt, None, "timeout", f"over the {limit_s} s limit")
    except Exception:
        dt = time.perf_counter() - t0
        return OpResult(dt, dt, None, "error", traceback.format_exc(limit=4))


def measure(sk, wl, pool, seconds, anchor, span=None, tracer=None) -> list[tuple[int, OpResult]]:
    """Cycle through the pool until `seconds` have passed and every input has
    run once.

    An input that timed out is not run again: the limit sits far from every
    finishing time, so a second try would time out too and only take time
    from the other inputs.  A garbage collection and an anchor pass run
    between operations; each operation's scale factor uses the anchor passes
    just before and after it.
    """
    span = span or (lambda name: contextlib.nullcontext())
    results = []
    timed_out = set()
    deadline = time.perf_counter() + seconds
    gc.collect()
    anchor.mark()
    i = 0
    while True:
        idx = i % len(pool)
        i += 1
        if idx in timed_out:
            if len(timed_out) == len(pool):
                return results
            continue
        if tracer is not None:
            tracer.begin_op("op")
        res = run_op(sk, wl, pool[idx], span)
        gc.collect()
        scale = anchor.mark()
        if res.outcome == "timeout":
            # the limit is wall-clock time whatever the machine's speed
            timed_out.add(idx)
        else:
            res.scale = scale
        results.append((idx, res))
        if i >= len(pool) and time.perf_counter() >= deadline:
            return results


def setup(sk, wl, seed, workdir, anchor, tracer=None):
    """Generate and write the seed's input pool, timing each input."""
    rng = random.Random(f"{wl.name}:{seed}")
    pool = []
    anchor.mark()
    for index in range(wl.pool):
        if tracer is not None:
            tracer.begin_op("setup")
        t0 = time.perf_counter()
        inst = wl.generate(sk, rng, index, workdir)
        inst.setup_s = time.perf_counter() - t0
        inst.scale = anchor.mark()
        pool.append(inst)
    return pool


def operation_memory(sk, wl, pool, results) -> list[tuple[int, OpResult, float]]:
    """(input, result, peak MB) of one untimed pass with tracemalloc on each of
    the first MEMORY_INPUTS inputs the timed loop answered.

    The peak counts only the Python memory allocated during the operation, so
    the interpreter, the imports and the input pool do not dilute it.  The
    pass runs under the graph workloads' generous limit: tracemalloc slows an
    operation several times, and an input answered once must be answered again.
    """
    answered = sorted({idx for idx, r in results if r.outcome == "ok"})[:MEMORY_INPUTS]
    out = []
    for idx in answered:
        gc.collect()
        tracemalloc.start()
        try:
            res = run_op(sk, wl, pool[idx], lambda name: contextlib.nullcontext(), GRAPH_LIMIT_S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((idx, res, peak / 2**20))
    return out


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with >= 10 samples above it,
    or None with fewer than 20 samples."""
    if len(samples) < 20:
        return None
    s = sorted(samples)
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s)


def first_by_input(results) -> dict[int, OpResult]:
    first: dict[int, OpResult] = {}
    for idx, res in results:
        first.setdefault(idx, res)
    return first


def end_to_end(results, pool, import_s, engine_load_s, memory) -> tuple[dict[str, float], dict]:
    """Anchor-scaled end-to-end values, plus the unscaled ones for the record.

    Every distinct input counts once, at the median time of its operations,
    however often the closed loop ran it.  The medians take every input, a
    timed-out one at its measured time.  edges_per_s takes the answered
    inputs only: which inputs time out depends on the seed, and as a sum the
    timeouts would make it spread across seeds about as much as their count.
    Timeouts are reported by input in `failed`."""
    ok = [(idx, r) for idx, r in results if r.outcome == "ok"]
    by_input = defaultdict(list)
    for idx, r in results:
        by_input[idx].append(r)
    answered = sorted(by_input.keys() - {idx for idx, r in results if r.outcome != "ok"})
    peaks = [peak for _, res, peak in memory if res.outcome == "ok"]
    if not answered or not peaks:
        raise SystemExit("error: no input was answered; metrics are undefined")

    def per_input(time_of):
        return {idx: statistics.median(time_of(r) for r in rs) for idx, rs in by_input.items()}

    solve = per_input(lambda r: r.solve_s * r.scale)
    values = {
        "solve_s_p50": statistics.median(solve.values()),
        "session_s_p50": statistics.median(per_input(lambda r: r.session_s * r.scale).values()),
        "edges_per_s": (sum(pool[idx].m for idx in answered)
                        / sum(solve[idx] for idx in answered)),
        "setup_s": engine_load_s + statistics.median(inst.setup_s * inst.scale for inst in pool),
        "op_peak_mb": statistics.median(peaks),
    }
    extra = {
        "answered": len(ok),
        "answered_inputs": len(answered),
        "memory_inputs": [{"input": idx, "outcome": res.outcome, "peak_mb": peak}
                          for idx, res, peak in memory],
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "engine_load_s": engine_load_s,
        "scale_p50": statistics.median(r.scale for _, r in results),
        "unscaled": {
            "solve_s_p50": statistics.median(per_input(lambda r: r.solve_s).values()),
            "session_s_p50": statistics.median(per_input(lambda r: r.session_s).values()),
            "setup_s_per_input": statistics.median(inst.setup_s for inst in pool),
        },
    }
    certify = [r.certify_s * r.scale for _, r in ok if r.certify_s is not None]
    if certify:
        extra["certify_s_p50"] = statistics.median(certify)
    t = tail([r.solve_s * r.scale for _, r in results])
    if t is not None:
        extra["solve_s_tail"] = {"value": t[0], "percentile": t[1], "samples": len(results),
                                 "beyond": 10}
    return values, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sk, import_s = import_engine()
    anchor = Anchor()
    engine_load_s = reload_s(anchor)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        pool = setup(sk, wl, args.seed, workdir, anchor, tracer)
        if tracer:
            tracer.uninstall()
            start = time.perf_counter()
            plain = measure(sk, wl, pool, args.seconds / 3, anchor)
            tracer.install()
            traced = measure(sk, wl, pool, args.seconds - (time.perf_counter() - start), anchor,
                             tracer.span, tracer)
            tracer.uninstall()
            results = plain + traced
        else:
            results = measure(sk, wl, pool, args.seconds, anchor)
            memory = operation_memory(sk, wl, pool, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # `attempted` and `failed` count distinct inputs: the closed loop repeats
    # each input, and a faster engine must not report more failures.
    failed = sum(r.outcome != "ok" for _, r in results)
    inputs = sorted({idx for idx, _ in results})
    failed_inputs = sorted({idx for idx, r in results if r.outcome != "ok"})
    problems = [(idx, r) for idx, r in results if r.outcome in ("wrong", "error")]
    if not args.trace:
        problems += [(idx, res) for idx, res, _ in memory if res.outcome != "ok"]
    timed_out = sorted({idx for idx, r in results if r.outcome == "timeout"})
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "n": sorted({inst.n for inst in pool}), "m": [inst.m for inst in pool],
        "time_limit_s": wl.limit_s, "attempted": len(results), "failed": failed,
        "fail_ratio": failed / len(results), "attempted_inputs": len(inputs),
        "failed_inputs": failed_inputs, "timed_out_inputs": timed_out,
        "problems": [{"input": idx, "outcome": r.outcome, "detail": r.detail} for idx, r in problems[:5]],
        "ops": [{"input": idx, "outcome": r.outcome, "solve_s": r.solve_s,
                 "session_s": r.session_s, "scale": r.scale} for idx, r in results],
    }
    if args.trace:
        first_plain, first_traced = first_by_input(plain), first_by_input(traced)
        both = [i for i in first_traced if i in first_plain
                and first_plain[i].outcome == first_traced[i].outcome == "ok"]
        overhead = (sum(first_traced[i].session_s * first_traced[i].scale for i in both)
                    / sum(first_plain[i].session_s * first_plain[i].scale for i in both)
                    - 1.0) if both else 0.0
        values, absent, functions = layer_metrics(tracer, overhead)
        values["sliders.timeouts"] = float(len(timed_out)) if wl.name == "sliders" else 0.0
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        record.update(layer=values, absent=absent, functions=functions,
                      overhead_inputs=len(both), spans_file=spans_path.name)
    else:
        values, extra = end_to_end(results, pool, import_s, engine_load_s, memory)
        units = {name: unit for name, unit, _ in END_TO_END}
        record.update(end_to_end=values, **extra)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    ms = sorted(set(record["m"]))
    print(f"# {wl.name} seed={args.seed} n={record['n']} m={ms[0]}..{ms[-1]} inputs={len(pool)} "
          f"python={record['python']} "
          f"nproc={record['nproc']} trace={args.trace} limit={wl.limit_s}s")
    for name, value in values.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    if not args.trace:
        if "certify_s_p50" in extra:
            print(f"{'certify_s_p50':32s} {extra['certify_s_p50']:.6g} s")
        raw = extra["unscaled"]
        print(f"unscaled: solve_s_p50 {raw['solve_s_p50']:.6g} s, session_s_p50 "
              f"{raw['session_s_p50']:.6g} s, set-up per input {raw['setup_s_per_input']:.6g} s, "
              f"first import {extra['import_s']:.6g} s; anchor scale p50 {extra['scale_p50']:.4g}; "
              f"process peak RSS {extra['process_peak_rss_mb']:.4g} MB")
        t = extra.get("solve_s_tail")
        print(f"{'solve_s_tail':32s} " + (f"{t['value']:.6g} s (p{t['percentile']:.0f} of "
              f"{t['samples']} samples, 10 beyond)" if t else
              f"n/a ({len(results)} samples; needs 20)"))
    else:
        print(f"absent: {', '.join(absent) or 'none'}; spans: {spans_path.name}")
    print(f"{'fail_ratio':32s} {record['fail_ratio']:.6g} 1 ({failed} of {len(results)} "
          f"operations; {len(failed_inputs)} of {len(inputs)} inputs; timed-out inputs {timed_out})")
    for p in record["problems"]:
        print(f"problem on input {p['input']}: {p['outcome']}: {p['detail']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(inputs),
        "failed": len(failed_inputs),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
