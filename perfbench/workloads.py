"""Seeded input generators and the timed user operation of each workload.

Every workload builds its inputs from the run seed alone, writes them as graph
files, and then drives the engine only through the entry point a user calls:
`cli.main([...])` for decompose, certify and recognize, and the two public
slider checks for slider instances.  Each operation checks its own answer
against the answer the generator planted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path


class OpTimeout(Exception):
    """Raised by the alarm handler when an operation runs past its limit."""


@dataclass
class Instance:
    """One generated input: its graph file and what the engine must answer."""

    path: Path
    n: int
    m: int
    positive: bool = True
    loop_colors: dict[int, int] = field(default_factory=dict)
    setup_s: float = 0.0
    scale: float = 1.0  # anchor scale factor measured around the set-up


@dataclass
class OpResult:
    """Outcome of one timed operation on one instance."""

    solve_s: float
    session_s: float
    certify_s: float | None = None
    outcome: str = "ok"  # ok | wrong | timeout | error
    detail: str = ""
    scale: float = 1.0  # anchor scale factor measured around the operation


def _cli(sk, argv: list[str]) -> tuple[int, str]:
    """Run the command line front end in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sk.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _planted_tight(sk, n: int, k: int, l: int, rng: random.Random):
    return sk.oracle.random_tight_graph(n, sk.graph.SparsityParams(k, l), rng.randrange(2**31))


def _save(sk, g, workdir: Path, name: str, index: int) -> Path:
    path = workdir / f"{name}-{index}.txt"
    path.write_text(sk.graph.write_graph(g), encoding="utf-8")
    return path


# Limit for one graph-workload operation; none comes near it.
GRAPH_LIMIT_S = 60.0


class TightWorkload:
    """Random (k,l)-tight graphs: decompose, then certify the certificate written."""

    def __init__(self, name: str, k: int, l: int, kind: str, n: int, pool: int):
        self.name, self.k, self.l, self.kind, self.n, self.pool = name, k, l, kind, n, pool
        self.limit_s = GRAPH_LIMIT_S

    def generate(self, sk, rng: random.Random, index: int, workdir: Path) -> Instance:
        g = _planted_tight(sk, self.n, self.k, self.l, rng)
        return Instance(_save(sk, g, workdir, self.name, index), g.n, g.m)

    def run(self, sk, inst: Instance, span) -> OpResult:
        cert = inst.path.with_suffix(".cert.json")
        kl = ["--k", str(self.k), "--l", str(self.l)]
        t0 = time.perf_counter()
        with span("cli.decompose"):
            code, out = _cli(sk, ["decompose", *kl, "--kind", self.kind, str(inst.path), "-o", str(cert)])
        t1 = time.perf_counter()
        if code != 0:
            return OpResult(t1 - t0, t1 - t0, None, "wrong", f"decompose exit {code}: {out.strip()}")
        with span("cli.certify"):
            code, out = _cli(sk, ["certify", str(inst.path), str(cert)])
        t2 = time.perf_counter()
        res = OpResult(t1 - t0, t2 - t0, t2 - t1)
        if code != 0 or out.strip() != "valid":
            res.outcome, res.detail = "wrong", f"certify exit {code}: {out.strip()}"
        return res


class DenseWorkload:
    """A (2,3)-tight graph buried in random extra edges up to m = 20n, shuffled.

    The planted tight subgraph spans every vertex, so the maximum (2,3)-sparse
    subgraph has exactly 2n - 3 edges and the game must accept exactly that many.
    """

    name = "dense-23"
    density = 20

    def __init__(self, n: int, pool: int):
        self.n, self.pool = n, pool
        self.limit_s = GRAPH_LIMIT_S

    def bury(self, sk, tight, rng: random.Random):
        """Add random non-loop edges to `tight` up to density * n, then shuffle."""
        n = tight.n
        edges = list(tight.edges)
        while len(edges) < self.density * n:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        rng.shuffle(edges)
        return sk.graph.Multigraph(n, edges)

    def generate(self, sk, rng: random.Random, index: int, workdir: Path) -> Instance:
        g = self.bury(sk, _planted_tight(sk, self.n, 2, 3, rng), rng)
        return Instance(_save(sk, g, workdir, self.name, index), g.n, g.m, positive=False)

    def run(self, sk, inst: Instance, span) -> OpResult:
        t0 = time.perf_counter()
        with span("cli.recognize"):
            code, out = _cli(sk, ["recognize", "--k", "2", "--l", "3", "--format", "json", str(inst.path)])
        dt = time.perf_counter() - t0
        res = OpResult(dt, dt)
        try:
            payload = json.loads(out.splitlines()[0])
        except (IndexError, json.JSONDecodeError):
            payload = {}
        want = 2 * inst.n - 3
        if code != 2 or payload.get("verdict") != "not-sparse" or payload.get("accepted") != want:
            res.outcome = "wrong"
            res.detail = f"recognize exit {code}, output {out.strip()!r}, want {want} accepted"
        return res


class SliderWorkload:
    """Planted minimally pinned slider instances and overfilled negatives.

    Positives: a (2,3)-tight graph plus one x/y loop per pebble that a game on a
    shuffled copy of its edges leaves behind; that game's coloring is the
    witness.  Negatives: two tight blocks joined by two disjoint edges, with
    all four loops in one block, so the counts match but the block overfills.
    """

    name = "sliders"

    def __init__(self, n: int, pool: int, negatives_every: int, limit_s: float):
        self.n, self.pool, self.negatives_every, self.limit_s = n, pool, negatives_every, limit_s

    def make_positive(self, sk, rng: random.Random):
        n = self.n
        base = _planted_tight(sk, n, 2, 3, rng)
        shuffled = list(base.edges)
        rng.shuffle(shuffled)
        state = sk.canonical.run_canonical_game(
            sk.graph.Multigraph(n, shuffled), sk.graph.SparsityParams(2, 3)
        ).state
        return self._with_loops(sk, n, list(base.edges), [
            (v, c) for v in range(n) for c in range(2) if state.pebbles[v][c] > 0
        ])

    def make_negative(self, sk, rng: random.Random):
        n = self.n
        a = n // 2
        block_a = _planted_tight(sk, a, 2, 3, rng)
        block_b = _planted_tight(sk, n - a, 2, 3, rng)
        edges = list(block_a.edges) + [(u + a, v + a) for u, v in block_b.edges]
        ua = rng.sample(range(a), 2)
        vb = rng.sample(range(a, n), 2)
        edges += [(ua[0], vb[0]), (ua[1], vb[1])]
        loops = rng.sample([(v, c) for v in range(a) for c in range(2)], 4)
        return self._with_loops(sk, n, edges, loops)

    @staticmethod
    def _with_loops(sk, n: int, edges: list, loops: list):
        colors = {}
        for v, c in loops:
            colors[len(edges)] = c
            edges.append((v, v))
        return sk.graph.Multigraph(n, edges), colors

    def generate(self, sk, rng: random.Random, index: int, workdir: Path) -> Instance:
        positive = (index + 1) % self.negatives_every != 0
        g, colors = (self.make_positive if positive else self.make_negative)(sk, rng)
        return Instance(_save(sk, g, workdir, self.name, index), g.n, g.m, positive, colors)

    def run(self, sk, inst: Instance, span) -> OpResult:
        t0 = time.perf_counter()
        with span("sliders.op"):
            g = sk.graph.parse_graph(inst.path.read_text(encoding="utf-8"))
            graded = sk.sliders.graded_tight_check(g)
            axis = sk.sliders.axis_parallel_slider_check(g, inst.loop_colors)
        dt = time.perf_counter() - t0
        res = OpResult(dt, dt)
        if graded is not inst.positive or axis is not inst.positive:
            res.outcome = "wrong"
            res.detail = f"graded={graded} axis={axis}, want {inst.positive}"
        return res


# n = 500 keeps one operation under a second, so a run of run_seconds holds
# tens of operations on several distinct inputs; the slider instances stay at
# n = 60, where the exponential axis-parallel fallback already times out.  A
# timed-out input runs only once, so the 120 slider inputs fit in one run.
WORKLOADS = {
    "rigid-23": TightWorkload("rigid-23", 2, 3, "proper-ltk", n=500, pool=8),
    "trees-33": TightWorkload("trees-33", 3, 3, "maps-and-trees", n=500, pool=8),
    "dense-23": DenseWorkload(n=500, pool=6),
    "sliders": SliderWorkload(n=60, pool=120, negatives_every=10, limit_s=0.25),
}
