"""Independent ground truth: subset scans, partition search, enumeration, and
one polynomial sparsity check.

Everything here is deliberately implemented from the definitions (exhaustive
vertex-subset scans, exhaustive or pruned colorings) or, for
`overfull_subset`, from the uncolored pebble game, and never calls the pebble
engine's recognition path, so it can arbitrate the engine's answers.  The one
exception is the random generator, which plays the canonical game on purpose:
a game construction is sound by definition, which is exactly what makes its
output a valid tight sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator

from .graph import Multigraph, SparsityParams


class OracleSizeError(ValueError):
    """The requested brute-force computation is too large to scan."""


@dataclass
class OracleReport:
    sparse: bool
    tight: bool
    violating: tuple[int, ...] | None = None
    blocks: list[tuple[int, ...]] = field(default_factory=list)
    components: list[tuple[int, ...]] = field(default_factory=list)


def _subset_violates(m_sub: int, n_sub: int, params: SparsityParams) -> bool:
    # a subset constrains the count only when it spans an edge; otherwise the
    # bound k*n'-l can be negative on tiny subsets without meaning anything
    return m_sub > max(params.k * n_sub - params.l, 0)


def brute_force_sparse(g: Multigraph, params: SparsityParams, *, max_n: int = 20) -> OracleReport:
    """Scan every non-empty vertex subset against the m' <= k*n' - l count.

    Fills in all blocks (edge-bearing tight subsets) and the components
    (inclusion-maximal blocks) when the graph is sparse.
    """
    n = g.n
    if n > max_n:
        raise OracleSizeError(f"subset scan refused for n={n} > {max_n}")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    report = OracleReport(sparse=True, tight=False)
    blocks: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        n_sub = mask.bit_count()
        m_sub = sum(1 for em in edge_masks if em & mask == em)
        if _subset_violates(m_sub, n_sub, params):
            report.sparse = False
            report.violating = tuple(i for i in range(n) if mask >> i & 1)
            report.blocks = []
            report.components = []
            return report
        if m_sub >= 1 and m_sub == params.k * n_sub - params.l:
            blocks.append(tuple(i for i in range(n) if mask >> i & 1))
    report.tight = g.m == params.max_edges(n)
    report.blocks = blocks
    block_sets = [set(b) for b in blocks]
    report.components = [
        b
        for b, bs in zip(blocks, block_sets)
        if not any(bs < other for other in block_sets)
    ]
    return report


def overfull_subset(g: Multigraph, params: SparsityParams) -> tuple[int, ...] | None:
    """A vertex set spanning more than max(k*n' - l, 0) edges, or None if g is sparse.

    The uncolored pebble game of Lee & Streinu (Hakimi's orientation test):
    every vertex starts with k free pebbles, and an edge goes in once l + 1
    of them sit on its endpoints, oriented away from the endpoint that pays
    one.  A free pebble is fetched by reversing a shortest directed path to
    it.  When no pebble can be fetched, the vertices reachable from the
    endpoints are closed under out-edges and hold at most l free pebbles, so
    with the new edge they span more than k*n' - l edges.  Shares no code
    with the colored engine, so it can arbitrate it at any n.
    """
    k, l = params.k, params.l
    free = [k] * g.n
    out: list[list[int]] = [[] for _ in range(g.n)]  # edge ids oriented away from v
    for e, (u, v) in enumerate(g.edges):
        if u == v and l >= k:
            return (u,)
        while (free[u] if u == v else free[u] + free[v]) <= l:
            parent = dict.fromkeys((u, v), -1)
            queue = list(parent)
            found = -1
            for x in queue:  # breadth-first; the list grows as it is walked
                for f in out[x]:
                    a, b = g.edges[f]
                    y = b if a == x else a
                    if y not in parent:
                        parent[y] = f
                        if free[y]:
                            found = y
                            break
                        queue.append(y)
                if found >= 0:
                    break
            if found < 0:
                return tuple(sorted(parent))
            free[found] -= 1
            y = found
            while parent[y] >= 0:
                f = parent[y]
                a, b = g.edges[f]
                x = a if b == y else b
                out[x].remove(f)
                out[y].append(f)
                y = x
            free[y] += 1
        payer = u if free[u] else v
        free[payer] -= 1
        out[payer].append(e)
    return None


# -- decomposition existence -----------------------------------------------------


def _forest_union(n: int) -> tuple[list[int], list[int]]:
    return list(range(n)), [1] * n


def brute_force_partition(
    g: Multigraph, params: SparsityParams, kind: str, *, max_n: int = 6, max_m: int = 12
) -> bool:
    """Exhaustively search edge colorings for a certificate of the given kind.

    kind "maps-and-trees": l spanning trees plus k-l spanning map-graphs.
    kind "ltk": l edge-disjoint trees with every vertex in exactly k of them
    and at least l tree-pieces in every subgraph on >= 2 vertices.
    """
    n, m = g.n, g.m
    if n > max_n or m > max_m:
        raise OracleSizeError(f"partition search refused for n={n}, m={m}")
    k, l = params.k, params.l
    if m != params.max_edges(n):
        return False
    if kind == "maps-and-trees":
        if not params.lower_range:
            raise ValueError("maps-and-trees lives in the lower range")
        return _search_maps_and_trees(g, params)
    if kind == "ltk":
        if not params.upper_range:
            raise ValueError("a proper tree decomposition lives in the upper range")
        # the piece-count identity makes properness a pure counting condition
        for mask in range(1, 1 << n):
            n_sub = mask.bit_count()
            if n_sub < 2:
                continue
            m_sub = sum(
                1
                for u, v in g.edges
                if (mask >> u & 1) and (mask >> v & 1)
            )
            if m_sub > k * n_sub - l:
                return False
        return _forest_coloring_exists(g, k)
    raise ValueError(f"unknown partition kind {kind!r}")


def _search_maps_and_trees(g: Multigraph, params: SparsityParams) -> bool:
    """Backtracking edge-color assignment with per-class feasibility pruning."""
    n, k, l = g.n, params.k, params.l
    tree_capacity = n - 1
    map_capacity = n
    parent = [list(range(n)) for _ in range(k)]
    size = [[1] * n for _ in range(k)]
    edges_in = [[0] * n for _ in range(k)]  # per-root edge counts for map classes
    counts = [0] * k
    undo: list[tuple[int, int, int, bool]] = []

    def find(c: int, x: int) -> int:
        p = parent[c]
        while p[x] != x:
            x = p[x]
        return x

    def assign(c: int, u: int, v: int) -> bool:
        if c < l:
            if counts[c] + 1 > tree_capacity or u == v:
                return False
            ra, rb = find(c, u), find(c, v)
            if ra == rb:
                return False  # tree classes stay acyclic
            if size[c][ra] < size[c][rb]:
                ra, rb = rb, ra
            undo.append((c, rb, ra, True))
            parent[c][rb] = ra
            size[c][ra] += size[c][rb]
            counts[c] += 1
            return True
        if counts[c] + 1 > map_capacity:
            return False
        ra, rb = find(c, u), find(c, v)
        if ra == rb:
            if edges_in[c][ra] + 1 > size[c][ra]:
                return False  # each map component holds at most one cycle
            undo.append((c, ra, ra, False))
            edges_in[c][ra] += 1
            counts[c] += 1
            return True
        if size[c][ra] < size[c][rb]:
            ra, rb = rb, ra
        if edges_in[c][ra] + edges_in[c][rb] + 1 > size[c][ra] + size[c][rb]:
            return False
        undo.append((c, rb, ra, True))
        parent[c][rb] = ra
        size[c][ra] += size[c][rb]
        edges_in[c][ra] += edges_in[c][rb] + 1
        counts[c] += 1
        return True

    def unwind(mark: int) -> None:
        while len(undo) > mark:
            c, rb, ra, merged = undo.pop()
            counts[c] -= 1
            if merged:
                parent[c][rb] = rb
                size[c][ra] -= size[c][rb]
                if c >= l:
                    edges_in[c][ra] -= edges_in[c][rb] + 1
            else:
                edges_in[c][ra] -= 1

    def final_ok() -> bool:
        for c in range(l):
            if counts[c] != n - 1:
                return False
            if size[c][find(c, 0)] != n:
                return False
        for c in range(l, k):
            if counts[c] != n:
                return False
            for v in range(n):
                r = find(c, v)
                if edges_in[c][r] != size[c][r]:
                    return False
        return True

    edges = list(g.edges)

    def rec(i: int) -> bool:
        if i == len(edges):
            return final_ok()
        u, v = edges[i]
        for c in range(k):
            mark = len(undo)
            if assign(c, u, v):
                if rec(i + 1):
                    return True
            unwind(mark)
        return False

    return rec(0)


def _forest_coloring_exists(g: Multigraph, k: int) -> bool:
    """Can the edges be split into k forests? (loops never fit in a forest)"""
    n = g.n
    parent = [list(range(n)) for _ in range(k)]
    size = [[1] * n for _ in range(k)]
    undo: list[tuple[int, int, int]] = []

    def find(c: int, x: int) -> int:
        p = parent[c]
        while p[x] != x:
            x = p[x]
        return x

    def union(c: int, u: int, v: int) -> bool:
        if u == v:
            return False
        ra, rb = find(c, u), find(c, v)
        if ra == rb:
            return False
        if size[c][ra] < size[c][rb]:
            ra, rb = rb, ra
        undo.append((c, rb, ra))
        parent[c][rb] = ra
        size[c][ra] += size[c][rb]
        return True

    def unwind(mark: int) -> None:
        while len(undo) > mark:
            c, rb, ra = undo.pop()
            parent[c][rb] = rb
            size[c][ra] -= size[c][rb]

    edges = list(g.edges)

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(k):
            mark = len(undo)
            if union(c, u, v):
                if rec(i + 1):
                    return True
            unwind(mark)
        return False

    return rec(0)


def brute_force_graded_tight(g: Multigraph, *, max_n: int = 8) -> bool:
    """Graded tightness straight from the definition, by two subset scans."""
    loopless = Multigraph(g.n, [(u, v) for u, v in g.edges if u != v])
    if not brute_force_sparse(loopless, SparsityParams(2, 3), max_n=max_n).sparse:
        return False
    whole = brute_force_sparse(g, SparsityParams(2, 0), max_n=max_n)
    return whole.sparse and whole.tight


def brute_force_axis_parallel(
    g: Multigraph, loop_colors: dict[int, int], *, max_m: int = 16
) -> bool:
    """Definition check: loopless part (2,3)-sparse, plus an exhaustive scan of
    edge 2-colorings for the forest/loop-tree matching condition."""
    plain = [(u, v) for u, v in g.edges if u != v]
    loops = [(u, loop_colors[eid]) for eid, (u, v) in enumerate(g.edges) if u == v]
    if len(plain) > max_m:
        raise OracleSizeError(f"coloring scan refused for m={len(plain)} > {max_m}")
    if not brute_force_sparse(Multigraph(g.n, plain), SparsityParams(2, 3)).sparse:
        return False
    n = g.n
    for assignment in range(1 << len(plain)):
        ok = True
        for c in range(2):
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for i, (u, v) in enumerate(plain):
                if (assignment >> i & 1) != c:
                    continue
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if not acyclic:
                ok = False
                break
            per_root: dict[int, int] = {}
            for v, lc in loops:
                if lc == c:
                    r = find(v)
                    per_root[r] = per_root.get(r, 0) + 1
            roots = {find(v) for v in range(n)}
            if any(per_root.get(r, 0) != 1 for r in roots):
                ok = False
                break
        if ok:
            return True
    return False


# -- enumeration and generation ----------------------------------------------------


def enumerate_small_multigraphs(n: int, m_max: int) -> Iterator[Multigraph]:
    """All multigraphs (loops, parallels) on n labeled vertices with <= m_max edges.

    Each graph appears exactly once up to edge order (edges are emitted as a
    sorted multiset of vertex pairs); no isomorphism reduction.
    """
    if n > 5 or m_max > 10:
        raise OracleSizeError("enumeration refused beyond n=5, m_max=10")
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    for m in range(m_max + 1):
        for combo in combinations_with_replacement(slots, m):
            yield Multigraph(n, combo)


TIGHT_ENUMERATION_LIMIT = 2_000_000


def enumerate_tight_graphs(n: int, params: SparsityParams) -> Iterator[Multigraph]:
    """All (k,l)-tight multigraphs on n labeled vertices, one per edge multiset.

    Depth-first over edge slots with an incremental subset-count prune: adding
    an edge can only break the count on subsets containing both endpoints.
    The whole list is built before the first graph is returned, so the size
    guard fires at the call: more than `TIGHT_ENUMERATION_LIMIT` candidate
    edge multisets (`count_tight_candidates`) raises `OracleSizeError`.
    """
    # every n >= 8 is past the limit for every (k, l); testing n first keeps
    # the candidate count, a binomial of about n^2/2, cheap to compute
    if n >= 8 or count_tight_candidates(n, params) > TIGHT_ENUMERATION_LIMIT:
        raise OracleSizeError(
            f"tight enumeration refused for n={n}: over {TIGHT_ENUMERATION_LIMIT} candidates"
        )
    target = params.max_edges(n)
    if target < 0:
        return iter(())
    if target == 0:
        return iter([Multigraph(n, [])])
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    k, l = params.k, params.l
    span = [0] * (1 << n)
    subsets_of: list[list[int]] = []
    for u, v in slots:
        em = (1 << u) | (1 << v)
        subsets_of.append([mask for mask in range(1 << n) if mask & em == em])
    chosen: list[tuple[int, int]] = []
    out: list[Multigraph] = []

    def rec(slot_idx: int, remaining: int):
        if remaining == 0:
            out.append(Multigraph(n, list(chosen)))
            return
        if slot_idx >= len(slots):
            return
        # option: use this slot (possibly again), if the counts survive
        u, v = slots[slot_idx]
        ok = True
        for mask in subsets_of[slot_idx]:
            n_sub = mask.bit_count()
            if span[mask] + 1 > max(k * n_sub - l, 0):
                ok = False
                break
        if ok:
            for mask in subsets_of[slot_idx]:
                span[mask] += 1
            chosen.append((u, v))
            rec(slot_idx, remaining - 1)
            chosen.pop()
            for mask in subsets_of[slot_idx]:
                span[mask] -= 1
        rec(slot_idx + 1, remaining)

    rec(0, target)
    return iter(out)


def count_tight_candidates(n: int, params: SparsityParams) -> int:
    """Upper bound on the enumeration tree size (multisets of slots)."""
    from math import comb

    m = params.max_edges(n)
    if m < 0:
        return 0
    slots = n * (n + 1) // 2
    return comb(slots + m - 1, m)


def random_tight_graph(n: int, params: SparsityParams, seed: int) -> Multigraph:
    """A seeded random (k,l)-tight multigraph, built by playing the game.

    Uniformly random vertex pairs are proposed and added canonically when
    legal, until k*n - l edges are in place; the construction itself guarantees
    tightness.  Deterministic per seed.
    """
    from .canonical import play_edge
    from .pebbles import GameState

    target = params.max_edges(n)
    if target < 0:
        raise ValueError(f"k*n - l is negative for n={n}")
    rng = random.Random(seed)
    state = GameState(n, params)
    edges: list[tuple[int, int]] = []
    stale = 0
    while len(edges) < target:
        if stale > 20 * n * n + 100:
            # rejection sampling has stalled; scan for any addable pair, else
            # no (k,l)-tight graph on n vertices exists at all
            pair = next(
                ((u, v) for u in range(n) for v in range(u, n) if play_edge(state, u, v)),
                None,
            )
            if pair is None:
                raise ValueError(
                    f"no ({params.k},{params.l})-tight graph exists on {n} vertices"
                )
            edges.append(pair)
            stale = 0
            continue
        u = rng.randrange(n)
        v = rng.randrange(n)
        if play_edge(state, u, v):
            edges.append((u, v))
            stale = 0
        else:
            stale += 1
    return Multigraph(n, edges)
