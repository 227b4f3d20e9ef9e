"""Independent ground truth: subset scans, one split search, enumeration, and
one polynomial sparsity check.

Everything here is deliberately implemented from the definitions (exhaustive
vertex-subset scans, an exhaustive search for edge splits) or, for
`overfull_subset`, from the uncolored pebble game, and never calls the pebble
engine's recognition path, so it can arbitrate the engine's answers.  All
three decomposition checks (maps-and-trees, proper lTk, axis-parallel
sliders) run one backtracking search, `_split_exists`, for a split of the
edges into forests and pseudoforests.  The maps-and-trees and slider checks
first fix the edge count at the classes' total capacity, so a complete split
fills every class and no fill check follows it.  The one exception
is the random generator, which plays the canonical game on purpose: a game
construction is sound by definition, which is exactly what makes its output a
valid tight sample.

`overfull_subset` is also the engine's exact sparsity decision where no
coloring is needed: certificate validation (`decompose.validate_certificate`)
calls it, and both slider checks (`sliders.graded_tight_check` and
`sliders.axis_parallel_slider_check`) play its game, `_orient`, straight on
their edge lists; the graded check resumes one orientation for its loops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Sequence

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

    The uncolored pebble game of Lee & Streinu (Hakimi's orientation test),
    played by `_orient` from a fresh orientation: every vertex starts with k
    free pebbles, and an edge goes in once l + 1 of them sit on its endpoints,
    oriented away from the endpoint that pays one.  A free pebble is fetched
    by reversing a shortest directed path to it.  When no pebble can be
    fetched, the vertices reachable from the endpoints are closed under
    out-edges and hold at most l free pebbles, so with the new edge they span
    more than k*n' - l edges: the unique smallest overfull set of the
    shortest non-sparse prefix of g.edges.  The game holds n free-pebble
    counts and, per vertex, the heads of its out-edges, m ints in all; it
    numbers no edge and allocates nothing per search beyond its queue.
    Shares no code with the colored engine, so it arbitrates it at any n.
    """
    return _orient(g.n, params, g.edges)[0]


# free pebbles per vertex, and each vertex's out-neighbours: the head of each
# of its out-edges, once per edge, so a parallel edge or a loop is one more entry
_Orientation = tuple[list[int], list[list[int]]]


def _orient(
    n: int,
    params: SparsityParams,
    edges: Iterable[tuple[int, int]],
    orientation: _Orientation | None = None,
) -> tuple[tuple[int, ...] | None, _Orientation]:
    """Play the uncolored (k,l) pebble game on `edges` (pairs in 0..n-1), from
    `orientation` or, without it, from no edges; return the overfull set at
    the first edge that does not fit (None if all fit) and the orientation.

    The orientation is updated in place, so the edges placed before a failure
    stay placed.  A resumed orientation must come from a game with the same k,
    and every vertex's out-degree in it is at most k.  Resumed under (k,0),
    the game decides (k,0)-sparsity of all edges played so far: a pebble
    search from any orientation with out-degree at most k finds a free pebble
    exactly when the edge set stays (k,0)-sparse (Hakimi), and sparsity does
    not depend on the order the edges came in.  The game numbers no edge:
    parallel edges are interchangeable, so reversing a path step x -> y
    removes one entry y from x's list and appends x to y's.
    """
    k, l = params.k, params.l
    if orientation is None:
        orientation = [k] * n, [[] for _ in range(n)]
    free, out = orientation
    mark = [0] * n  # mark[y] == stamp: the current search reached y
    via = [-1] * n  # via[y]: the vertex that search reached y from, -1 at a source
    stamp = 0
    for u, v in edges:
        if u == v and l >= k:
            return (u,), orientation
        while (free[u] if u == v else free[u] + free[v]) <= l:
            stamp += 1
            mark[u] = mark[v] = stamp
            via[u] = via[v] = -1
            queue = [u, v] if u != v else [u]
            found = -1
            for x in queue:  # breadth-first; the list grows as it is walked
                for y in out[x]:
                    if mark[y] != stamp:
                        mark[y] = stamp
                        via[y] = x
                        if free[y]:
                            found = y
                            break
                        queue.append(y)
                if found >= 0:
                    break
            if found < 0:
                return tuple(sorted(queue)), orientation  # a failed search queued all it reached
            free[found] -= 1
            y = found
            x = via[y]
            while x >= 0:
                out[x].remove(y)
                out[y].append(x)
                y = x
                x = via[y]
            free[y] += 1
        payer = u if free[u] else v
        free[payer] -= 1
        out[payer].append(v if payer == u else u)
    return None, orientation


# -- decomposition existence -----------------------------------------------------


def brute_force_partition(
    g: Multigraph, params: SparsityParams, kind: str, *, max_n: int = 6, max_m: int = 12
) -> bool:
    """Exhaustively search edge colorings for a certificate of the given kind.

    kind "maps-and-trees": l spanning trees plus k-l spanning map-graphs.
    kind "ltk": l edge-disjoint trees with every vertex in exactly k of them
    and at least l tree-pieces in every subgraph on >= 2 vertices.
    """
    if kind == "maps-and-trees":
        if not params.lower_range:
            raise ValueError("maps-and-trees lives in the lower range")
    elif kind == "ltk":
        if not params.upper_range:
            raise ValueError("a proper tree decomposition lives in the upper range")
    else:
        raise ValueError(f"unknown partition kind {kind!r}")
    n, m = g.n, g.m
    if n > max_n or m > max_m:
        raise OracleSizeError(f"partition search refused for n={n}, m={m}")
    k, l = params.k, params.l
    if m != params.max_edges(n):
        return False
    if kind == "maps-and-trees":
        # a forest holds at most n-1 edges and a pseudoforest at most n, so
        # l forests and k-l pseudoforests hold at most k*n - l = m: a split
        # of all m edges fills every class, which makes each forest a
        # spanning tree and each pseudoforest a spanning map-graph
        return _split_exists(n, g.edges, [False] * l + [True] * (k - l))
    # ltk: the piece-count identity makes properness (k,l)-sparsity; a loop
    # fails the singleton count and fits no forest either
    return brute_force_sparse(g, params, max_n=max_n).sparse and _split_exists(
        n, g.edges, [False] * k
    )


def _split_exists(
    n: int,
    edges: Sequence[tuple[int, int]],
    closes: list[bool],
    cycles: list[list[int]] | None = None,
) -> bool:
    """Can the edges be split into len(closes) classes where every component
    of a class holds at most one cycle?

    An edge may close a cycle only in a class c with closes[c], so a class
    without it and without pre-placed cycles is a forest.  cycles[c][v] is 1
    where one cycle is pre-placed on vertex v in class c, else 0.  Exhaustive
    backtracking over one union-find per class, whose roots count their
    component's cycles, undone as the search backs out; a branch is cut only
    when its last edge breaks these rules, which no later edge can repair.
    """
    k = len(closes)
    parent = [list(range(n)) for _ in range(k)]
    cyc = [list(row) for row in cycles] if cycles else [[0] * n for _ in range(k)]

    def find(p: list[int], x: int) -> int:
        while p[x] != x:
            x = p[x]
        return x

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(k):
            p, cy = parent[c], cyc[c]
            ra, rb = find(p, u), find(p, v)
            added = 1 if ra == rb else cy[rb]  # a closing edge adds one cycle
            if (ra == rb and not closes[c]) or cy[ra] + added > 1:
                continue
            p[rb] = ra
            cy[ra] += added
            if rec(i + 1):
                return True
            p[rb] = rb
            cy[ra] -= added
        return False

    return rec(0)


def slider_loops(
    g: Multigraph, loop_colors: dict[int, int] | None = None
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (vertex, color) loops of a slider instance and its loopless edges,
    each in edge order, from one walk over the edges; raises ValueError for
    input that no slider check accepts, and for n < 1.

    Without `loop_colors` (graded tightness) a vertex's first loop has color
    0 and its second color 1, and a third is refused.  With it, the map sends
    each loop edge id to 0 (x) or 1 (y), at most one loop of each color per
    vertex; keys and colors must be plain ints (not a bool or a float), and
    every key must be a loop of g.  The slider checks and their brute-force
    oracles all refuse input here, so they refuse it alike.
    """
    loops: list[tuple[int, int]] = []
    plain: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for eid, edge in enumerate(g.edges):
        u, v = edge
        if u != v:
            plain.append(edge)
            continue
        if loop_colors is None:
            if (u, 1) in seen:
                raise ValueError(f"vertex {u} carries more than 2 loops")
            c = int((u, 0) in seen)
        else:
            if eid not in loop_colors:
                raise ValueError(f"loop edge {eid} has no color")
            c = loop_colors[eid]
            if type(c) is not int or c not in (0, 1):
                raise ValueError(f"loop edge {eid} color must be 0 (x) or 1 (y)")
            if (u, c) in seen:
                raise ValueError(f"vertex {u} carries two loops of color {c}")
        seen.add((u, c))
        loops.append((u, c))
    for eid in loop_colors or ():
        if type(eid) is not int:  # exactly int: True and 0.0 would look up edges 1 and 0
            raise ValueError(f"loop color key {eid!r} is not an int edge id")
        if not (0 <= eid < g.m) or not g.is_loop(eid):
            raise ValueError(f"loop color given for non-loop edge {eid}")
    if g.n < 1:
        raise ValueError("the game needs at least one vertex")
    return loops, plain


def brute_force_graded_tight(g: Multigraph, *, max_n: int = 8) -> bool:
    """Graded tightness straight from the definition, by two subset scans; it
    refuses input in `slider_loops`, as `sliders.graded_tight_check` does."""
    _, plain = slider_loops(g)
    loopless = Multigraph(g.n, plain)
    if not brute_force_sparse(loopless, SparsityParams(2, 3), max_n=max_n).sparse:
        return False
    whole = brute_force_sparse(g, SparsityParams(2, 0), max_n=max_n)
    return whole.sparse and whole.tight


def brute_force_axis_parallel(
    g: Multigraph, loop_colors: dict[int, int], *, max_m: int = 16
) -> bool:
    """Definition check: loopless part (2,3)-sparse, plus an exhaustive search
    for a split of the loopless edges into two forests whose trees each span
    exactly one loop of their color.

    `loop_colors` maps each loop edge id to 0 (x) or 1 (y), at most one loop
    of each color per vertex, keys and colors plain ints (no bool); a
    malformed map or an empty vertex set raises in `slider_loops`, as
    `sliders.axis_parallel_slider_check` does.  The loops are pre-placed as
    cycles of their color in `_split_exists`, which keeps every tree to at
    most one.  Color c then has at least as many trees as loops, so its
    forest holds at most n minus its loops in edges; with exactly 2n - loops
    loopless edges a full split meets both bounds, and every tree spans
    exactly one loop.
    """
    n = g.n
    loops, plain = slider_loops(g, loop_colors)
    cycles = [[0] * n for _ in range(2)]
    for u, c in loops:
        cycles[c][u] = 1
    if len(plain) > max_m:
        raise OracleSizeError(f"split search refused for m={len(plain)} > {max_m}")
    if not brute_force_sparse(Multigraph(n, plain), SparsityParams(2, 3)).sparse:
        return False
    if len(plain) != 2 * n - (g.m - len(plain)):
        return False
    return _split_exists(n, plain, [False, False], cycles)


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
