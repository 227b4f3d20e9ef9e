"""Slider-pinning checks: graded tightness and axis-parallel loop matching.

A bar-slider structure is modeled as a multigraph whose loops mark pinned
vertices (at most two per vertex).  It is minimally pinned when the loopless
part is (2,3)-sparse and the whole graph, loops included, is (2,0)-tight.  In
the axis-parallel variant loops carry a color (0 = x, 1 = y) and the edges must
split into two forests, each tree spanning exactly one loop of its color.

Neither check plays a colored game or builds a game state.  Each decides its
sparsity counts with the uncolored orientation game of
`oracle.overfull_subset`, played straight on the edge list from
`oracle.slider_loops`, so no loopless graph is copied; the graded check
resumes one orientation for its loops.  The axis-parallel check then finds
the forest split by matroid partition.  It keeps one parent-pointer forest per
color for the whole call and updates it in place: a union-find per color
drives the greedy phase, and each exchange cuts its leaving edges before it
links its entering ones; since the exchange path is a shortest one every link
joins two trees.
"""

from __future__ import annotations

from .graph import Multigraph, SparsityParams
from .oracle import _orient, slider_loops

_PARAMS_23 = SparsityParams(2, 3)
_PARAMS_20 = SparsityParams(2, 0)


def graded_tight_check(g: Multigraph) -> bool:
    """Is g (2,0,3)-graded-tight (loopless part (2,3)-sparse, whole (2,0)-tight)?

    The whole graph must have exactly 2n edges.  One uncolored orientation
    game (`oracle._orient`, the game of `overfull_subset`) then plays the
    loopless edges under (2,3) and, when they all fit, resumes the same
    orientation with only the loops under (2,0), where one pebble pays for a
    loop.  That is exact: (2,3)-sparse edges are (2,0)-sparse, a (2,0) search
    from their orientation decides (2,0)-sparsity of them plus the loops, and
    sparsity does not depend on edge order.  The game reads the edge list of
    `oracle.slider_loops` (which refuses bad input), so no edge is copied.
    """
    loops, plain = slider_loops(g)
    if g.m != 2 * g.n:
        return False
    witness, orientation = _orient(g.n, _PARAMS_23, plain)
    if witness is not None:
        return False
    return _orient(g.n, _PARAMS_20, [(v, v) for v, _ in loops], orientation)[0] is None


def _link(par: list[int], up: list[int], a: int, b: int, e: int) -> None:
    """Join a's tree to b's by edge e: re-root a's tree at a, then hang a under b."""
    while a >= 0:
        next_a, next_e = par[a], up[a]
        par[a], up[a] = b, e
        a, b, e = next_a, a, next_e


def _augment(
    edges: list[tuple[int, int]], node: list[list[int]], par: list[list[int]],
    up: list[list[int]], mark: list[int], owner: list[int], start: int,
) -> bool:
    """Insert edge `start` into one of the two forests along a shortest exchange path.

    An arc f -> g (into color c) means f enters forest c and g, on the cycle f
    would close there, leaves it for the other forest.  The search reads the
    forests as they stand: it stamps the root path of one end of f in `mark`
    and walks up from the other end to the first stamped vertex, the lowest
    common ancestor; an unstamped root means f joins two trees, which ends the
    search.  The exchange then cuts every edge that leaves a forest before it
    links any edge that enters one.  A breadth-first path is a shortest one,
    so each forest's final edge set is a forest; the cut forests hold subsets
    of it, so every link joins two trees.  False when no path exists, i.e.
    the placed edges plus `start` cannot be split at all.
    """
    back = {start: (-1, -1)}  # edge -> (edge that displaces it, color it enters)
    queue = [start]
    for f in queue:
        u, v = edges[f]
        for c in range(2):
            if owner[f] == c:
                continue
            a, b = node[c][u], node[c][v]
            if a == b:
                continue  # both ends are looped in this color: never placeable
            p, stamp = par[c], 2 * (start * len(edges) + f) + c  # one walk per (start, f, c)
            x = a
            while x >= 0:
                mark[x] = stamp
                x = p[x]
            y = b
            while mark[y] != stamp:
                if p[y] < 0:  # b's root is no ancestor of a: f joins two trees
                    g = f
                    while g != start:  # cut every leaving edge before any link
                        o, (i, j) = owner[g], edges[g]
                        x = node[o][i] if up[o][node[o][i]] == g else node[o][j]
                        par[o][x] = up[o][x] = -1  # x is g's child end
                        g = back[g][0]
                    while f >= 0:
                        owner[f] = c
                        _link(par[c], up[c], node[c][edges[f][0]], node[c][edges[f][1]], f)
                        f, c = back[f]
                    return True
                y = p[y]
            for x in (a, b):  # the cycle: parent edges up to the common ancestor y
                while x != y:
                    g = up[c][x]
                    if g not in back:
                        back[g] = (f, c)
                        queue.append(g)
                    x = p[x]
    return False


def _greedy(
    edges: list[tuple[int, int]], node: list[list[int]], par: list[list[int]],
    up: list[list[int]], owner: list[int],
) -> None:
    """Place each edge in the first forest whose trees it joins, if any.

    A union-find per color (path halving), held only for this phase, answers
    "same tree?", so the choice depends on connectivity alone.  The link
    re-roots the smaller of the two trees under the larger, so the phase
    re-roots O(n log n) vertices in all, and `_augment` starts from shallower
    trees than linking in edge order leaves.
    """
    root = [list(range(len(par[0]))) for _ in range(2)]
    size = [[1] * len(par[0]) for _ in range(2)]  # vertices in each union-find root's tree
    for e, (u, v) in enumerate(edges):
        for c in range(2):
            r, a, b = root[c], node[c][u], node[c][v]
            x, y = a, b
            while r[x] != x:
                r[x] = x = r[r[x]]
            while r[y] != y:
                r[y] = y = r[r[y]]
            if x != y:
                s = size[c]
                if s[x] > s[y]:
                    a, b, x, y = b, a, y, x
                _link(par[c], up[c], a, b, e)  # re-roots a's tree, the smaller one
                r[x] = y
                s[y] += s[x]
                owner[e] = c
                break


def _tree_pair_exists(
    n: int, edges: list[tuple[int, int]], loops: list[tuple[int, int]]
) -> list[int] | None:
    """The owner color of each edge in a split into two forests whose trees
    each span exactly one loop of their color, or None when there is none.

    Contracting the vertices looped in color c into one extra vertex n turns
    the color-c forest into a spanning tree of the contracted graph, so this is
    Edmonds' matroid partition into two graphic matroids.  Each color keeps
    one parent-pointer forest on the contracted vertices 0..n for the whole
    call, updated in place: `_greedy` places every edge it can, and each
    leftover is then inserted by `_augment`.  Polynomial and iterative.  The
    caller has checked that there are exactly 2n - len(loops) edges.
    """
    node = [list(range(n)) for _ in range(2)]
    for v, c in loops:
        node[c][v] = n
    par = [[-1] * (n + 1) for _ in range(2)]  # parent vertex, -1 at a root
    up = [[-1] * (n + 1) for _ in range(2)]  # edge to the parent
    mark = [-1] * (n + 1)
    owner = [-1] * len(edges)
    _greedy(edges, node, par, up, owner)
    # Forest c holds at most n - loops_c edges (a spanning tree of the
    # contracted graph), or n - 1 when no loop has color c.  With m = 2n -
    # loops a complete placement therefore fills both forests exactly, so
    # every tree spans one loop of its color; a color without a loop leaves
    # room for fewer than m edges, and `_augment` fails on some edge.
    for e in range(len(edges)):
        if owner[e] < 0 and not _augment(edges, node, par, up, mark, owner, e):
            return None
    return owner


def axis_parallel_slider_check(g: Multigraph, loop_colors: dict[int, int]) -> bool:
    """Is g minimally pinned with axis-parallel sliders?

    `loop_colors` maps each loop edge id of g to 0 (x) or 1 (y); at most one
    loop of each color per vertex.  Keys and colors must be plain ints: a
    bool, a float or any other type raises `ValueError`.  True iff the
    loopless part is (2,3)-sparse and the edges admit a 2-coloring into
    forests with each tree spanning exactly one loop of its color.  The edge
    total must be 2n minus the loops, and the uncolored orientation game of
    `overfull_subset` (`oracle._orient`) decides (2,3)-sparsity of the
    loopless part without a colored game; an iterative matroid partition
    (Edmonds 1965) then decides the forest split exactly in polynomial time.
    Both read the edge list of `oracle.slider_loops`, so no edge is copied
    into a new graph.
    """
    loops, plain_edges = slider_loops(g, loop_colors)
    if len(plain_edges) != 2 * g.n - len(loops):
        return False  # the whole graph cannot be (2,0)-tight
    if _orient(g.n, _PARAMS_23, plain_edges)[0] is not None:
        return False
    return _tree_pair_exists(g.n, plain_edges, loops) is not None
