"""Slider-pinning checks: graded tightness and axis-parallel loop matching.

A bar-slider structure is modeled as a multigraph whose loops mark pinned
vertices (at most two per vertex).  It is minimally pinned when the loopless
part is (2,3)-sparse and the whole graph, loops included, is (2,0)-tight.  In
the axis-parallel variant loops carry a color (0 = x, 1 = y) and the edges must
split into two forests, each tree spanning exactly one loop of its color.

Neither check plays a game or builds a game state.  Each decides its
sparsity counts with the uncolored orientation test `oracle.overfull_subset`;
the axis-parallel check then finds the forest split by matroid partition.
"""

from __future__ import annotations

from .graph import Multigraph, SparsityParams
from .oracle import overfull_subset

_PARAMS_23 = SparsityParams(2, 3)
_PARAMS_20 = SparsityParams(2, 0)

X_LOOP = 0
Y_LOOP = 1


def graded_tight_check(g: Multigraph) -> bool:
    """Is g (2,0,3)-graded-tight (loopless part (2,3)-sparse, whole (2,0)-tight)?

    Straight from the definition: the whole graph has exactly 2n edges, and
    the uncolored orientation test `overfull_subset` finds no overfull set in
    the loopless part under (2,3) nor in the whole graph under (2,0), where
    one pebble pays for a loop.
    """
    loop_count = [0] * g.n
    for u, v in g.edges:
        if u == v:
            loop_count[u] += 1
            if loop_count[u] > 2:
                raise ValueError(f"vertex {u} carries more than 2 loops")
    if g.n < 1:
        raise ValueError("the game needs at least one vertex")
    if g.m != 2 * g.n:
        return False
    loopless = Multigraph(g.n, [(u, v) for u, v in g.edges if u != v])
    return overfull_subset(loopless, _PARAMS_23) is None and overfull_subset(g, _PARAMS_20) is None


def _rooted_forest(
    n: int, edges: list[tuple[int, int]], node: list[int], owner: list[int], color: int
):
    """Root every tree of the color's forest on the contracted vertices 0..n.

    Returns per vertex its tree id, the edge to its parent, the parent and its
    depth.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for e, (u, v) in enumerate(edges):
        if owner[e] == color:
            adj[node[u]].append(e)
            adj[node[v]].append(e)
    tree = [-1] * (n + 1)
    up = [-1] * (n + 1)
    par = [-1] * (n + 1)
    depth = [0] * (n + 1)
    for root in range(n + 1):
        if tree[root] >= 0:
            continue
        tree[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for e in adj[x]:
                a, b = node[edges[e][0]], node[edges[e][1]]
                y = b if a == x else a
                if tree[y] < 0:
                    tree[y], up[y], par[y], depth[y] = root, e, x, depth[x] + 1
                    stack.append(y)
    return tree, up, par, depth


def _augment(
    n: int, edges: list[tuple[int, int]], node: list[list[int]], owner: list[int], start: int
) -> bool:
    """Insert edge `start` into one of the two forests along a shortest exchange path.

    An arc f -> g (into color c) means f enters forest c and g, on the cycle f
    would close there, leaves it for the other forest.  The search ends at an
    edge that joins two trees of a forest it is not in.  False when no path
    exists, i.e. the placed edges plus `start` cannot be split at all.
    """
    forests = [_rooted_forest(n, edges, node[c], owner, c) for c in range(2)]
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
            tree, up, par, depth = forests[c]
            if tree[a] != tree[b]:
                while f >= 0:
                    nxt = back[f]
                    owner[f] = c
                    f, c = nxt
                return True
            while a != b:  # the cycle f closes in forest c
                if depth[a] < depth[b]:
                    a, b = b, a
                g = up[a]
                if g not in back:
                    back[g] = (f, c)
                    queue.append(g)
                a = par[a]
    return False


def _tree_pair_exists(n: int, edges: list[tuple[int, int]], loops: list[tuple[int, int]]) -> bool:
    """Can the edges be 2-colored into forests whose trees each span exactly one
    loop of their color?

    Contracting the vertices looped in color c into one extra vertex n turns
    the color-c forest into a spanning tree of the contracted graph, so this is
    Edmonds' matroid partition into two graphic matroids.  Edges go greedily
    into the first forest that takes them; each leftover is then inserted by
    `_augment`.  Polynomial and iterative.  The caller has checked that there
    are exactly 2n - len(loops) edges.
    """
    node = [list(range(n)) for _ in range(2)]
    for v, c in loops:
        node[c][v] = n
    parent = [list(range(n + 1)) for _ in range(2)]

    def find(p: list[int], x: int) -> int:
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    owner = [-1] * len(edges)
    for e, (u, v) in enumerate(edges):
        for c in range(2):
            ra, rb = find(parent[c], node[c][u]), find(parent[c], node[c][v])
            if ra != rb:
                parent[c][ra] = rb
                owner[e] = c
                break
    # Forest c holds at most n - loops_c edges (a spanning tree of the
    # contracted graph), or n - 1 when no loop has color c.  With m = 2n -
    # loops a complete placement therefore fills both forests exactly, so
    # every tree spans one loop of its color; a color without a loop leaves
    # room for fewer than m edges, and `_augment` fails on some edge.
    for e in range(len(edges)):
        if owner[e] < 0 and not _augment(n, edges, node, owner, e):
            return False
    return True


def axis_parallel_slider_check(g: Multigraph, loop_colors: dict[int, int]) -> bool:
    """Is g minimally pinned with axis-parallel sliders?

    `loop_colors` maps each loop edge id of g to 0 (x) or 1 (y); at most one
    loop of each color per vertex.  Keys and colors must be plain ints: a
    bool, a float or any other type raises `ValueError`.  True iff the
    loopless part is (2,3)-sparse and the edges admit a 2-coloring into
    forests with each tree spanning exactly one loop of its color.  The edge
    total must be 2n minus the loops, and the uncolored orientation test
    `overfull_subset` decides (2,3)-sparsity of the loopless part without a
    colored game; an iterative matroid partition (Edmonds 1965) then decides
    the forest split exactly in polynomial time.
    """
    loops: list[tuple[int, int]] = []  # (vertex, color)
    seen_per_vertex: set[tuple[int, int]] = set()
    plain_edges = []
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            if eid not in loop_colors:
                raise ValueError(f"loop edge {eid} has no color")
            c = loop_colors[eid]
            if type(c) is not int or c not in (X_LOOP, Y_LOOP):
                raise ValueError(f"loop edge {eid} color must be 0 (x) or 1 (y)")
            if (u, c) in seen_per_vertex:
                raise ValueError(f"vertex {u} carries two loops of color {c}")
            seen_per_vertex.add((u, c))
            loops.append((u, c))
        else:
            plain_edges.append((u, v))
    for eid in loop_colors:
        if type(eid) is not int:  # exactly int: True and 0.0 would look up edges 1 and 0
            raise ValueError(f"loop color key {eid!r} is not an int edge id")
        if not (0 <= eid < g.m) or not g.is_loop(eid):
            raise ValueError(f"loop color given for non-loop edge {eid}")

    if g.n < 1:
        raise ValueError("the game needs at least one vertex")
    if len(plain_edges) != 2 * g.n - len(loops):
        return False  # the whole graph cannot be (2,0)-tight
    if overfull_subset(Multigraph(g.n, plain_edges), _PARAMS_23) is not None:
        return False
    return _tree_pair_exists(g.n, plain_edges, loops)
