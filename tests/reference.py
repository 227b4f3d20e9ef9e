"""Test-side references for statements the library certifies without
enumerating them.

`tree_pieces` builds the monochromatic tree-pieces of an induced subgraph and
`count_tree_pieces` counts them by the root rule; a forest decomposition has
exactly k*n' - m' pieces on every subset, which is why the library decides
the paper's "at least l tree-pieces everywhere" condition as sparsity.
`class_components` splits one color class into components by a breadth-first
search over a dict adjacency, for checking the library's union-find
`_forest`, and `tree_pieces` builds on it.  `monochromatic_cycle_colors`
scans a game state for the cycles that canonical slides must never close,
and `chain_reaches` follows one color-chain with a set of the vertices it has
seen, for checking the engine's chain walk, which keeps none.  `bfs_pebble`
is the pebble search with its own dict of discovering edges, for checking
the engine's search, which marks vertices in arrays the state keeps from one
search to the next.

The canonical game plays each edge through one private step.  `route_pebble`,
`collect_pebbles_canonically` and `canonical_add_edge` compose the same step
from the public moves alone (`find_pebble`, `bring_pebble_dynamic`,
`add_edge`), and read the canonical color off the slots, so a game composed of
them checks the private step without sharing its code.  `state_from_parts`
builds a state from hand-picked edges.
"""

from collections import deque
from typing import NamedTuple

from sparsity_kit import GameState, IllegalMoveError, add_edge, find_pebble
from sparsity_kit.canonical import bring_pebble_dynamic
from sparsity_kit.decompose import _out_slots


class Piece(NamedTuple):
    color: int
    vertices: frozenset[int]
    edge_ids: tuple[int, ...]
    root: int
    root_kind: str  # "pebble" | "out-edge"


def pebble_colors(state, v: int) -> list[int]:
    """The colors whose pebble sits on vertex v."""
    return [c for c, e in enumerate(state.out_color[v]) if e < 0]


def class_components(vertices, rows) -> list[tuple[int, list[int], list[int]]]:
    """(root, sorted edge ids, vertices) per connected component of one color
    class, singletons included, by breadth-first search over a dict adjacency.

    `rows` must lie inside `vertices` with at most one row per tail, so a
    component's edges are the out-edges of its vertices.  The root is the
    component's one vertex without an out-edge, or its least vertex when it
    has none (a cyclic component).  The library splits classes with
    `decompose._forest`, a union-find pass; this shares none of its code.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    out: dict[int, int] = {}
    for eid, u, v, _, tail in rows:
        adj[u].append(v)
        adj[v].append(u)
        out[tail] = eid
    comps = []
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:  # breadth-first: the list grows while it is walked
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        roots = [v for v in comp if v not in out]
        root = min(roots) if roots else min(comp)
        comps.append((root, sorted(out[v] for v in comp if v in out), comp))
    return comps


def tree_pieces(d, subset) -> list[Piece]:
    """All monochromatic tree-pieces of the subgraph of certificate `d` induced
    by `subset`.

    A piece is an acyclic monochromatic connected component of the induced
    subgraph, single-vertex "empty trees" included: every vertex belongs to
    every color's vertex set.  A piece is rooted at its one vertex with no
    out-edge of its color inside the subgraph; the root kind says whether that
    color slot is free (a pebble in game terms) or its out-edge leaves the
    subgraph.  `_out_slots` raises CertificateError on a malformed orientation.
    """
    s = frozenset(subset)
    slots = _out_slots(d)
    k = d.params.k
    pieces = []
    for color in range(k):
        inside = [e for v in s if (e := slots.get(v * k + color)) is not None and e.head in s]
        for root, eids, comp in class_components(s, inside):
            if len(eids) >= len(comp):
                continue  # holds a cycle inside the subgraph: a map piece
            kind = "pebble" if root * k + color not in slots else "out-edge"
            pieces.append(Piece(color, frozenset(comp), tuple(eids), root, kind))
    return pieces


def count_tree_pieces(d, subset) -> int:
    """The tree-piece count of `tree_pieces`, by the root rule, building no piece.

    A vertex roots a piece of a color exactly when its color slot is free or
    its out-edge leaves the subset.  A component with a root has fewer edges
    than vertices, so it is a tree, and a rootless one holds a cycle, so roots
    and tree-pieces are in bijection.
    """
    s = frozenset(subset)
    slots = _out_slots(d)
    k = d.params.k
    return sum(
        1 for v in s for c in range(k) if (e := slots.get(v * k + c)) is None or e.head not in s
    )


def monochromatic_cycle_colors(state) -> list[int]:
    """Colors that currently contain a directed monochromatic cycle (loops count).

    A vertex has at most one out-edge of each color, so its chain in a color
    either stops at a pebble within n steps or runs into a cycle.
    """
    bad = []
    for c in range(state.params.k):
        for x in range(state.n):
            for _ in range(state.n):
                e = state.out_color[x][c]
                if e < 0:
                    break
                x = state.heads[e]
            else:
                bad.append(c)
                break
    return bad


def chain_reaches(state, start: int, color: int, goal: int) -> bool:
    """Whether start's color-chain reaches `goal` in one or more steps.

    The walk stops at a pebble, or when it comes back to a vertex in its set
    of seen vertices, which means it went round a cycle that misses `goal`.
    """
    seen = {start}
    x = start
    while True:
        e = state.out_color[x][color]
        if e < 0:
            return False
        x = state.heads[e]
        if x == goal:
            return True
        if x in seen:
            return False
        seen.add(x)


def bfs_pebble(state, source: int, forbidden=frozenset()):
    """`find_pebble`'s answer from a fresh search: (path, reached set).

    Breadth-first from `source`, each vertex's out-slots in color order,
    stopping at the first pebbled vertex outside `forbidden`; the path is
    read back through a dict of discovering edges.
    """
    via = {source: -1}
    if state.peb_sum[source] > 0 and source not in forbidden:
        return [], set(via)
    queue = deque([source])
    while queue:
        for e in state.out_color[queue.popleft()]:
            if e < 0 or (y := state.heads[e]) in via:
                continue
            via[y] = e
            if state.peb_sum[y] > 0 and y not in forbidden:
                path = []
                while y != source:
                    path.append(via[y])
                    y = state.tails[via[y]]
                return path[::-1], set(via)
            queue.append(y)
    return None, set(via)


def state_from_parts(n: int, params, edges) -> GameState:
    """A state built directly from (tail, head, color) edges.

    Each edge fills its tail's slot of its color; every slot left empty holds
    its pebble, so the pebbles follow from the edges.  Only structural
    impossibilities (an endpoint or color out of range, two same-color
    out-edges at one vertex) are rejected.
    """
    state = GameState(n, params)
    for t, h, c in edges:
        if not (0 <= t < n and 0 <= h < n and 0 <= c < params.k):
            raise ValueError(f"edge {(t, h, c)} is out of range for n={n}, k={params.k}")
        if state.out_color[t][c] != -1:
            raise ValueError(f"vertex {t} would have two outgoing edges of color {c}")
        state.out_color[t][c] = len(state.tails)
        state.tails.append(t)
        state.heads.append(h)
        state.colors.append(c)
        state.in_tails[h].append(t)
        state.peb_sum[t] -= 1
    return state


def route_pebble(state, target: int, forbidden=frozenset()) -> bool:
    """Bring the nearest pebble from outside `forbidden` onto `target`:
    `find_pebble`, then `bring_pebble_dynamic`.  False, with the state
    untouched, when no pebble is reachable."""
    path, _ = find_pebble(state, target, forbidden)
    if path is None:
        return False
    bring_pebble_dynamic(state, path)
    return True


def collect_pebbles_canonically(state, v: int, w: int) -> bool:
    """Route pebbles onto {v, w}, v first and then w, until it holds l+1;
    False when the pebbles reachable from a short endpoint run out."""
    k, l = state.params.k, state.params.l
    forbidden = {v, w}
    while (state.peb_sum[v] if v == w else state.peb_sum[v] + state.peb_sum[w]) <= l:
        if state.peb_sum[v] < k and route_pebble(state, v, forbidden):
            continue
        if v == w or state.peb_sum[w] == k or not route_pebble(state, w, forbidden):
            return False
    return True


def canonical_add_edge(state, v: int, w: int) -> None:
    """Add vw with the canonical color, through the public `add_edge`.

    The lowest color with a pebble on both of two distinct endpoints, and
    otherwise the highest color with a pebble on either; a loop takes the
    highest color on its vertex.
    """
    on_v, on_w = pebble_colors(state, v), pebble_colors(state, w)
    shared = [c for c in on_v if c in on_w] if v != w else []
    present = on_v + on_w
    if not present:
        raise IllegalMoveError("no pebble available on either endpoint")
    add_edge(state, v, w, shared[0] if shared else max(present))
