"""Canonical pebble game: cycle-avoiding moves and the full construction.

Canonical add-edge covers a new edge with a color carried by both endpoints
when one exists (so the two tree roots merge without closing a cycle) and with
the highest color present otherwise.  Canonical slides never close a
monochromatic cycle: the breadth-first `find_pebble` finds the nearest pebble
and `bring_pebble_dynamic`, the one path executor, brings it along that
shortest path, shortcutting along a monochromatic tree wherever every
available cover would close a cycle.  One chain walk, `_chain_reaches`,
answers both the cycle check `creates_monochromatic_cycle` and the shortcut's
search for its start, and keeps no record of where it has been: a chain is a
walk with one out-edge per step, so within n steps it reaches a pebble, the
goal, or a cycle, and a cycle is caught when the walk comes back to a vertex
it remembered (Brent's method).

`run_canonical_game` plays each edge through one private step, `_play_edge`:
the loop rule, the component screen `reject_fast`, the collection loop
`_collect`, the canonical color `_canonical_color`, the edge written by
`pebbles._add_edge`, and `update_components` last.  A `Multigraph`'s edges
were checked when it was built, and an `EdgeStream`'s are checked as they
are played (`play_edge`); every move the step makes has just been shown
legal, so nothing on the way re-checks it, and `bring_pebble_dynamic` slides
through `pebbles._slide` for the same reason.  The one public step,
`play_edge`, checks its input and calls the same core, so each move has one
writer and the game one loop.
Every move returns nothing, so the state's `after_move` hook is the one
observer of a game: `run_canonical_game(after_move=...)` sees every move, and
a hook that collects the moves records its trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import EdgeStream, Multigraph, SparsityParams
from .pebbles import (
    GameState,
    IllegalMoveError,
    Move,
    _add_edge,
    _check_endpoints,
    _slide,
    find_pebble,
    reject_fast,
    update_components,
)


class CanonicalError(Exception):
    pass


def _canonical_color(state: GameState, v: int, w: int) -> int:
    """The canonical color of a new edge vw, or -1 when {v, w} holds no pebble.

    Shared color (lowest index) when some color has a pebble on both distinct
    endpoints; otherwise the highest color present on {v, w}.
    """
    sw = state.out_color[w]
    pick = -1
    for c, f in enumerate(state.out_color[v]):  # one pass: the first shared color wins
        if f < 0:
            pick = c
            if sw[c] < 0 and v != w:
                break
        elif sw[c] < 0:
            pick = c
    return pick


def _chain_reaches(state: GameState, x: int, color: int, goal: int) -> bool:
    """Does x's color-chain reach `goal` in one or more steps?

    Each vertex has at most one out-edge per color, so the chain ends at its
    first pebble or, within n steps, runs into a cycle that it then goes round
    for good.  The walk keeps no record of the vertices it has seen: it
    remembers one vertex at the start of each leg, and doubles the leg each
    time (Brent's cycle detection).  Once a leg starts on the cycle and is at
    least as long, the walk comes back to the remembered vertex without having
    met the goal, and stops with False, so it takes O(n) steps and, in a small
    cycle, far fewer than n.
    """
    out_color = state.out_color
    heads = state.heads
    mark, leg = x, 32  # canonical chains are mostly shorter than one leg
    while True:
        for _ in range(leg):
            f = out_color[x][color]
            if f < 0:
                return False
            x = heads[f]
            if x == goal:
                return True
            if x == mark:  # round a cycle that does not hold the goal
                return False
        mark, leg = x, 2 * leg


def creates_monochromatic_cycle(state: GameState, eid: int, cover: int) -> bool:
    """Would sliding edge eid covered with color `cover` close a cycle in `cover`?

    Covering with the edge's own color only re-roots its tree.  Otherwise the
    reversed edge closes a cycle exactly when the old tail's cover-colored
    out-chain already leads to the old head; a loop recolored this way is a
    fresh one-edge cycle.
    """
    if state.colors[eid] == cover:
        return False
    h = state.heads[eid]
    x = state.tails[eid]
    return x == h or _chain_reaches(state, x, cover, h)


def bring_pebble_dynamic(state: GameState, path: list[int]) -> None:
    """Slide a pebble along `path` to its start, avoiding cycle-closing covers.

    Each edge is covered with its own color when its head holds that pebble,
    which only re-roots the color's tree; otherwise with the lowest available
    color that closes no cycle.  Whenever every available covering pebble
    would close a cycle, the path suffix is replaced by the covering color's
    tree path from its first touch, found by the cycle check's chain walk,
    whose slides are all same-colored and safe.  Each replacement strictly
    shortens the unprocessed prefix, so this always terminates.  `path` is a
    path of edge ids as `find_pebble` returns it, and each slide is made only
    after its head is seen to hold the covering pebble, so the slides go
    through the unchecked writer `pebbles._slide`.  They are reported to the
    state's `after_move` hook only; the caller's list is read, never changed.
    """
    heads = state.heads
    colors = state.colors
    out_color = state.out_color
    i = len(path)  # path[:i] is the unprocessed prefix
    while i:
        i -= 1
        e = path[i]
        h = heads[e]
        head_slots = out_color[h]
        ce = colors[e]
        if head_slots[ce] < 0:  # the edge's own color only re-roots its tree
            _slide(state, e, ce)
            continue
        q = -1  # the lowest available color: the shortcut's, if every cover closes a cycle
        for c, f in enumerate(head_slots):
            if f < 0:
                if not creates_monochromatic_cycle(state, e, c):
                    _slide(state, e, c)
                    break
                if q < 0:
                    q = c
        else:
            if q < 0:
                raise IllegalMoveError("dynamic path lost its pebble")
            # every cover closes a cycle in its color; shortcut along the lowest one
            tails = state.tails
            for idx in range(i + 1):
                x = tails[path[idx]]
                if _chain_reaches(state, x, q, h):
                    break
            else:
                raise CanonicalError("shortcut target vanished; state corrupted")
            path = path[:idx]
            f = out_color[x][q]  # the walk showed that this chain reaches h
            path.append(f)
            while heads[f] != h:
                f = out_color[heads[f]][q]
                path.append(f)
            i = len(path)


def _collect(state: GameState, v: int, w: int) -> bool:
    """Gather l+1 pebbles on the checked endpoints {v, w}, v first, then w.

    Each is the nearest pebble outside {v, w} that `find_pebble` finds,
    brought by `bring_pebble_dynamic`, so pebbles on {v, w} stay; a full
    endpoint is skipped.  False when the reachable region runs out first.
    """
    k, l = state.params.k, state.params.l
    peb_sum = state.peb_sum
    forbidden = {v, w}
    while (peb_sum[v] if v == w else peb_sum[v] + peb_sum[w]) <= l:
        path = None
        if peb_sum[v] < k:
            path, _ = find_pebble(state, v, forbidden)
        if path is None and v != w and peb_sum[w] < k:
            path, _ = find_pebble(state, w, forbidden)
        if path is None:
            return False
        bring_pebble_dynamic(state, path)
    return True


def _play_edge(state: GameState, u: int, v: int) -> bool:
    """The game's step on endpoints already known to be vertices: `play_edge`
    without its input check, as `run_canonical_game` plays a `Multigraph`."""
    params = state.params
    if u == v and params.l >= params.k:
        return False
    if reject_fast(state, u, v):
        return False
    accepted = _collect(state, u, v)
    if accepted:
        _add_edge(state, u, v, _canonical_color(state, u, v))
    update_components(state, u, v)
    return accepted


def play_edge(state: GameState, u: int, v: int) -> bool:
    """One step of the game: add uv canonically if it keeps the graph sparse.

    The edge is screened by the loop rule and the component map, then by
    pebble collection; an accepted edge takes the canonical color.  A failed
    collection exposes the same saturated block an accepted tight edge does,
    so both feed the component map.  Returns True when the edge was added; an
    endpoint that is not an integer in 0..n-1 raises IllegalMoveError.
    `run_canonical_game` plays a `Multigraph`'s edges through the same step
    without this check, because the graph checked them when it was built.
    """
    _check_endpoints(state, u, v)
    return _play_edge(state, u, v)


@dataclass
class ConstructionResult:
    """Outcome of running the canonical game over a graph's edges.

    Only the accepted edge ids are stored, ascending, so the result grows with
    the kept subgraph and not with the input.  `rejected` is derived from them
    and costs O(m) per access; the number of rejected edges is
    `graph.m - len(accepted)`.  A game played from an `EdgeStream` keeps that
    stream as `graph`: its n and m are all the verdict reads, and its edges
    are spent, so a certificate, which needs each edge's endpoints, is
    extracted only from a game played on a `Multigraph`.
    """

    graph: Multigraph | EdgeStream
    params: SparsityParams
    state: GameState
    accepted: list[int]

    @property
    def rejected(self) -> list[int]:
        """The ascending complement of `accepted` in range(graph.m)."""
        kept = set(self.accepted)
        return [eid for eid in range(self.graph.m) if eid not in kept]

    def all_accepted(self) -> bool:
        return len(self.accepted) == self.graph.m

    def pebbles_remaining(self) -> int:
        return self.state.total_pebbles()

    def is_tight(self) -> bool:
        return self.all_accepted() and self.pebbles_remaining() == self.params.l

    def verdict(self) -> str:
        if not self.all_accepted():
            return "not-sparse"
        return "tight" if self.is_tight() else "sparse"


def run_canonical_game(
    g: Multigraph | EdgeStream,
    params: SparsityParams,
    *,
    after_move: Optional[Callable[[GameState, Move], None]] = None,
) -> ConstructionResult:
    """Process g's edges in order, keeping a maximum-size sparse subgraph.

    Each edge takes one `play_edge` step; a `Multigraph`'s edges skip its
    input check, since the graph checked them when it was built.  Rejection
    is a normal outcome and leaves no record.  An `EdgeStream` is played as
    it is read, and its read errors propagate from the game; any stream,
    including one built by hand, is checked edge by edge, so an endpoint that
    is not an integer in 0..n-1 raises IllegalMoveError.
    """
    state = GameState(g.n, params)  # raises ValueError on an empty graph
    state.after_move = after_move
    step = _play_edge if isinstance(g, Multigraph) else play_edge
    accepted = [eid for eid, (u, v) in enumerate(g.edges) if step(state, u, v)]
    return ConstructionResult(g, params, state, accepted)

