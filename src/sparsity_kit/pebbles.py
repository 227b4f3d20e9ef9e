"""The pebble game with colors: state, moves, pebble search, invariants, components.

The state is a directed multigraph H with stable edge ids.  Every vertex owns
one pebble of each of the k colors, and one slot per color records where it
is: the slot holds either the vertex's single out-edge of that color or, when
empty, the pebble itself.  An edge is added by spending a pebble from one
endpoint (which becomes the tail), and a pebble-slide reverses an edge by
covering it with a pebble taken from its head.  Once a state is built, these
two moves (`add_edge` and `pebble_slide`) are the only writers of its edges and
slots, and each reports itself to the state's `after_move` hook, the one move
sink, as an `AddEdgeMove` or `SlideMove`.  These move records are named tuples:
immutable, cheap to build on the hot path, and equal to the plain tuple of
their fields.  A trace file is a move list collected by such a hook and
written by `trace_to_lines`; `replay_trace` plays it back move by move.
Because per-vertex adjacency is this k-slot array, searches stay O(n) on
sparse states.  Every search (`find_pebble`, component detection's forward
pre-test, and the canonical game's shortcut walk) marks the vertices it
reaches in the state's one stamped `mark` array, so none allocates a visited
set or a parent map of its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse
from typing import Callable, Iterable, NamedTuple, Optional

from .graph import SparsityParams


class PebbleGameError(Exception):
    """Base class for engine errors."""


class IllegalMoveError(PebbleGameError):
    """A move whose preconditions do not hold in the current state."""


class InsufficientPebblesError(IllegalMoveError):
    def __init__(self, message: str = "insufficient pebbles"):
        super().__init__(message)


class ColorNotAvailableError(IllegalMoveError):
    def __init__(self, message: str = "color not available"):
        super().__init__(message)


class AddEdgeMove(NamedTuple):
    v: int
    w: int
    color: int


class SlideMove(NamedTuple):
    edge: int
    tail: int  # tail before the slide
    head: int  # head before the slide
    color: int  # color of the covering pebble taken from the head


Move = AddEdgeMove | SlideMove

# builds a move record from its field tuple at C level, skipping the named
# tuple's Python-level __new__; the record is the same type and value
_record = tuple.__new__


class GameState:
    """Mutable pebble game configuration; single writer, no interior sharing.

    A new state has n vertices, no edges and one pebble of each color on
    every vertex.  `out_color[v][c]` is v's slot of color c: the id of its
    out-edge of that color, or -1 when the color-c pebble sits on v.
    `peb_sum[v]` caches the number of empty slots of v, which the searches
    read once per vertex.  `in_edges[v]` lists the ids of v's in-edges in no
    fixed order, for component detection's backward closure.

    The searches share two n-entry arrays, allocated with the state:
    `mark[y] == stamp` means the current search has reached y, and `via[y]`
    is the edge it reached y by (read only where the mark is current).  A
    search takes a fresh stamp from `new_search`, so `mark` is cleared only
    once every 256 searches.
    """

    __slots__ = (
        "params",
        "n",
        "tails",
        "heads",
        "colors",
        "peb_sum",
        "out_color",
        "in_edges",
        "component_id",
        "_next_component",
        "mark",
        "via",
        "stamp",
        "after_move",
    )

    def __init__(self, n: int, params: SparsityParams):
        if n < 1:
            raise ValueError("the game needs at least one vertex")
        k = params.k
        self.params = params
        self.n = n
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.colors: list[int] = []
        self.peb_sum: list[int] = [k] * n
        self.out_color: list[list[int]] = [[-1] * k for _ in range(n)]
        self.in_edges: list[list[int]] = [[] for _ in range(n)]
        self.component_id: list[int] = [0] * n
        self._next_component = 1
        self.mark: list[int] = [0] * n
        self.via: list[int] = [-1] * n
        self.stamp = 0
        self.after_move: Optional[Callable[["GameState", Move], None]] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        n: int,
        params: SparsityParams,
        edges: Iterable[tuple[int, int, int]],
    ) -> "GameState":
        """Build a state directly from (tail, head, color) edges.

        Each edge fills its tail's slot of its color; every slot left empty
        holds its pebble, so the pebbles follow from the edges.  Intended for
        tests and adversarial configurations; only structural impossibilities
        (an endpoint or color out of range, two same-color out-edges at one
        vertex) are rejected.
        """
        state = cls(n, params)
        for t, h, c in edges:
            if not (0 <= t < n and 0 <= h < n and 0 <= c < params.k):
                raise ValueError(f"edge {(t, h, c)} is out of range for n={n}, k={params.k}")
            eid = len(state.tails)
            state.tails.append(t)
            state.heads.append(h)
            state.colors.append(c)
            if state.out_color[t][c] != -1:
                raise ValueError(f"vertex {t} would have two outgoing edges of color {c}")
            state.out_color[t][c] = eid
            state.in_edges[h].append(eid)
            state.peb_sum[t] -= 1
        return state

    def new_search(self) -> int:
        """Start a search: return a stamp that no entry of `mark` holds yet.

        Stamps count up from 1; after 256 searches `mark` is cleared in place
        and the count restarts, so every stamp is one of the interpreter's
        shared small ints and the array holds no int object of its own.
        """
        stamp = self.stamp + 1
        if stamp > 256:
            self.mark[:] = [0] * self.n
            stamp = 1
        self.stamp = stamp
        return stamp

    # -- simple accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.tails)

    def total_pebbles(self) -> int:
        return sum(self.peb_sum)

    @property
    def pebbles(self) -> tuple[tuple[int, ...], ...]:
        """Read-only per-vertex, per-color pebble counts (0 or 1), read off the slots."""
        flat = [1 if e < 0 else 0 for e in chain.from_iterable(self.out_color)]
        # rebuilt on every read, so zip groups the rows of k instead of a loop per row
        return tuple(zip(*[iter(flat)] * self.params.k))

    def state_hash(self) -> str:
        """Deterministic digest of the full configuration (components excluded)."""
        payload = {
            "n": self.n,
            "k": self.params.k,
            "l": self.params.l,
            "edges": [[self.tails[e], self.heads[e], self.colors[e]] for e in range(self.m)],
            "pebbles": self.pebbles,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


# -- moves -------------------------------------------------------------------


def add_edge(state: GameState, v: int, w: int, color: int) -> AddEdgeMove:
    """Add the edge vw, spending a pebble of `color` from v (preferred) or w.

    Requires both endpoints in 0..n-1, at least l+1 pebbles on {v, w} and a
    pebble of `color` on one of them.  The endpoint the pebble is taken from
    becomes the tail.
    """
    n = state.n
    if not (0 <= v < n and 0 <= w < n):  # a negative id would alias a vertex's slots
        raise IllegalMoveError(f"vertex out of range in edge ({v}, {w}) for n={n}")
    params = state.params
    if not 0 <= color < params.k:
        raise ColorNotAvailableError(f"color {color} out of range")
    peb_sum = state.peb_sum
    if (peb_sum[v] if v == w else peb_sum[v] + peb_sum[w]) <= params.l:
        raise InsufficientPebblesError()
    out_color = state.out_color
    if out_color[v][color] < 0:
        tail, head = v, w
    elif out_color[w][color] < 0:
        tail, head = w, v
    else:
        raise ColorNotAvailableError()
    peb_sum[tail] -= 1
    tails = state.tails
    eid = len(tails)
    tails.append(tail)
    state.heads.append(head)
    state.colors.append(color)
    out_color[tail][color] = eid  # the edge takes the spent pebble's slot
    state.in_edges[head].append(eid)
    move = _record(AddEdgeMove, (v, w, color))
    hook = state.after_move
    if hook is not None:
        hook(state, move)
    return move


def pebble_slide(state: GameState, eid: int, color: int) -> SlideMove:
    """Reverse edge eid, covering it with a pebble of `color` from its head.

    The pebble that was on the edge returns to the old tail; the edge takes the
    covering pebble's color.
    """
    tails = state.tails
    if not 0 <= eid < len(tails):
        raise IllegalMoveError(f"no edge {eid}")
    heads = state.heads
    colors = state.colors
    out_color = state.out_color
    t, h = tails[eid], heads[eid]
    head_slots = out_color[h]
    if not 0 <= color < state.params.k or head_slots[color] >= 0:
        raise IllegalMoveError(f"no pebble of color {color} on vertex {h}")
    peb_sum = state.peb_sum
    in_edges = state.in_edges
    out_color[t][colors[eid]] = -1
    peb_sum[t] += 1
    peb_sum[h] -= 1
    tails[eid], heads[eid], colors[eid] = h, t, color
    head_slots[color] = eid
    in_edges[h].remove(eid)
    in_edges[t].append(eid)
    move = _record(SlideMove, (eid, t, h, color))
    hook = state.after_move
    if hook is not None:
        hook(state, move)
    return move


def apply_move(state: GameState, move: Move) -> Move:
    """Replay a recorded move, verifying its slide orientation; `add_edge`
    checks an added edge's vertices."""
    if isinstance(move, AddEdgeMove):
        return add_edge(state, move.v, move.w, move.color)
    # a negative id would index the edge lists from the end
    if not 0 <= move.edge < state.m or (state.tails[move.edge], state.heads[move.edge]) != (
        move.tail,
        move.head,
    ):
        raise IllegalMoveError(f"stale slide record for edge {move.edge}")
    return pebble_slide(state, move.edge, move.color)


# -- pebble search -------------------------------------------------------------


def find_pebble(
    state: GameState, source: int, forbidden: frozenset[int] | set[int] = frozenset()
) -> tuple[list[int] | None, list[int]]:
    """Breadth-first search from `source` for a pebbled vertex outside `forbidden`.

    Returns (path, visited): `path` is a list of edge ids forming a shortest
    directed path from source to such a vertex (empty if source itself
    qualifies), so bringing the pebble back takes the fewest slides; or None
    if no pebble is reachable.  `visited` is the search's queue, a list of
    distinct vertices in the order they were reached: the source first and,
    on success, the pebbled vertex last; on failure it is the full reachable
    set.  Each vertex's out-slots are explored in color order.  The search
    marks vertices in the state's `mark` array and records each one's
    discovering edge in `via`, so it allocates nothing beyond the queue and
    the path.
    """
    queue = [source]
    peb_sum = state.peb_sum
    if peb_sum[source] > 0 and source not in forbidden:
        return [], queue
    stamp = state.new_search()
    mark = state.mark
    via = state.via
    mark[source] = stamp
    heads = state.heads
    out_color = state.out_color
    for x in queue:  # the list grows while it is walked, so it acts as a FIFO
        for e in out_color[x]:
            if e < 0:
                continue
            y = heads[e]
            if mark[y] == stamp:
                continue
            mark[y] = stamp
            via[y] = e
            queue.append(y)
            if peb_sum[y] > 0 and y not in forbidden:
                path: list[int] = []
                tails = state.tails
                while y != source:
                    e = via[y]
                    path.append(e)
                    y = tails[e]
                path.reverse()
                return path, queue
    return None, queue


# -- component maintenance ------------------------------------------------------


def _saturated_block(state: GameState, v: int, w: int) -> list[int] | None:
    """The maximal tight vertex set containing {v, w}, or None if none exists.

    First a forward search from {v, w}, marking what it discovers in the
    state's stamped `mark` array, stops early at the first pebbled vertex
    outside {v, w} it discovers.  It tests every discovered vertex, but does
    not expand one that carries v's or w's nonzero component id: a tight set
    meeting the block lies inside it, so a passing search would only re-walk
    the endpoints' components, and in a lower-range game that is the giant
    block.  Every pebbled vertex outside {v, w} is outside the block by
    definition, so only the bare vertices (all k slots holding out-edges) are
    left to decide: a bare vertex is outside iff it reaches a pebbled vertex
    outside {v, w}.  One flat list, copied from `peb_sum`, records the
    answer: nonzero means outside.  The backward closure is seeded by one
    C-level stream of the tails of the in-edges of the pebbled vertices
    outside {v, w}; each bare tail it marks is then walked back.  If v or w
    ends up marked, it reaches an outside pebble through a vertex the search
    skipped, and there is no block.  So the answer depends on the state
    alone; the component map only bounds the early-exit search.  The stream
    reads the list it marks, so a bare tail marked before the stream reaches
    its index has its in-edges read a second time: still at most twice per
    in-edge.  With one copy and one read-back pass over the n vertices, a
    call stays linear in n + m.
    """
    heads = state.heads
    out_color = state.out_color
    peb_sum = state.peb_sum
    component_id = state.component_id
    cv, cw = component_id[v], component_id[w]
    skipped = False
    stamp = state.new_search()
    mark = state.mark
    mark[v] = mark[w] = stamp
    stack = [v, w] if v != w else [v]
    while stack:
        for e in out_color[stack.pop()]:
            if e >= 0:
                y = heads[e]
                if mark[y] != stamp:
                    if peb_sum[y] > 0:  # y is outside {v, w}, which start marked
                        return None
                    mark[y] = stamp
                    c = component_id[y]
                    if c and (c == cv or c == cw):
                        skipped = True
                    else:
                        stack.append(y)
    bad = peb_sum.copy()  # the pebbled vertices outside {v, w}, then each tail shown bad
    bad[v] = bad[w] = 0
    tails = state.tails
    in_edges = state.in_edges
    for x in map(tails.__getitem__, chain.from_iterable(compress(in_edges, bad))):
        if not bad[x]:  # a bare tail, or v or w when a skipped vertex hid the pebble
            bad[x] = 1
            stack.append(x)
    while stack:
        for e in in_edges[stack.pop()]:
            x = tails[e]
            if not bad[x]:
                bad[x] = 1
                stack.append(x)
    if skipped and (bad[v] or bad[w]):
        return None
    return list(filterfalse(bad.__getitem__, range(state.n)))


def update_components(state: GameState, v: int, w: int) -> None:
    """Detect and tag the block containing {v, w} after an accepted edge.

    Also called after a failed collection, which leaves {v, w} saturated too.
    Triggered when exactly l pebbles remain on {v, w} and no further pebble is
    reachable: the saturated set is tight and all its vertices get a fresh
    shared component id.  A call past the pebble count runs one
    `_saturated_block`: a forward pre-test that may stop early and does not
    enter the endpoints' own components, then a closure linear in n + m,
    which over a game is its quadratic term.  The ids it reads only bound
    that pre-test, so the block does not depend on them.
    """
    peb_sum = state.peb_sum
    if (peb_sum[v] if v == w else peb_sum[v] + peb_sum[w]) != state.params.l:
        return
    block = _saturated_block(state, v, w)
    if block is None:
        return
    cid = state._next_component
    state._next_component += 1
    component_id = state.component_id
    for x in block:
        component_id[x] = cid


def reject_fast(state: GameState, v: int, w: int) -> bool:
    """True iff v and w already share a component, so the edge must be rejected."""
    cid = state.component_id
    return cid[v] != 0 and cid[v] == cid[w]


# -- invariant checking ----------------------------------------------------------


@dataclass(frozen=True)
class InvariantFailure:
    name: str
    detail: str
    witness: tuple[int, ...] = ()


@dataclass
class InvariantReport:
    ok: bool
    failures: list[InvariantFailure] = field(default_factory=list)


def check_invariants(state: GameState) -> InvariantReport:
    """Evaluate the engine invariants on a state, exactly at every n.

    Each vertex has one slot per color holding either its out-edge of that
    color or the pebble, so "one pebble or one out-edge per color" holds by
    construction, and every monochromatic path ends at its first pebble or in
    a cycle.  Checked: the total pebble count, the vertex balance (which
    guards the `peb_sum` cache) and edge-slot agreement.  Together they imply
    the subset balance (span + out + pebbles = k * |subset|) for every vertex
    subset, so no subset is enumerated.  An edge whose tail or head is
    outside 0..n-1 is reported before its slot is read.  In-edge agreement
    (each edge id is listed exactly once, at its head) guards the lists that
    component detection walks.  On failure the report carries a witness: the
    vertices, all in 0..n-1, that the failure names, or none.
    """
    failures: list[InvariantFailure] = []
    k, l, n = state.params.k, state.params.l, state.n

    # total pebbles: a game on very few vertices starts with fewer than l
    needed = min(l, k * n)
    total = state.total_pebbles()
    if total < needed:
        failures.append(
            InvariantFailure("min-pebbles", f"{total} pebbles on vertices, need >= {needed}")
        )

    # per-vertex balance: occupied out-slots + pebbles = k
    for v in range(n):
        got = sum(1 for e in state.out_color[v] if e >= 0) + state.peb_sum[v]
        if got != k:
            failures.append(
                InvariantFailure("vertex-balance", f"vertex {v}: {got} != k={k}", (v,))
            )

    # every edge sits in its tail's slot of its color and no slot holds
    # anything else, so summing the vertex balance over any vertex subset
    # gives span + out + pebbles = k * |subset|
    for e in range(state.m):
        t, h, c = state.tails[e], state.heads[e], state.colors[e]
        if not (0 <= t < n and 0 <= h < n):  # a negative id would alias a vertex's slots
            failures.append(
                InvariantFailure("edge-range", f"edge {e} runs {t} -> {h}, outside 0..{n - 1}")
            )
            continue
        if not 0 <= c < k or state.out_color[t][c] != e:
            failures.append(
                InvariantFailure(
                    "edge-slot", f"edge {e} is not in vertex {t}'s color-{c} slot", (t,)
                )
            )
    occupied = sum(1 for row in state.out_color for e in row if e >= 0)
    if occupied != state.m:
        failures.append(
            InvariantFailure("edge-slot", f"{occupied} occupied out-slots for {state.m} edges")
        )

    # every edge id is listed once across in_edges, in its head's list
    heads = state.heads
    listed = [False] * state.m
    for v, ids in enumerate(state.in_edges):
        for e in ids:
            if not 0 <= e < state.m or heads[e] != v:
                detail = f"vertex {v} lists edge {e}, which does not end there"
            elif listed[e]:
                detail = f"vertex {v} lists edge {e} twice"
            else:
                listed[e] = True
                continue
            failures.append(InvariantFailure("in-edges", detail, (v,)))
    for e, seen in enumerate(listed):
        if not seen:
            h = heads[e]
            if 0 <= h < n:
                detail, witness = f"edge {e} is missing from vertex {h}'s in-edges", (h,)
            else:  # reported as edge-range too; there is no vertex h to name
                detail, witness = f"edge {e} is in no vertex's in-edges", ()
            failures.append(InvariantFailure("in-edges", detail, witness))

    return InvariantReport(not failures, failures)


# -- trace files -------------------------------------------------------------------

_MOVE_OPS = {"add": AddEdgeMove, "slide": SlideMove}  # a record's fields are its move's


def _json_line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def trace_to_lines(state: GameState, moves: Iterable[Move]) -> list[str]:
    """Serialize a game as JSON lines: an init header, `moves`, and a hash footer.

    `moves` are the moves that took a fresh state to `state`, as collected by
    its `after_move` hook; the footer is `state`'s hash.
    """
    lines = [_json_line({"op": "init", "n": state.n, "k": state.params.k, "l": state.params.l})]
    for move in moves:
        op = "add" if isinstance(move, AddEdgeMove) else "slide"
        lines.append(_json_line({"op": op, **move._asdict()}))
    lines.append(_json_line({"op": "end", "hash": state.state_hash()}))
    return lines


class TraceError(PebbleGameError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _trace_ints(rec: dict, op: str, names: tuple[str, ...], line: int) -> list[int]:
    values = [rec.get(name) for name in names]
    for name, value in zip(names, values):
        if type(value) is not int:  # bool is an int subclass, but true is no vertex or color
            got = "it is missing" if name not in rec else f"got {value!r}"
            raise TraceError(f"{op} field {name!r} must be an integer, {got}", line)
    return values


def replay_trace(lines: Iterable[str], *, debug_invariants: bool = False) -> GameState:
    """Replay a serialized trace from a fresh state.

    Raises TraceError naming the line on a malformed record (every field must
    be a plain int), an illegal move, a broken invariant (with
    `debug_invariants`), or a final hash that differs from the footer.
    """
    state: GameState | None = None
    expected_hash: str | None = None
    for line, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad JSON: {exc}", line) from None
        if not isinstance(rec, dict):
            raise TraceError("record must be a JSON object", line)
        op = rec.get("op")
        if op == "init":
            if state is not None:  # a second game would silently replace the first
                raise TraceError("second init record", line)
            n, k, l = _trace_ints(rec, op, ("n", "k", "l"), line)
            try:
                state = GameState(n, SparsityParams(k, l))
            except ValueError as exc:
                raise TraceError(f"bad init record: {exc}", line) from None
        elif op == "end":
            expected_hash = rec.get("hash")
            if not isinstance(expected_hash, str):
                raise TraceError("end field 'hash' must be a string", line)
        elif not isinstance(op, str) or op not in _MOVE_OPS:
            raise TraceError(f"unknown op {op!r}", line)
        elif state is None:
            raise TraceError("trace does not start with an init record", line)
        else:
            kind = _MOVE_OPS[op]
            move = kind(*_trace_ints(rec, op, kind._fields, line))
            try:
                apply_move(state, move)
            except IllegalMoveError as exc:
                raise TraceError(str(exc), line) from None
            if debug_invariants:
                report = check_invariants(state)
                if not report.ok:
                    raise TraceError(f"invariant violated: {report.failures[0].name}", line)
    if state is None:
        raise TraceError("empty trace")
    if expected_hash is not None and state.state_hash() != expected_hash:
        raise TraceError("final state hash does not match the trace footer")
    return state
