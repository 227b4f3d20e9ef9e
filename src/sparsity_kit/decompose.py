"""Sparsity certificates extracted from canonical games, and their one checker.

A pebble game configuration colors every edge and orients it away from the
vertex its pebble was spent at, so each color class has out-degree at most one
per vertex.  `extract_certificate` reads that coloring from a game's
`ConstructionResult` and only derives a certificate's tree and map roles from
it; `validate_certificate` is the one checker for every kind, and keeps only
the checks that no other implies: for maps-and-trees, the count m = k*n - l
makes every tree color that is a forest span, so spanning is never tested.
Both split a color class with `_parents`, one union-find pass over flat
lists that also finds any cycle.  The checker works from the stored
orientation: out-degree is a per-vertex slot count, and tree-piece counts
come from the root rule (a piece is rooted at a vertex whose color slot
holds a pebble, or whose colored out-edge leaves the subgraph).  By that
rule a subset holds exactly k*n' - m' pieces, so the "at least l pieces
everywhere" condition of coloring and proper lTk certificates is
(k,l)-sparsity itself, decided exactly by `oracle.overfull_subset`.

Edge records are `ColoredEdge` named tuples.  A `Certificate` checks its
field types when it is built, so the reader, writer and checker do not.
Certificates are written as canonical JSON a block of edges at a time, so
`decompose` holds no more than one block of its text, and
`certificate_to_json` about 120 B per edge, its output included.  They are
read with each edge record turned into its `ColoredEdge` inside the JSON
decoder, with one int object per vertex id, so reading holds about 175 B per
edge (a dict per edge record held about 0.4 KB).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .canonical import ConstructionResult
from .graph import Multigraph, SparsityParams, induced_edge_count
from .oracle import overfull_subset


class CertificateError(ValueError):
    """A malformed decomposition or certificate (as opposed to an invalid one)."""


class NotTightError(ValueError):
    """Role-bearing certificates are only defined for tight inputs."""


CERTIFICATE_KINDS = ("coloring", "maps-and-trees", "proper-ltk")

# Tree or map roles: one tuple of edge ids per tree or map.
_Roles = tuple[tuple[int, ...], ...]


class ColoredEdge(NamedTuple):
    """One colored edge and the endpoint it is oriented away from."""

    id: int
    u: int
    v: int
    color: int
    tail: int

    @property
    def head(self) -> int:
        return self.v if self.tail == self.u else self.u


# Builds a ColoredEdge from its field tuple at C level, skipping the named
# tuple's Python-level __new__; the record is the same type and value.
_new_edge = tuple.__new__


@dataclass(frozen=True)
class Certificate:
    """An edge coloring with its certifying orientation; the role-bearing
    kinds also list the trees and maps the coloring defines."""

    kind: str
    params: SparsityParams
    n: int
    edges: tuple[ColoredEdge, ...]
    trees: _Roles = ()
    maps: _Roles = ()

    def __post_init__(self):
        """The one type check, `dataclasses.replace` included: a known kind, and
        plain ints in every edge field, role id and `n`, not a bool or float
        that equals one; in the reader's order, raising CertificateError."""
        if self.kind not in CERTIFICATE_KINDS:
            raise CertificateError(f"unknown kind {self.kind!r}")
        _require_int_fields(self.edges)
        _require_int_ids(self.trees, "trees")
        _require_int_ids(self.maps, "maps")
        _as_int(self.n, "n")


def _color_classes(edges: Iterable[ColoredEdge]) -> dict[int, list[ColoredEdge]]:
    """The edges of each color that occurs, in edge order."""
    classes: dict[int, list[ColoredEdge]] = {}
    for e in edges:
        classes.setdefault(e.color, []).append(e)
    return classes


# -- cover, slot and sparsity checks -----------------------------------------


def _check_cover(g: Multigraph, d: Certificate) -> None:
    """Each edge id 0..m-1 once, on the graph's endpoints, oriented from one of
    them and colored below k, with at most one out-edge per vertex and color.

    A tail is one of its edge's endpoints in g, so it is a vertex of g and
    needs no range test of its own.  The slots are checked in one sorted list
    of the keys `tail * k + color`, one int per edge whatever k the
    certificate declares; a color out of range would name another vertex's
    slot, so it is refused first.
    """
    if d.n != g.n:
        raise CertificateError("vertex counts differ")
    ends, m, k = g.edges, g.m, d.params.k
    if len(d.edges) != m:
        raise CertificateError("decomposition does not cover the graph's edges")
    seen = bytearray(m)
    slots = []
    for eid, a, b, color, tail in d.edges:
        if not 0 <= eid < m:
            raise CertificateError(f"edge id {eid} out of range")
        if seen[eid]:
            raise CertificateError(f"edge id {eid} listed twice")
        seen[eid] = 1
        u, v = ends[eid]
        if not (a == u and b == v or a == v and b == u):
            raise CertificateError(f"edge {eid} endpoints disagree with the graph")
        if tail != a and tail != b:
            raise CertificateError(f"edge {eid} oriented from a non-endpoint")
        if not 0 <= color < k:
            raise CertificateError(f"edge {eid} color {color} out of range")
        slots.append(tail * k + color)
    slots.sort()
    for key, after in zip(slots, islice(slots, 1, None)):
        if key == after:
            tail, color = divmod(key, k)
            raise CertificateError(f"vertex {tail} has two outgoing edges of color {color}")


def _overfull_failure(g: Multigraph, params: SparsityParams) -> str:
    """Why g is not (k,l)-sparse, naming an overfull subset; empty if it is sparse."""
    witness = overfull_subset(g, params)
    if witness is None:
        return ""
    return (
        f"subset {list(witness)} spans {induced_edge_count(g, witness)} edges, "
        f"more than k*n'-l = {params.k * len(witness) - params.l}"
    )


# -- role-bearing certificates -------------------------------------------------


def _parents(n: int, rows: Sequence[ColoredEdge]) -> list[int] | None:
    """Union-find parents of one color class on vertices 0..n-1, with each
    tree's root as its representative; None if an edge closes a cycle.

    `rows` must hold at most one row per tail, as in a checked orientation or
    a game's class, so a tree's root is its one vertex without an out-edge.
    A tail has no out-edge before its own row, so it is still a root, and it
    is hung below the root its head finds by path halving.  The row closes a
    cycle exactly when that root is the tail itself.
    """
    parent = list(range(n))
    for eid, u, v, _, tail in rows:
        r = v if tail == u else u
        while r != parent[r]:
            parent[r] = r = parent[parent[r]]
        if r == tail:
            return None
        parent[tail] = r
    return parent


def _trees(parent: list[int], rows: Sequence[ColoredEdge]) -> list[tuple[int, tuple[int, ...]]]:
    """(root, sorted edge ids) per tree that `_parents` found, single vertices included."""
    ids = [[] if p == v else None for v, p in enumerate(parent)]
    for e in rows:
        r = e.tail
        while r != parent[r]:
            parent[r] = r = parent[parent[r]]
        ids[r].append(e.id)
    return [(v, tuple(sorted(t))) for v, t in enumerate(ids) if t is not None]


def _roles(
    edges: tuple[ColoredEdge, ...], params: SparsityParams, n: int, kind: str
) -> tuple[_Roles, _Roles]:
    """The (trees, maps) roles of `kind` that a coloring of n vertices defines, unchecked.

    maps-and-trees: each color class's edge ids, sorted; colors below l are
    the trees, the rest the maps.  proper-lTk: every component of every color
    class, ordered by (root, color), and no maps.
    """
    by_color = _color_classes(edges)
    classes = [by_color.get(c, ()) for c in range(params.k)]
    if kind == "maps-and-trees":
        ids = [tuple(sorted(e.id for e in rows)) for rows in classes]
        return tuple(ids[: params.l]), tuple(ids[params.l :])
    found = sorted(  # a cyclic class lists no trees; validation names its cycle
        (root, c, eids)
        for c, rows in enumerate(classes)
        if (parent := _parents(n, rows)) is not None
        for root, eids in _trees(parent, rows)
    )
    return tuple(eids for _, _, eids in found), ()


def extract_certificate(result: ConstructionResult, kind: str | None = None) -> Certificate:
    """The certificate of a construction; the kind defaults to the range's own.

    The game must have been played on a `Multigraph` (ValueError otherwise:
    an `EdgeStream`'s edges are spent).  Role-bearing kinds need a tight input
    in their range (NotTightError otherwise).  Extraction only derives the
    roles from the coloring, so an engine bug shows up as an invalid
    certificate from `validate_certificate`.

    Once the checks have run, extraction drops its references to `result`
    and its game state before it builds the certificate's edges, so a game
    passed as a temporary is freed first (from Python 3.11; 3.10 holds a
    call's arguments until it returns).  A caller who keeps the result keeps
    the whole game, unchanged.
    """
    g, params, state = result.graph, result.params, result.state
    if not isinstance(g, Multigraph):
        raise ValueError("a certificate needs a game played on a Multigraph, not an EdgeStream")
    if kind is None:
        kind = "maps-and-trees" if params.lower_range else "proper-ltk"
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"cannot extract certificate of kind {kind!r}")
    if kind == "maps-and-trees" and not params.lower_range:
        raise NotTightError("maps-and-trees requires the lower range (l <= k)")
    if kind == "proper-ltk" and not params.upper_range:
        raise NotTightError("a proper tree decomposition requires the upper range (l >= k)")
    if kind != "coloring" and not result.is_tight():
        raise NotTightError("input not tight")
    ends, colors, tails, accepted = g.edges, state.colors, state.tails, result.accepted
    # the rest of the game is freed here when the caller holds no reference to it
    del result, state
    edges = tuple(
        _new_edge(ColoredEdge, (eid, *ends[eid], colors[pos], tails[pos]))
        for pos, eid in enumerate(accepted)
    )
    del colors, tails, accepted
    if kind == "coloring":
        return Certificate(kind, params, g.n, edges)
    return Certificate(kind, params, g.n, edges, *_roles(edges, params, g.n, kind))


# -- validation -----------------------------------------------------------------


def validate_certificate(g: Multigraph, cert: Certificate) -> tuple[bool, str]:
    """The one certificate checker, for every kind; returns (ok, first failing check).

    The types were checked when `cert` was built.  Every kind: the edges
    cover g once each, with out-degree at most one per vertex and color.
    Role-bearing kinds: the range, m = k*n - l, every tree-role class a
    forest, and roles equal to the derived ones: by position for
    maps-and-trees, as a multiset for proper-lTk, ids in any order, with no
    map roles.  A coloring lists no roles at all.  The counts imply the rest
    of maps-and-trees: with single slots a forest color holds at most n - 1
    edges and a map color at most n, and l*(n - 1) + (k - l)*n = m, so every
    tree color spans and every map color has n edges.  coloring and
    proper-lTk: g is (k,l)-sparse, decided exactly by `oracle.overfull_subset`;
    valid maps-and-trees roles imply sparsity.
    """
    params, kind = cert.params, cert.kind
    try:
        _check_cover(g, cert)
    except CertificateError as exc:
        return False, str(exc)
    if kind == "coloring" and (cert.trees or cert.maps):
        return False, "a coloring certificate has no roles"
    if kind != "coloring":
        lower = kind == "maps-and-trees"
        if not (params.lower_range if lower else params.upper_range):
            return False, f"{kind} certificate outside the {'lower' if lower else 'upper'} range"
        if g.m != params.max_edges(g.n):
            return False, "edge count is not k*n - l"
        failure = _role_failure(g, cert, lower)
        if failure or lower:  # valid maps-and-trees roles imply sparsity
            return not failure, failure
    failure = _overfull_failure(g, params)
    return not failure, failure


def _role_failure(g: Multigraph, cert: Certificate, lower: bool) -> str:
    """The first failing role check of a role-bearing certificate whose edges
    passed the cover and slot checks and number k*n - l; empty if none fails.

    The tree-role colors that occur (those below l for maps-and-trees, every
    color for proper-lTk) are checked in color order, one `_parents` pass
    each, and only proper-lTk lists their trees' edge ids, so the work is
    O(m + roles listed) whatever k the certificate declares.  No color is
    tested for spanning: by the counts, a tree color of maps-and-trees that
    does not span forces another to hold a cycle, and that cycle is named.
    Forest classes have k*n - m = l trees in all, so for proper-lTk l minus
    the trees that hold an edge is the number of empty roles expected.
    """
    params, n = cert.params, g.n
    classes = _color_classes(cert.edges)
    found = []  # proper-lTk: the edge ids of every tree with an edge
    for c in sorted(c for c in classes if c < (params.l if lower else params.k)):
        parent = _parents(n, classes[c])
        if parent is None:
            return f"color {c} contains a cycle"
        if not lower:
            found.extend(eids for _, eids in _trees(parent, classes[c]) if eids)
    trees, maps = (tuple(tuple(sorted(ids)) for ids in r) for r in (cert.trees, cert.maps))
    if lower:
        ids = {c: tuple(sorted(e.id for e in rows)) for c, rows in classes.items()}
        ok = (
            len(trees) == params.l
            and len(maps) == params.k - params.l
            and all(r == ids.get(c, ()) for c, r in enumerate(trees + maps))
        )
        return "" if ok else "tree/map roles do not match the color classes"
    if maps:
        return "a proper-lTk certificate has no map roles"
    listed = sorted(t for t in trees if t)
    if listed != sorted(found) or len(trees) - len(listed) != params.l - len(found):
        return "tree roles do not match the color components"
    return ""


# -- certificate files ---------------------------------------------------------


# Edge fields in record order, under their certificate names.
_EDGE_FIELDS = ("id", "u", "v", "color", "oriented_from")
# Fetches an edge record's fields from its object at C level, raising as
# record["id"], record["u"], ... would.
_edge_fields = operator.itemgetter(*_EDGE_FIELDS)
# One edge in canonical (sorted-key) order, filled from (color, id, tail, u, v).
_EDGE_JSON = '{"color":%d,"id":%d,"oriented_from":%d,"u":%d,"v":%d}'
# Edges formatted into one chunk of certificate text, about 30 KB.
_WRITE_BLOCK = 1 << 9


def _require_int_fields(edges: tuple[ColoredEdge, ...]) -> None:
    """Raise CertificateError naming the first edge field that is not a plain int.

    One pass collects the types of every field; the fields are looked up by
    name only when that pass finds something other than int.
    """
    if set(map(type, chain.from_iterable(edges))) <= {int}:
        return
    for e in edges:
        for value, what in zip(e, _EDGE_FIELDS):
            _as_int(value, what)


def _require_int_ids(ids: _Roles, role: str) -> None:
    """Raise CertificateError naming the first role edge id that is not a plain
    int, after one pass over the types of them all."""
    if not set(map(type, chain.from_iterable(ids))) <= {int}:
        for i in chain.from_iterable(ids):
            _as_int(i, f"{role} edge id")


def _json_chunks(cert: Certificate) -> Iterator[str]:
    """The canonical JSON text of `cert`, as consecutive chunks of at most
    _WRITE_BLOCK edges each.

    A coloring that lists roles, which the text has no place for, raises
    CertificateError before the chunks are returned, so it yields nothing;
    the field types were checked when `cert` was built.
    """
    rest: dict = {"k": cert.params.k, "l": cert.params.l, "n": cert.n, "kind": cert.kind}
    if cert.kind != "coloring":
        rest["roles"] = {"trees": cert.trees, "maps": cert.maps}
    elif cert.trees or cert.maps:
        raise CertificateError("a coloring certificate has no roles")
    # "edges" sorts before every other key, so it leads the object
    rest_json = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return _edge_chunks(cert.edges, "]," + rest_json[1:] + "\n")


def _edge_chunks(edges: tuple[ColoredEdge, ...], tail: str) -> Iterator[str]:
    """The edge list's text a block of edges at a time, then `tail`."""
    yield '{"edges":['
    for start in range(0, len(edges), _WRITE_BLOCK):
        if start:
            yield ","
        block = edges[start : start + _WRITE_BLOCK]
        yield ",".join([_EDGE_JSON % (c, i, t, u, v) for i, u, v, c, t in block])
    yield tail


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON serialization; parse -> write is byte-identical.

    The text is the join of the chunks `decompose` writes, with the same
    check before any of it is built (CertificateError).
    """
    return "".join(_json_chunks(cert))


def _as_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, but true is no vertex or color
        raise CertificateError(f"malformed certificate: {what} must be an integer, got {value!r}")
    return value


def _edge_records():
    """A certificate decoder's object hook, for one read: an object with
    exactly the five edge fields becomes its ColoredEdge as soon as it is
    parsed, so no edge record keeps its dict; any other object stays a dict.

    The hook's table shares one int object per vertex id across the `u`, `v`
    and `oriented_from` fields of the edges it builds, as the graph reader
    does.  Only a row whose three vertex fields are all exact ints is shared:
    1.0 and true hash and compare equal to 1, and would come back as it.
    """
    shared: dict[int, int] = {}
    share = shared.setdefault

    def edge_record(obj: dict):
        if len(obj) == 5:
            try:
                eid, u, v, color, tail = _edge_fields(obj)
            except KeyError:  # five keys, but not the edge fields
                return obj
            if type(u) is type(v) is type(tail) is int:
                u, v, tail = share(u, u), share(v, v), share(tail, tail)
            return _new_edge(ColoredEdge, (eid, u, v, color, tail))
        return obj

    return edge_record


def _as_object(value):
    """`value`, or a ColoredEdge that the decoder made from an edge-shaped
    object outside the edge list back as that object (keys in field order).

    Used where the reader takes an object or iterates one: the payload, the
    edge list, the roles and each role row, so such an object is read there as
    it would be without the hook.
    """
    return dict(zip(_EDGE_FIELDS, value)) if type(value) is ColoredEdge else value


def certificate_from_json(text: str | bytes) -> Certificate:
    """Parse a certificate file; raises CertificateError if it is malformed.

    The JSON decoder turns every edge record into its `ColoredEdge` as it
    parses it, sharing one int object per vertex id, so a read of a (3,3)
    n = 500 certificate peaks at about 175 B per edge, against 209 B with an
    int per field and 384 B when every record stayed a dict until all the
    edges were built (tracemalloc, Python 3.11).  A record with other keys
    than the five edge fields stays an object and is converted afterwards,
    with the same errors.  The reader checks what only parsing knows: the
    JSON, the keys, the roles object, k and l; building the `Certificate`
    checks the kind and every other field's type.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        payload = _as_object(json.loads(text, object_hook=_edge_records()))
    except json.JSONDecodeError as exc:
        raise CertificateError(f"bad certificate JSON: {exc}") from None
    try:
        params = SparsityParams(_as_int(payload["k"], "k"), _as_int(payload["l"], "l"))
        kind = payload["kind"]
        edges = tuple(_as_object(payload["edges"]))
        if not set(map(type, edges)) <= {ColoredEdge}:  # records the decoder kept as objects
            edges = tuple(
                e if type(e) is ColoredEdge else _new_edge(ColoredEdge, _edge_fields(e))
                for e in edges
            )
        roles = _as_object(payload.get("roles", {}))
        if not isinstance(roles, dict):
            raise CertificateError(
                f"malformed certificate: roles must be an object, got {roles!r}"
            )
        trees, maps = (  # each role list as a tuple of id tuples
            tuple(tuple(_as_object(row)) for row in _as_object(roles.get(role, [])))
            for role in ("trees", "maps")
        )
        return Certificate(kind, params, payload["n"], edges, trees, maps)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CertificateError):
            raise
        raise CertificateError(f"malformed certificate: {exc}") from None


# -- DOT output -----------------------------------------------------------------

_DOT_PALETTE = (
    "black",
    "gray60",
    "red3",
    "blue3",
    "green4",
    "darkorange2",
    "purple3",
    "saddlebrown",
)


def to_dot(cert: Certificate, name: str = "decomposition") -> str:
    """Render the colored, oriented certificate as a Graphviz digraph (one-way):
    one node per vertex 0..n-1, one arrow per edge from its tail."""
    lines = [f"digraph {name} {{"]
    lines.append("  node [shape=circle];")
    for v in range(cert.n):
        lines.append(f"  {v};")
    for e in sorted(cert.edges, key=lambda r: r.id):
        color = _DOT_PALETTE[e.color % len(_DOT_PALETTE)]
        lines.append(f'  {e.tail} -> {e.head} [color="{color}", label="{e.color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
