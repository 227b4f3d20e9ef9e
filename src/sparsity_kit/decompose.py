"""Colorings, tree-pieces, and sparsity certificates extracted from game states.

A pebble game configuration colors every edge and orients it away from the
vertex its pebble was spent at, so each color class has out-degree at most one
per vertex.  The validators here work from that stored orientation: map-graph
checks are per-vertex degree counts, tree checks are connectivity counts, and
tree-piece counts come from the root rule (a piece is rooted at a vertex whose
color slot holds a pebble, or whose colored out-edge leaves the subgraph).
By that rule a subset holds exactly k*n' - m' pieces, so the "at least l
pieces everywhere" condition of coloring and proper lTk certificates is
(k,l)-sparsity itself, decided exactly by `oracle.overfull_subset`.

Edge records are `ColoredEdge` named tuples, and certificates are written as
canonical JSON one formatted string per edge, so serialization holds about
0.2 KB per edge beyond its output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

from .canonical import ConstructionResult
from .graph import Multigraph, SparsityParams, induced_edge_count, vertex_subset
from .oracle import overfull_subset
from .pebbles import GameState


class CertificateError(ValueError):
    """A malformed decomposition or certificate (as opposed to an invalid one)."""


class NotTightError(ValueError):
    """Role-bearing certificates are only defined for tight inputs."""


CERTIFICATE_KINDS = ("coloring", "maps-and-trees", "proper-ltk")


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


@dataclass(frozen=True)
class Decomposition:
    """An edge coloring plus certifying orientation for a (k, l) game output."""

    params: SparsityParams
    n: int
    edges: tuple[ColoredEdge, ...]

    def color_classes(self) -> list[list[ColoredEdge]]:
        classes: list[list[ColoredEdge]] = [[] for _ in range(self.params.k)]
        for e in self.edges:
            classes[e.color].append(e)
        return classes


@dataclass(frozen=True)
class TreePiece:
    color: int
    vertices: frozenset[int]
    edge_ids: tuple[int, ...]
    root: int
    root_kind: str  # "pebble" | "out-edge"


@dataclass(frozen=True)
class Certificate:
    kind: str
    params: SparsityParams
    n: int
    edges: tuple[ColoredEdge, ...]
    trees: tuple[tuple[int, ...], ...] = ()
    maps: tuple[tuple[int, ...], ...] = ()

    @property
    def decomposition(self) -> Decomposition:
        return Decomposition(self.params, self.n, self.edges)


# -- extraction ---------------------------------------------------------------


def extract_coloring(state: GameState) -> Decomposition:
    """Read the edge colors and orientations straight off a game state."""
    edges = tuple(
        ColoredEdge(e, state.tails[e], state.heads[e], state.colors[e], state.tails[e])
        for e in range(state.m)
    )
    return Decomposition(state.params, state.n, edges)


def result_decomposition(result: ConstructionResult) -> Decomposition:
    """The coloring of a construction, indexed by the input graph's edge ids."""
    state = result.state
    rows = []
    for pos, eid in enumerate(result.accepted):
        u, v = result.graph.edges[eid]
        rows.append(ColoredEdge(eid, u, v, state.colors[pos], state.tails[pos]))
    return Decomposition(result.params, result.graph.n, tuple(rows))


def _check_cover(g: Multigraph, d: Decomposition) -> None:
    if d.n != g.n:
        raise CertificateError("vertex counts differ")
    if len(d.edges) != g.m:
        raise CertificateError("decomposition does not cover the graph's edges")
    seen: set[int] = set()
    for e in d.edges:
        if not 0 <= e.id < g.m:
            raise CertificateError(f"edge id {e.id} out of range")
        if e.id in seen:
            raise CertificateError(f"edge id {e.id} listed twice")
        seen.add(e.id)
        u, v = g.edges[e.id]
        if {e.u, e.v} != {u, v}:
            raise CertificateError(f"edge {e.id} endpoints disagree with the graph")
        if e.tail not in (e.u, e.v):
            raise CertificateError(f"edge {e.id} oriented from a non-endpoint")
        if not 0 <= e.color < d.params.k:
            raise CertificateError(f"edge {e.id} color {e.color} out of range")


def _out_slots(d: Decomposition) -> dict[tuple[int, int], ColoredEdge]:
    """Map (vertex, color) -> its outgoing edge; raises if any slot is doubled."""
    slots: dict[tuple[int, int], ColoredEdge] = {}
    for e in d.edges:
        key = (e.tail, e.color)
        if key in slots:
            raise CertificateError(
                f"vertex {e.tail} has two outgoing edges of color {e.color}"
            )
        slots[key] = e
    return slots


def tree_pieces(d: Decomposition, g: Multigraph, subset: Iterable[int]) -> list[TreePiece]:
    """All monochromatic tree-pieces of the subgraph induced by `subset`.

    A piece is an acyclic monochromatic connected component of the induced
    subgraph, including single-vertex "empty trees"; every vertex belongs to
    every color's vertex set.  Pieces are rooted at the unique member vertex
    with no outgoing edge of that color inside the subgraph; the root kind says
    whether the color slot is globally free (a pebble in game terms) or its
    out-edge merely leaves the subgraph.
    """
    s = vertex_subset(d.n, subset)
    _check_cover(g, d)
    slots = _out_slots(d)
    pieces: list[TreePiece] = []
    for color in range(d.params.k):
        inside = [
            e for v in s if (e := slots.get((v, color))) is not None and e.head in s
        ]
        for root, eids, comp in _class_components(s, inside):
            if len(eids) >= len(comp):
                continue  # contains a cycle inside the subgraph: a map piece
            kind = "pebble" if (root, color) not in slots else "out-edge"
            pieces.append(TreePiece(color, frozenset(comp), tuple(eids), root, kind))
    pieces.sort(key=lambda p: (p.root, 0 if p.root_kind == "pebble" else 1, p.color))
    return pieces


def count_tree_pieces(d: Decomposition, g: Multigraph, subset: Iterable[int]) -> int:
    """Tree-piece count by the root rule, without materializing the pieces.

    A vertex roots a piece of a color exactly when its color slot has no
    outgoing edge or the edge leaves the subset; every root's component is
    automatically acyclic (it has strictly fewer edges than vertices), and a
    rootless component is a cycle, so roots and tree-pieces are in bijection.
    """
    s = vertex_subset(d.n, subset)
    slots = _out_slots(d)
    total = 0
    for v in s:
        for c in range(d.params.k):
            e = slots.get((v, c))
            if e is None or e.head not in s:
                total += 1
    return total


def count_tree_pieces_exact(d: Decomposition, g: Multigraph, subset: Iterable[int]) -> int:
    """Tree-piece count of a forest decomposition, asserted equal to k*n' - m'.

    Valid for subsets of at least two vertices of a proper tree decomposition.
    """
    s = frozenset(subset)
    if len(s) < 2:
        raise ValueError("count defined for subsets of at least 2 vertices")
    count = len(tree_pieces(d, g, s))
    expected = d.params.k * len(s) - induced_edge_count(g, s)
    if count != expected:
        raise CertificateError(
            f"tree-piece count {count} != k*n'-m' = {expected} on subset {sorted(s)}"
        )
    return count


def _overfull_failure(g: Multigraph, params: SparsityParams) -> str:
    """Why g is not (k,l)-sparse, naming an overfull subset; empty if it is sparse."""
    witness = overfull_subset(g, params)
    if witness is None:
        return ""
    return (
        f"subset {list(witness)} spans {induced_edge_count(g, witness)} edges, "
        f"more than k*n'-l = {params.k * len(witness) - params.l}"
    )


def certify_coloring(
    g: Multigraph, d: Decomposition, params: SparsityParams
) -> tuple[bool, dict]:
    """Validate the generic colored decomposition.

    True iff every color class is (1,0)-sparse (witnessed by the stored
    orientation: out-degree <= 1 per vertex per color) and every subgraph
    holds at least l tree-pieces.  By the root rule a subset's piece count is
    k*n' - m', so the piece condition is exactly (k,l)-sparsity of g, which
    `oracle.overfull_subset` decides; a failure names an overfull subset.
    """
    if params != d.params:
        raise CertificateError("parameter mismatch")
    _check_cover(g, d)
    report: dict = {"kind": "coloring", "k": params.k, "l": params.l}
    try:
        _out_slots(d)
    except CertificateError as exc:
        report["failure"] = str(exc)
        return False, report
    failure = _overfull_failure(g, params)
    if failure:
        report["failure"] = failure
    return not failure, report


# -- role-bearing certificates -------------------------------------------------


def _require_tight(result: ConstructionResult) -> None:
    if result.rejected or result.pebbles_remaining() != result.params.l:
        raise NotTightError("input not tight")


def _class_components(
    vertices: Iterable[int], rows: Iterable[ColoredEdge]
) -> list[tuple[int, list[int], set[int]]]:
    """(root, edge ids, vertices) per connected component, singletons included.

    `rows` must lie inside `vertices`.  The root is the unique component
    vertex without an outgoing edge of the class's color; only meaningful for
    acyclic classes.  The walk follows (neighbour, edge id) pairs built once.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    has_out = set()
    for eid, u, v, _, tail in rows:
        adj[u].append((v, eid))
        if u != v:
            adj[v].append((u, eid))
        has_out.add(tail)
    comps = []
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        eids: set[int] = set()
        while stack:
            for y, eid in adj[stack.pop()]:
                eids.add(eid)
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        roots = [v for v in comp if v not in has_out]
        root = min(roots) if roots else min(comp)
        comps.append((root, sorted(eids), comp))
    return comps


def extract_maps_and_trees(result: ConstructionResult) -> Certificate:
    """Split a tight lower-range construction into l spanning trees + k-l maps."""
    params = result.params
    if not params.lower_range:
        raise NotTightError("maps-and-trees requires the lower range (l <= k)")
    _require_tight(result)
    d = result_decomposition(result)
    n = result.graph.n
    classes = d.color_classes()
    trees: list[tuple[int, ...]] = []
    maps: list[tuple[int, ...]] = []
    for c in range(params.l):
        rows = classes[c]
        comps = _class_components(range(n), rows)
        if len(rows) != n - 1 or len(comps) != 1:
            raise CertificateError(f"color {c} is not a spanning tree")
        trees.append(tuple(sorted(e.id for e in rows)))
    for c in range(params.l, params.k):
        rows = classes[c]
        out_deg = [0] * n
        for e in rows:
            out_deg[e.tail] += 1
        if any(deg != 1 for deg in out_deg):
            raise CertificateError(f"color {c} is not a spanning map-graph")
        maps.append(tuple(sorted(e.id for e in rows)))
    return Certificate("maps-and-trees", params, n, d.edges, tuple(trees), tuple(maps))


def extract_proper_ltk(result: ConstructionResult) -> Certificate:
    """Enumerate the l edge-disjoint trees of a tight upper-range construction.

    Every color class of a canonical upper-range game is a forest; its
    components (empty trees included) are the trees, each rooted at the vertex
    holding that color's pebble, and every vertex lies in exactly k of them.
    """
    params = result.params
    if not params.upper_range:
        raise NotTightError("a proper tree decomposition requires the upper range (l >= k)")
    _require_tight(result)
    d = result_decomposition(result)
    n = result.graph.n
    collected: list[tuple[int, int, tuple[int, ...]]] = []  # (root, color, edge ids)
    for c, rows in enumerate(d.color_classes()):
        comps = _class_components(range(n), rows)
        for root, eids, comp in comps:
            if len(eids) != len(comp) - 1:
                raise CertificateError(f"color {c} contains a cycle")
            collected.append((root, c, tuple(eids)))
    if len(collected) != params.l:
        raise CertificateError(
            f"decomposition has {len(collected)} trees, expected l={params.l}"
        )
    collected.sort(key=lambda t: (t[0], t[1]))
    trees = tuple(t[2] for t in collected)
    return Certificate("proper-ltk", params, n, d.edges, trees, ())


def extract_certificate(result: ConstructionResult, kind: str | None = None) -> Certificate:
    """Produce the natural certificate for a construction (range-selected kind)."""
    if kind is None:
        kind = "maps-and-trees" if result.params.lower_range else "proper-ltk"
    if kind == "coloring":
        d = result_decomposition(result)
        return Certificate("coloring", result.params, result.graph.n, d.edges)
    if kind == "maps-and-trees":
        return extract_maps_and_trees(result)
    if kind == "proper-ltk":
        return extract_proper_ltk(result)
    raise ValueError(f"cannot extract certificate of kind {kind!r}")


# -- validation -----------------------------------------------------------------


def validate_certificate(g: Multigraph, cert: Certificate) -> tuple[bool, str]:
    """Run the kind-specific validator; returns (ok, first failing check)."""
    d = cert.decomposition
    try:
        _check_cover(g, d)
        _out_slots(d)
    except CertificateError as exc:
        return False, str(exc)
    if cert.kind == "coloring":
        failure = _overfull_failure(g, cert.params)
        return not failure, failure
    if cert.kind == "maps-and-trees":
        return _validate_maps_and_trees(g, cert)
    if cert.kind == "proper-ltk":
        return _validate_proper_ltk(g, cert)
    return False, f"unknown certificate kind {cert.kind!r}"


def _validate_maps_and_trees(g: Multigraph, cert: Certificate) -> tuple[bool, str]:
    """Structural checks only, no sparsity search.

    l spanning trees plus k-l out-degree-one map-graphs span at most
    k*n' - l edges on every subset by themselves.
    """
    params = cert.params
    if not params.lower_range:
        return False, "maps-and-trees certificate outside the lower range"
    if g.m != params.max_edges(g.n):
        return False, "edge count is not k*n - l"
    if len(cert.trees) != params.l or len(cert.maps) != params.k - params.l:
        return False, "wrong number of tree/map roles"
    classes = cert.decomposition.color_classes()
    for c in range(params.l):
        rows = classes[c]
        if sorted(e.id for e in rows) != sorted(cert.trees[c]):
            return False, f"tree role {c} does not match color class {c}"
        if len(rows) != g.n - 1 or len(_class_components(range(g.n), rows)) != 1:
            return False, f"color {c} is not a spanning tree"
    for i, c in enumerate(range(params.l, params.k)):
        rows = classes[c]
        if sorted(e.id for e in rows) != sorted(cert.maps[i]):
            return False, f"map role {i} does not match color class {c}"
        out_deg = [0] * g.n
        for e in rows:
            out_deg[e.tail] += 1
        if any(deg != 1 for deg in out_deg):
            return False, f"color {c} does not orient out-degree exactly one"
    return True, ""


def _validate_proper_ltk(g: Multigraph, cert: Certificate) -> tuple[bool, str]:
    """Forest color classes whose components are the tree roles, on a sparse g.

    With m = k*n - l, forest classes have l components in all, and each
    color's components cover every vertex once, so every vertex lies in
    exactly k of the l trees.  What remains is the tree-piece condition,
    which is (k,l)-sparsity of g.
    """
    params = cert.params
    if not params.upper_range:
        return False, "proper-ltk certificate outside the upper range"
    if g.m != params.max_edges(g.n):
        return False, "edge count is not k*n - l"
    expected: list[list[int]] = []
    for c, rows in enumerate(cert.decomposition.color_classes()):
        for root, eids, comp in _class_components(range(g.n), rows):
            if len(eids) != len(comp) - 1:
                return False, f"color {c} contains a cycle"
            expected.append(eids)
    if sorted(expected) != sorted(map(sorted, cert.trees)):
        return False, "tree roles do not match the color components"
    failure = _overfull_failure(g, params)
    return not failure, failure


# -- certificate files ---------------------------------------------------------


# Edge fields in record order, under their certificate names.
_EDGE_FIELDS = ("id", "u", "v", "color", "oriented_from")
# One edge in canonical (sorted-key) order, filled from (color, id, tail, u, v).
_EDGE_JSON = '{"color":%d,"id":%d,"oriented_from":%d,"u":%d,"v":%d}'


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


def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON serialization; parse -> write is byte-identical.

    Each edge is formatted straight into its canonical string instead of going
    through a dict, so the writer holds about 0.2 KB per edge beyond its output.
    Every edge field must be a plain int (not a bool or a float): anything else
    raises CertificateError, as reading it back would.
    """
    _require_int_fields(cert.edges)
    rows = ",".join([_EDGE_JSON % (c, i, t, u, v) for i, u, v, c, t in cert.edges])
    rest: dict = {"k": cert.params.k, "l": cert.params.l, "n": cert.n, "kind": cert.kind}
    if cert.kind in ("maps-and-trees", "proper-ltk"):
        rest["roles"] = {"trees": cert.trees, "maps": cert.maps}
    # "edges" sorts before every other key, so it leads the object
    rest_json = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return '{"edges":[' + rows + "]," + rest_json[1:] + "\n"


def _as_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, but true is no vertex or color
        raise CertificateError(f"malformed certificate: {what} must be an integer, got {value!r}")
    return value


def certificate_from_json(text: str | bytes) -> Certificate:
    """Parse a certificate file; raises CertificateError if it is malformed.

    The five fields of every edge record are type-checked in one pass over
    all records; only when that finds a non-int is the bad field named.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"bad certificate JSON: {exc}") from None
    try:
        params = SparsityParams(_as_int(payload["k"], "k"), _as_int(payload["l"], "l"))
        kind = payload["kind"]
        if kind not in CERTIFICATE_KINDS:
            raise CertificateError(f"unknown kind {kind!r}")
        edges = tuple(
            ColoredEdge(e["id"], e["u"], e["v"], e["color"], e["oriented_from"])
            for e in payload["edges"]
        )
        _require_int_fields(edges)
        roles = payload.get("roles", {})
        if not isinstance(roles, dict):
            raise CertificateError(
                f"malformed certificate: roles must be an object, got {roles!r}"
            )
        trees, maps = (
            tuple(tuple(_as_int(i, f"{role} edge id") for i in ids) for ids in roles.get(role, []))
            for role in ("trees", "maps")
        )
        return Certificate(kind, params, _as_int(payload["n"], "n"), edges, trees, maps)
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


def to_dot(g: Multigraph, cert: Certificate | Decomposition, name: str = "decomposition") -> str:
    """Render the colored, oriented decomposition as a Graphviz digraph (one-way)."""
    edges = cert.edges
    lines = [f"digraph {name} {{"]
    lines.append("  node [shape=circle];")
    for v in range(g.n):
        lines.append(f"  {v};")
    for e in sorted(edges, key=lambda r: r.id):
        color = _DOT_PALETTE[e.color % len(_DOT_PALETTE)]
        lines.append(f'  {e.tail} -> {e.head} [color="{color}", label="{e.color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
