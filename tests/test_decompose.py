import hashlib
import itertools
import json
import random
import re
import sys
import tracemalloc
import weakref

import pytest

from sparsity_kit import (
    CertificateError,
    ConstructionResult,
    Multigraph,
    NotTightError,
    SparsityParams,
    brute_force_partition,
    brute_force_sparse,
    certificate_from_json,
    certificate_to_json,
    check_invariants,
    extract_certificate,
    induced_edge_count,
    random_tight_graph,
    read_graph,
    run_canonical_game,
    to_dot,
    validate_certificate,
)
from sparsity_kit import decompose
from sparsity_kit.decompose import (
    CERTIFICATE_KINDS,
    Certificate,
    ColoredEdge,
    _WRITE_BLOCK,
    _color_classes,
    _json_chunks,
)

from conftest import K4_EDGES
from reference import class_components, count_tree_pieces, tree_pieces


@pytest.fixture
def k4_graph():
    return Multigraph(4, K4_EDGES)


@pytest.fixture
def k4_decomposition(k4_two_color_state, k4_graph):
    # the state's edges are K4_EDGES in order: K4's game with every edge accepted
    state = k4_two_color_state
    result = ConstructionResult(k4_graph, state.params, state, list(range(k4_graph.m)))
    return extract_certificate(result, "coloring")


def test_extract_coloring_k4_classes(k4_decomposition):
    assert k4_decomposition.kind == "coloring"
    classes = _color_classes(k4_decomposition.edges)
    assert len(classes[0]) == 3  # spanning tree color
    assert len(classes[1]) == 3  # ring color
    for cls in classes.values():
        out_deg = {}
        for e in cls:
            out_deg[e.tail] = out_deg.get(e.tail, 0) + 1
        assert all(d <= 1 for d in out_deg.values())


def test_extract_coloring_empty_graph():
    d = extract_certificate(run_canonical_game(Multigraph(3), SparsityParams(2, 2)), "coloring")
    assert d == Certificate("coloring", SparsityParams(2, 2), 3, ())


def test_tree_pieces_center_plus_two_ring_vertices(k4_decomposition):
    # the ring color contributes one real tree and one empty tree at the
    # center; the tree color stays connected: 3 pieces total
    pieces = tree_pieces(k4_decomposition, {0, 1, 2})
    by_color = {0: [], 1: []}
    for p in pieces:
        by_color[p.color].append(p)
    assert len(by_color[1]) == 2
    assert len(by_color[0]) == 1
    empty = [p for p in by_color[1] if not p.edge_ids]
    assert len(empty) == 1 and empty[0].vertices == frozenset({0})
    assert empty[0].root_kind == "pebble"


def test_tree_pieces_ring_subset_gives_three_empty_trees(k4_decomposition):
    # the ring color forms a cycle inside {1,2,3}: no piece from it; the tree
    # color has no edges inside, so each vertex is an empty tree
    pieces = tree_pieces(k4_decomposition, {1, 2, 3})
    assert len(pieces) == 3
    assert all(p.color == 0 for p in pieces)
    assert all(not p.edge_ids for p in pieces)


def test_tree_pieces_full_graph_exactly_l(k4_decomposition):
    pieces = tree_pieces(k4_decomposition, range(4))
    assert len(pieces) == 2  # tight: equality with l


def test_certify_coloring_k4(k4_decomposition, k4_graph):
    ok, why = validate_certificate(k4_graph, k4_decomposition)
    assert ok
    assert not why


def test_certify_coloring_rejects_doubled_cycle():
    # recolor K4 so one color is two parallel orientations of a cycle; the
    # per-vertex out-degree witness breaks
    g = Multigraph(4, K4_EDGES)
    rows = [
        ColoredEdge(0, 1, 2, 0, 1),
        ColoredEdge(1, 2, 3, 0, 2),
        ColoredEdge(2, 3, 1, 0, 3),
        ColoredEdge(3, 0, 1, 0, 0),
        ColoredEdge(4, 2, 0, 0, 2),  # second color-0 out-edge at vertex 2
        ColoredEdge(5, 3, 0, 1, 3),
    ]
    d = Certificate("coloring", SparsityParams(2, 2), 4, tuple(rows))
    ok, why = validate_certificate(g, d)
    assert not ok
    assert "two outgoing" in why


def test_certify_coloring_triangle_exhaustive_pieces():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    d = extract_certificate(res, "coloring")
    ok, _ = validate_certificate(tri, d)
    assert ok
    for sub in ({0, 1}, {1, 2}, {0, 2}, {0, 1, 2}):
        assert len(tree_pieces(d, sub)) >= 3


def test_count_tree_pieces_exact_triangle():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    d = extract_certificate(res, "coloring")
    for sub in ({0, 1, 2}, set(tri.edges[0])):  # 2*3-3 and 2*2-1 pieces
        assert len(tree_pieces(d, sub)) == 3 == 2 * len(sub) - induced_edge_count(tri, sub)


def test_root_rule_count_matches_piece_enumeration():
    # the fast root-rule counter and the component-building enumeration are
    # independent routes to the same number
    rng = random.Random(71)
    for _ in range(40):
        k = rng.choice((1, 2, 3))
        l = rng.randrange(2 * k)
        params = SparsityParams(k, l)
        n = rng.randint(2, 6)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        res = run_canonical_game(g, params)
        accepted_graph = Multigraph(n, [g.edges[i] for i in res.accepted])
        rows = tuple(
            ColoredEdge(i, *accepted_graph.edges[i], res.state.colors[i], res.state.tails[i])
            for i in range(len(res.accepted))
        )
        d = Certificate("coloring", params, n, rows)
        for _ in range(10):
            size = rng.randint(1, n)
            sub = frozenset(rng.sample(range(n), size))
            assert count_tree_pieces(d, sub) == len(tree_pieces(d, sub))


def test_count_tree_pieces_matches_formula_on_random_tight():
    rng = random.Random(61)
    for seed in range(15):
        params = SparsityParams(2, 3)
        g = random_tight_graph(rng.randint(3, 6), params, seed)
        res = run_canonical_game(g, params)
        d = extract_certificate(res, "coloring")
        n = g.n
        for mask in range(1, 1 << n):
            sub = [i for i in range(n) if mask >> i & 1]
            if len(sub) < 2:
                continue
            assert len(tree_pieces(d, sub)) == 2 * len(sub) - induced_edge_count(g, sub), sub


def test_maps_and_trees_k4(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_certificate(res, "maps-and-trees")
    assert cert.kind == "maps-and-trees"
    assert len(cert.trees) == 2 and len(cert.maps) == 0
    assert all(len(t) == 3 for t in cert.trees)
    ok, why = validate_certificate(k4_graph, cert)
    assert ok, why
    assert brute_force_partition(k4_graph, SparsityParams(2, 2), "maps-and-trees")


def test_maps_and_trees_with_map_color():
    # a (2,1)-tight graph: one spanning tree + one spanning map-graph
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)])
    rep = brute_force_sparse(g, SparsityParams(2, 1))
    assert rep.sparse and rep.tight
    res = run_canonical_game(g, SparsityParams(2, 1))
    cert = extract_certificate(res, "maps-and-trees")
    assert len(cert.trees) == 1 and len(cert.maps) == 1
    assert len(cert.trees[0]) == 2 and len(cert.maps[0]) == 3
    ok, why = validate_certificate(g, cert)
    assert ok, why


def test_maps_and_trees_tree_is_its_own_certificate():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    res = run_canonical_game(g, SparsityParams(1, 1))
    cert = extract_certificate(res, "maps-and-trees")
    assert len(cert.trees) == 1 and not cert.maps
    assert sorted(cert.trees[0]) == [0, 1, 2]
    assert brute_force_partition(g, SparsityParams(1, 1), "maps-and-trees")


def test_maps_and_trees_refuses_non_tight():
    g = Multigraph(4, [(0, 1), (1, 2)])
    res = run_canonical_game(g, SparsityParams(2, 2))
    with pytest.raises(NotTightError, match="not tight"):
        extract_certificate(res, "maps-and-trees")


def test_maps_and_trees_refuses_upper_range():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    with pytest.raises(NotTightError):
        extract_certificate(res, "maps-and-trees")


def test_proper_ltk_triangle():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    cert = extract_certificate(res, "proper-ltk")
    assert cert.kind == "proper-ltk"
    assert len(cert.trees) == 3
    membership = [0, 0, 0]
    for t in cert.trees:
        verts = set()
        for eid in t:
            verts.update(tri.edges[eid])
        for v in verts:
            membership[v] += 1
    # empty trees cover the remaining memberships up to k
    empties = sum(1 for t in cert.trees if not t)
    assert sum(membership) + empties == 2 * 3
    ok, why = validate_certificate(tri, cert)
    assert ok, why
    assert brute_force_partition(tri, SparsityParams(2, 3), "ltk")


def test_proper_ltk_single_edge_has_single_vertex_trees():
    # one of the trees is a bare vertex, as happens in any tight graph whose
    # pebbles end up isolated in their color
    g = Multigraph(2, [(0, 1)])
    res = run_canonical_game(g, SparsityParams(2, 3))
    cert = extract_certificate(res, "proper-ltk")
    assert len(cert.trees) == 3
    assert sum(1 for t in cert.trees if not t) == 2
    ok, why = validate_certificate(g, cert)
    assert ok, why


def test_proper_ltk_k4_minus_edge():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    rep = brute_force_sparse(g, SparsityParams(2, 3))
    assert rep.sparse and rep.tight
    res = run_canonical_game(g, SparsityParams(2, 3))
    cert = extract_certificate(res, "proper-ltk")
    assert len(cert.trees) == 3
    assert sum(len(t) for t in cert.trees) == 5
    ok, why = validate_certificate(g, cert)
    assert ok, why
    # every vertex in exactly k trees, via the validator's own recomputation
    assert brute_force_partition(g, SparsityParams(2, 3), "ltk")


def test_proper_ltk_refuses_strict_lower_range():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)])  # (2,1)-tight
    res = run_canonical_game(g, SparsityParams(2, 1))
    with pytest.raises(NotTightError):
        extract_certificate(res, "proper-ltk")


def test_boundary_parameters_allow_both_kinds(k4_graph):
    # l == k sits in both ranges: K4 under (2,2) is a 2-arborescence and a 2T2
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    mat = extract_certificate(res, "maps-and-trees")
    ltk = extract_certificate(res, "proper-ltk")
    assert validate_certificate(k4_graph, mat)[0]
    assert validate_certificate(k4_graph, ltk)[0]


def test_certificate_json_round_trip(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_certificate(res)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert again == cert


def test_certificate_json_empty_decomposition():
    g = Multigraph(2, [])
    res = run_canonical_game(g, SparsityParams(2, 3))
    cert = extract_certificate(res, "coloring")
    text = certificate_to_json(cert)
    assert '"edges":[]' in text
    assert certificate_from_json(text) == cert


# One SHA-256 over the certificate JSON of seeded tight games, fixed when the
# writer's output was last intended to change.  A serializer rewrite that
# changes any byte of any kind changes this digest.
CERTIFICATE_JSON_DIGEST = "c7127c9c7d1e764069d12dcd5cdfe9250de2e26ed7df6c5e4c669ccafd55ad4b"


def test_certificate_json_is_pinned():
    digest = hashlib.sha256()
    for k, l in [(1, 0), (1, 1), (2, 0), (2, 2), (2, 3), (3, 3), (3, 5)]:
        params = SparsityParams(k, l)
        # no (3,5)-tight graph exists on 3 vertices; 5 is the fewest
        for n in (5 if (k, l) == (3, 5) else 3, 40, 300):
            res = run_canonical_game(random_tight_graph(n, params, n), params)
            for kind in CERTIFICATE_KINDS:
                try:
                    cert = extract_certificate(res, kind)
                except NotTightError:  # the kind is outside this range
                    continue
                text = certificate_to_json(cert)
                assert certificate_to_json(certificate_from_json(text)) == text
                digest.update(text.encode())
    assert digest.hexdigest() == CERTIFICATE_JSON_DIGEST


def test_colored_edge_is_a_plain_tuple():
    e = ColoredEdge(3, 0, 1, 2, 1)
    assert e == (3, 0, 1, 2, 1)
    assert (e.id, e.u, e.v, e.color, e.tail, e.head) == (3, 0, 1, 2, 1, 0)


def test_certificate_writer_memory_per_edge():
    # a dict per edge for json.dumps held about 1 KB per edge, one formatted
    # string per edge joined at once 183 B, and rows joined a block of edges
    # at a time 122 B (Python 3.11): the output text and its chunks
    params = SparsityParams(3, 3)
    res = run_canonical_game(random_tight_graph(500, params, 12345), params)
    cert = extract_certificate(res, "maps-and-trees")
    tracemalloc.start()
    try:
        certificate_to_json(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(cert.edges) < 135


def test_certificate_reader_memory_per_edge():
    # a dict per edge record held until every edge is built took 384 B per
    # edge under Python 3.11 (429 B under 3.10), records turned into edges
    # inside the decoder 209 B under both, and one int object shared per
    # vertex id 173 B under 3.11
    params = SparsityParams(3, 3)
    res = run_canonical_game(random_tight_graph(500, params, 12345), params)
    text = certificate_to_json(extract_certificate(res, "maps-and-trees"))
    certificate_from_json(text)  # first-call allocations are not per edge
    tracemalloc.start()
    try:
        cert = certificate_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(cert.edges) < 190
    ends = [x for e in cert.edges for x in (e.u, e.v, e.tail)]
    assert len({id(x) for x in ends}) == len(set(ends)) == cert.n


def test_certificate_chunks_join_to_the_written_text():
    # (3,3) n = 500 has 1497 edges, so the edge list spans three blocks
    params = SparsityParams(3, 3)
    res = run_canonical_game(random_tight_graph(500, params, 12345), params)
    cert = extract_certificate(res, "maps-and-trees")
    chunks = list(_json_chunks(cert))
    assert "".join(chunks) == certificate_to_json(cert)
    blocks = [chunk.count('"id":') for chunk in chunks]
    assert [b for b in blocks if b] == [_WRITE_BLOCK, _WRITE_BLOCK, 1497 - 2 * _WRITE_BLOCK]


@pytest.mark.parametrize("bad", ["field", "coloring roles"])
def test_certificate_chunks_raise_before_the_first_chunk(k4_graph, bad):
    # the checks run when the chunks are asked for, so a refused certificate
    # hands its writer nothing to write
    cert = extract_certificate(run_canonical_game(k4_graph, SparsityParams(2, 2)), "coloring")
    if bad == "field":
        edges = (*cert.edges[:-1], cert.edges[-1]._replace(tail=1.0))
        cert = Certificate(cert.kind, cert.params, cert.n, edges)
        message = "oriented_from must be an integer, got 1.0"
    else:
        cert = Certificate(cert.kind, cert.params, cert.n, cert.edges, ((99, 100),), ((5,),))
        message = "a coloring certificate has no roles"
    with pytest.raises(CertificateError, match=message):
        _json_chunks(cert)


def test_writer_refuses_a_coloring_that_lists_roles():
    # the text has no place for a coloring's roles: writing them nowhere made
    # a coloring the validator refuses valid after one write and read
    edge = ColoredEdge(0, 0, 1, 0, 0)
    for trees, maps in ((((99, 100),), ((5,),)), (((0,),), ()), ((), ((0,),))):
        cert = Certificate("coloring", SparsityParams(1, 0), 2, (edge,), trees, maps)
        assert validate_certificate(Multigraph(2, [(0, 1)]), cert) == (
            False,
            "a coloring certificate has no roles",
        )
        with pytest.raises(CertificateError, match="^a coloring certificate has no roles$"):
            certificate_to_json(cert)


@pytest.mark.parametrize("field, value", [("color", True), ("id", 1.0)])
def test_certificate_writer_rejects_non_integer_fields(k4_graph, field, value):
    cert = extract_certificate(run_canonical_game(k4_graph, SparsityParams(2, 2)))
    edges = (cert.edges[0], cert.edges[1]._replace(**{field: value}), *cert.edges[2:])
    bad = Certificate(cert.kind, cert.params, cert.n, edges, cert.trees, cert.maps)
    with pytest.raises(CertificateError, match=f"{field} must be an integer"):
        certificate_to_json(bad)


@pytest.mark.parametrize("field", ["n", "trees edge id"])
def test_certificate_writer_rejects_boolean_n_and_role_ids(k4_graph, field):
    cert = extract_certificate(run_canonical_game(k4_graph, SparsityParams(2, 2)))
    if field == "n":
        bad = Certificate(cert.kind, cert.params, True, cert.edges, cert.trees, cert.maps)
    else:
        trees = ((True, *cert.trees[0][1:]), *cert.trees[1:])
        bad = Certificate(cert.kind, cert.params, cert.n, cert.edges, trees, cert.maps)
    with pytest.raises(CertificateError, match=f"{field} must be an integer, got True"):
        certificate_to_json(bad)


def test_reader_reads_back_every_built_certificate():
    # the certificates of both pinned digests' families, mutants included:
    # each reads back to an equal Certificate of ColoredEdge records, and
    # parse -> write is byte-identical
    rng = random.Random(19)
    for k, l in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (3, 5)]:
        params = SparsityParams(k, l)
        for n in (5, 9, 40):
            res = run_canonical_game(random_tight_graph(n, params, n), params)
            for kind in CERTIFICATE_KINDS:
                try:
                    cert = extract_certificate(res, kind)
                except NotTightError:  # the kind is outside this range
                    continue
                for built in _mutants(cert, rng):
                    text = certificate_to_json(built)
                    again = certificate_from_json(text)
                    assert again == built
                    assert {type(e) for e in again.edges} <= {ColoredEdge}
                    assert certificate_to_json(again) == text


def test_reader_accepts_reformatted_records_and_extra_keys(k4_graph):
    # indented, keys in any order, and one edge record with a sixth key: that
    # record stays an object in the decoder and is converted afterwards
    cert = extract_certificate(run_canonical_game(k4_graph, SparsityParams(2, 2)))
    payload = json.loads(certificate_to_json(cert))
    payload["edges"] = [dict(reversed(row.items())) for row in payload["edges"]]
    payload["edges"][2]["note"] = "hand-edited"
    again = certificate_from_json(json.dumps(dict(reversed(payload.items())), indent=2))
    assert again == cert
    assert {type(e) for e in again.edges} == {ColoredEdge}


# One edge record and certificates built around it; EDGE also stands in as an
# edge-shaped object where no edge record belongs.  Its keys are in field order,
# the order in which the reader rebuilds such an object where it iterates one.
EDGE = '{"id":0,"u":0,"v":1,"color":0,"oriented_from":0}'


def _cert_text(edges=EDGE, n="2", kind='"maps-and-trees"', roles='{"trees":[[0]],"maps":[]}'):
    return '{"edges":[%s],"k":1,"l":1,"n":%s,"kind":%s,"roles":%s}' % (edges, n, kind, roles)


def _str_index_error() -> str:
    try:
        str.__getitem__("id", "id")
    except TypeError as exc:  # its wording differs between Python versions
        return str(exc)


# Messages as the reader that kept every record a dict gave them.
@pytest.mark.parametrize(
    "text, message",
    [
        (
            _cert_text(edges='{"id":0,"u":0,"v":1,"color":0}'),
            "malformed certificate: 'oriented_from'",
        ),
        (
            _cert_text(edges='{"id":0,"u":0,"v":1,"color":0,"tail":0}'),
            "malformed certificate: 'oriented_from'",
        ),
        (
            _cert_text(edges='{"id":"0","u":0,"v":1,"color":0,"oriented_from":0}'),
            "malformed certificate: id must be an integer, got '0'",
        ),
        (
            _cert_text(edges='{"id":0,"u":0.0,"v":1,"color":0,"oriented_from":0}'),
            "malformed certificate: u must be an integer, got 0.0",
        ),
        (
            _cert_text(edges='{"id":0,"u":0,"v":1,"color":true,"oriented_from":0}'),
            "malformed certificate: color must be an integer, got True",
        ),
        (
            _cert_text(roles='{"trees":[[true]],"maps":[]}'),
            "malformed certificate: trees edge id must be an integer, got True",
        ),
        (_cert_text(kind='"bogus"'), "unknown kind 'bogus'"),
        (_cert_text(roles="null"), "malformed certificate: roles must be an object, got None"),
        (_cert_text(roles="[]"), "malformed certificate: roles must be an object, got []"),
        ('{"edges": [', "bad certificate JSON: Expecting value: line 1 column 12 (char 11)"),
        (
            "\ufeff" + _cert_text(),
            "bad certificate JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)",
        ),
        (
            _cert_text(edges="[0,0,1,0,0]"),
            "malformed certificate: list indices must be integers or slices, not str",
        ),
        # edge-shaped objects where the reader takes or iterates an object:
        # the decoder builds a ColoredEdge from each, and the reader must
        # still see the object
        (EDGE, "malformed certificate: 'k'"),
        (
            _cert_text(roles='{"trees":[%s],"maps":[]}' % EDGE),
            "malformed certificate: trees edge id must be an integer, got 'id'",
        ),
        (
            _cert_text(roles='{"trees":%s,"maps":[]}' % EDGE),
            "malformed certificate: trees edge id must be an integer, got 'i'",
        ),
        (
            '{"edges":%s,"k":1,"l":1,"n":2,"kind":"coloring"}' % EDGE,
            "malformed certificate: " + _str_index_error(),
        ),
    ],
)
def test_reader_messages_are_unchanged(text, message):
    with pytest.raises(CertificateError) as info:
        certificate_from_json(text)
    assert str(info.value) == message


def test_reader_keeps_an_edge_shaped_roles_object():
    # an object of roles with no trees or maps key declares no roles
    cert = certificate_from_json(_cert_text(roles=EDGE))
    assert (cert.trees, cert.maps) == ((), ())
    assert cert.edges == (ColoredEdge(0, 0, 1, 0, 0),)


def test_certificate_rejects_malformed_json():
    with pytest.raises(CertificateError):
        certificate_from_json("{not json")
    with pytest.raises(CertificateError):
        certificate_from_json('{"k":2,"l":2,"n":2,"kind":"bogus","edges":[]}')


def test_validator_catches_recolored_edge(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_certificate(res)
    rows = list(cert.edges)
    victim = rows[0]
    rows[0] = ColoredEdge(victim.id, victim.u, victim.v, 1 - victim.color, victim.tail)
    bad = type(cert)(cert.kind, cert.params, cert.n, tuple(rows), cert.trees, cert.maps)
    ok, why = validate_certificate(k4_graph, bad)
    assert not ok and why


def test_validator_catches_cycle_in_upper_range():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    cert = extract_certificate(res, "proper-ltk")
    rows = [ColoredEdge(e.id, e.u, e.v, 0, e.tail) for e in cert.edges]
    # force all edges into color 0 oriented cyclically: a monochromatic cycle
    rows = [
        ColoredEdge(0, 0, 1, 0, 0),
        ColoredEdge(1, 1, 2, 0, 1),
        ColoredEdge(2, 2, 0, 0, 2),
    ]
    bad = type(cert)(cert.kind, cert.params, cert.n, tuple(rows), cert.trees, cert.maps)
    ok, why = validate_certificate(tri, bad)
    assert not ok
    assert why == "color 0 contains a cycle"


def test_validator_catches_cycle_in_lower_range(k4_graph):
    # (2,2) on K4: color 0 is the directed triangle 0->1->2->0, color 1 the
    # star into vertex 3; every slot is single and m = 2*4 - 2
    color = {(0, 1): 0, (1, 2): 0, (2, 0): 0, (0, 3): 1, (1, 3): 1, (2, 3): 1}
    rows = []
    for i, (u, v) in enumerate(K4_EDGES):
        tail, head = (u, v) if (u, v) in color else (v, u)
        rows.append(ColoredEdge(i, u, v, color[tail, head], tail))
    trees = tuple(tuple(e.id for e in rows if e.color == c) for c in range(2))
    cert = Certificate("maps-and-trees", SparsityParams(2, 2), 4, tuple(rows), trees)
    assert validate_certificate(k4_graph, cert) == (False, "color 0 contains a cycle")


def test_validator_names_the_first_failing_tree_color():
    # (2,2) on a doubled edge: color 0 is empty, so it does not span, and
    # color 1 holds both edges oriented opposite ways, a cycle; color 0 is named
    g = Multigraph(2, [(0, 1), (0, 1)])
    rows = (ColoredEdge(0, 0, 1, 1, 0), ColoredEdge(1, 0, 1, 1, 1))
    cert = Certificate("maps-and-trees", SparsityParams(2, 2), 2, rows, ((), (0, 1)))
    assert validate_certificate(g, cert) == (False, "color 0 is not a spanning tree")


def test_coloring_certificate_with_roles_is_invalid(k4_graph, k4_decomposition):
    d = k4_decomposition
    assert validate_certificate(k4_graph, d) == (True, "")
    for trees, maps in ((((99, 100),), ((5,),)), (((0, 1),), ()), ((), ((5,),))):
        cert = Certificate("coloring", d.params, d.n, d.edges, trees, maps)
        assert validate_certificate(k4_graph, cert) == (
            False,
            "a coloring certificate has no roles",
        )


def test_extraction_derives_roles_and_validation_checks():
    # move one edge out of tree color 0 into color 1 at the color-1 root, so
    # out-degree stays at most one but color 0 no longer spans: extraction
    # still returns a certificate, and only the validator rejects it
    params = SparsityParams(2, 2)
    g = random_tight_graph(20, params, 5)
    res = run_canonical_game(g, params)
    colors, tails = res.state.colors, res.state.tails
    has_color_1_out = {tails[i] for i, c in enumerate(colors) if c == 1}
    pos = next(i for i, c in enumerate(colors) if c == 0 and tails[i] not in has_color_1_out)
    colors[pos] = 1
    cert = extract_certificate(res, "maps-and-trees")
    assert [len(t) for t in cert.trees] == [g.n - 2, g.n]
    ok, why = validate_certificate(g, cert)
    assert not ok
    assert why == "color 0 is not a spanning tree"


def _rederived(cert, edges):
    """`cert` with `edges` and the roles their coloring defines."""
    k, l = cert.params.k, cert.params.l
    classes = [[] for _ in range(k)]
    for e in edges:
        classes[e.color].append(e)
    trees, maps = (), ()
    if cert.kind == "maps-and-trees":
        ids = [tuple(sorted(e.id for e in rows)) for rows in classes]
        trees, maps = tuple(ids[:l]), tuple(ids[l:])
    elif cert.kind == "proper-ltk":
        found = sorted(
            (root, c, tuple(eids))
            for c, rows in enumerate(classes)
            for root, eids, _ in class_components(range(cert.n), rows)
        )
        trees = tuple(eids for _, _, eids in found)
    return Certificate(cert.kind, cert.params, cert.n, tuple(edges), trees, maps)


def _mutants(cert, rng):
    """`cert` and seeded mutants: recolored, reoriented and color-swapped edges
    (with stale or re-derived roles), and swapped, shuffled and dropped roles."""
    edges, roles, split = cert.edges, cert.trees + cert.maps, len(cert.trees)

    def with_edges(new):
        return Certificate(cert.kind, cert.params, cert.n, tuple(new), cert.trees, cert.maps)

    def with_roles(new, split=split):
        return Certificate(cert.kind, cert.params, cert.n, edges, new[:split], new[split:])

    yield cert
    for _ in range(3):
        if cert.params.k > 1:
            i = rng.randrange(len(edges))
            new = list(edges)
            other = [c for c in range(cert.params.k) if c != edges[i].color]
            new[i] = edges[i]._replace(color=rng.choice(other))
            yield with_edges(new)
            yield _rederived(cert, new)
        i = rng.randrange(len(edges))
        new = list(edges)
        new[i] = edges[i]._replace(tail=edges[i].head)
        yield with_edges(new)
        yield _rederived(cert, new)
        i, j = rng.sample(range(len(edges)), 2)
        new = list(edges)
        new[i] = edges[i]._replace(color=edges[j].color)
        new[j] = edges[j]._replace(color=edges[i].color)
        yield _rederived(cert, new)
        if len(roles) > 1:
            i, j = rng.sample(range(len(roles)), 2)
            new = list(roles)
            new[i], new[j] = roles[j], roles[i]
            yield with_roles(tuple(new))
        if roles:
            yield with_roles(tuple(tuple(rng.sample(r, len(r))) for r in roles))
            i = rng.randrange(len(roles))
            yield with_roles(roles[:i] + roles[i + 1 :], split - (i < split))


# One SHA-256 over the validator's verdicts on the certificates of
# `_mutants`, fixed when extraction still checked structure itself.  Dropping
# or loosening a check that decides any of these verdicts changes it.
VALIDATOR_VERDICT_DIGEST = "3518b75c6f3dc6af12b039977c6547bef2f7af3d2948d8bdeecf7ecc4dc29e66"


def test_validator_verdicts_are_pinned():
    rng = random.Random(2026)
    verdicts = []
    for k, l in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (3, 5)]:
        params = SparsityParams(k, l)
        for n in (5, 9, 14):
            g = random_tight_graph(n, params, n)
            res = run_canonical_game(g, params)
            for kind in CERTIFICATE_KINDS:
                try:
                    cert = extract_certificate(res, kind)
                except NotTightError:  # the kind is outside this range
                    continue
                for bad in _mutants(cert, rng):
                    verdicts.append("1" if validate_certificate(g, bad)[0] else "0")
    text = "".join(verdicts)
    assert 300 < text.count("1") < len(text) - 300, text.count("1")
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATOR_VERDICT_DIGEST


def test_adversarial_proper_coloring_implies_sparse():
    # converse direction: any coloring that certifies must come from a sparse
    # graph; K4 under (2,3) is not sparse, so no coloring can pass
    g = Multigraph(4, K4_EDGES)
    params = SparsityParams(2, 3)
    found = False
    for colors in itertools.product((0, 1), repeat=6):
        for tails in itertools.product(*[g.edges[i] for i in range(6)]):
            rows = tuple(
                ColoredEdge(i, g.edges[i][0], g.edges[i][1], colors[i], tails[i])
                for i in range(6)
            )
            ok, _ = validate_certificate(g, Certificate("coloring", params, 4, rows))
            if ok:
                found = True
                break
        if found:
            break
    assert not found


def test_dot_output_mentions_colors_and_orientation(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_certificate(res)
    dot = to_dot(cert)
    assert dot.startswith("digraph")
    assert "->" in dot
    assert 'color="' in dot
    # one node line per vertex of the certificate, and every arrow between them
    lines = dot.splitlines()
    nodes = [line.strip(" ;") for line in lines if re.fullmatch(r"  \d+;", line)]
    arrows = [line.split()[:3] for line in lines if "->" in line]
    assert nodes == [str(v) for v in range(cert.n)]
    assert len(arrows) == k4_graph.m
    assert all(a in nodes and b in nodes for a, _, b in arrows)


def test_extract_certificate_refuses_a_streamed_game():
    # a game played from an EdgeStream has spent its edges, so no kind can
    # name each edge's endpoints
    text = ["3 3\n0 1\n1 2\n2 0\n"]
    for kind in (None, *CERTIFICATE_KINDS):
        res = run_canonical_game(read_graph(text), SparsityParams(2, 3))
        assert res.is_tight()
        with pytest.raises(ValueError, match="played on a Multigraph"):
            extract_certificate(res, kind)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="Python 3.10 keeps a call's arguments on the caller's stack until it returns",
)
@pytest.mark.parametrize("kind", ["maps-and-trees", "proper-ltk"])
def test_extraction_frees_a_game_passed_as_a_temporary(monkeypatch, kind):
    # extract_certificate drops its references to the result once it has read
    # the coloring, so a game that nobody else holds is freed before the
    # certificate's edges and roles are built
    params = SparsityParams(3, 3)
    g = random_tight_graph(30, params, 1)
    refs = []

    def played():
        result = run_canonical_game(g, params)
        refs.append(weakref.ref(result))
        return result

    derive = decompose._roles
    freed = []

    def roles(d, kind):
        freed.append(refs[0]() is None)
        return derive(d, kind)

    monkeypatch.setattr(decompose, "_roles", roles)
    cert = extract_certificate(played(), kind)
    assert freed == [True]
    assert validate_certificate(g, cert) == (True, "")


def test_extraction_leaves_a_held_game_as_it_was():
    # a caller that keeps its result keeps the whole game, unchanged
    params = SparsityParams(3, 3)
    g = random_tight_graph(30, params, 2)
    result = run_canonical_game(g, params)
    digest, accepted = result.state.state_hash(), list(result.accepted)
    for kind in CERTIFICATE_KINDS:
        extract_certificate(result, kind)
        assert check_invariants(result.state).ok
        assert result.state.state_hash() == digest and result.accepted == accepted
    assert result.is_tight()


def test_cover_check_rejects_repeated_edge_id():
    # id 3 listed twice and id 2 left out: the rows still number m, and the
    # graph (three parallel edges on {0, 1}) is not (2,2)-sparse
    g = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    params = SparsityParams(2, 2)
    rows = (
        ColoredEdge(0, 0, 1, 0, 0),
        ColoredEdge(3, 1, 2, 0, 1),
        ColoredEdge(1, 0, 1, 1, 1),
        ColoredEdge(3, 1, 2, 1, 2),
    )
    cert = Certificate("maps-and-trees", params, 3, rows, ((0, 3), (1, 3)), ())
    ok, why = validate_certificate(g, cert)
    assert not ok
    assert "edge id 3 listed twice" in why


@pytest.mark.parametrize("field, value", [("tail", -1), ("tail", 4), ("color", 2), ("color", -1)])
def test_piece_counts_reject_out_of_range_tails_and_colors(k4_decomposition, field, value):
    # both piece counts read the orientation through `_out_slots`, which
    # refuses a slot key that would name another vertex's slot
    rows = list(k4_decomposition.edges)
    rows[0] = rows[0]._replace(**{field: value})
    d = Certificate("coloring", SparsityParams(2, 2), 4, tuple(rows))
    with pytest.raises(CertificateError, match="out of range"):
        count_tree_pieces(d, range(4))
    with pytest.raises(CertificateError, match="out of range"):
        tree_pieces(d, range(4))


def _named_subset(why: str) -> list[int]:
    match = re.search(r"subset \[([\d, ]+)\] spans", why)
    assert match, why
    return [int(v) for v in match.group(1).split(",")]


def test_relabelled_22_coloring_is_neither_23_certificate():
    # K4 plus vertices 4..29 joined by two edges each, but one joined by one:
    # m = 2n - 3, yet K4 spans 6 > 2*4 - 3 edges.  The (2,2) game's coloring
    # has forest classes with l = 3 components in all, so only the sparsity
    # check can reject it as a (2,3) certificate.
    params = SparsityParams(2, 3)
    for seed in range(10):
        rng = random.Random(seed)
        edges = list(K4_EDGES)
        single = rng.randrange(4, 30)
        for v in range(4, 30):
            edges.extend((u, v) for u in rng.sample(range(v), 1 if v == single else 2))
        g = Multigraph(30, edges)
        assert g.m == params.max_edges(g.n)
        res = run_canonical_game(g, SparsityParams(2, 2))
        assert not res.rejected
        d = extract_certificate(res, "coloring")
        classes = _color_classes(d.edges)
        trees = tuple(
            tuple(eids)
            for c in range(2)
            for _, eids, _ in class_components(range(g.n), classes.get(c, ()))
        )
        for cert in (
            Certificate("proper-ltk", params, g.n, d.edges, trees),
            Certificate("coloring", params, g.n, d.edges),
        ):
            ok, why = validate_certificate(g, cert)
            assert not ok, (seed, cert.kind)
            sub = _named_subset(why)
            assert induced_edge_count(g, sub) > params.k * len(sub) - params.l


def test_certify_coloring_rejects_upper_range_loop():
    # a singleton with a loop spans 1 > max(2*1 - 3, 0) edges; every subset
    # of two or more vertices still holds 3 tree-pieces
    g = Multigraph(2, [(0, 0)])
    params = SparsityParams(2, 3)
    d = Certificate("coloring", params, 2, (ColoredEdge(0, 0, 0, 0, 0),))
    ok, why = validate_certificate(g, d)
    assert not ok
    assert _named_subset(why) == [0]
    assert not brute_force_sparse(g, params).sparse
    assert run_canonical_game(g, params).rejected == [0]
