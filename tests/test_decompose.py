import itertools
import random
import re

import pytest

from sparsity_kit import (
    CertificateError,
    Multigraph,
    NotTightError,
    SparsityParams,
    brute_force_partition,
    brute_force_sparse,
    certificate_from_json,
    certificate_to_json,
    certify_coloring,
    count_tree_pieces,
    count_tree_pieces_exact,
    extract_certificate,
    extract_coloring,
    extract_maps_and_trees,
    extract_proper_ltk,
    induced_edge_count,
    random_tight_graph,
    result_decomposition,
    run_canonical_game,
    to_dot,
    tree_pieces,
    validate_certificate,
)
from sparsity_kit.decompose import Certificate, ColoredEdge, Decomposition, _class_components

from conftest import K4_EDGES


@pytest.fixture
def k4_decomposition(k4_two_color_state):
    return extract_coloring(k4_two_color_state)


@pytest.fixture
def k4_graph():
    return Multigraph(4, K4_EDGES)


def piece_summary(pieces):
    return sorted((p.color, len(p.vertices), len(p.edge_ids)) for p in pieces)


def test_extract_coloring_k4_classes(k4_decomposition):
    classes = k4_decomposition.color_classes()
    assert len(classes[0]) == 3  # spanning tree color
    assert len(classes[1]) == 3  # ring color
    for cls in classes:
        out_deg = {}
        for e in cls:
            out_deg[e.tail] = out_deg.get(e.tail, 0) + 1
        assert all(d <= 1 for d in out_deg.values())


def test_extract_coloring_empty_graph():
    from sparsity_kit import init_game

    d = extract_coloring(init_game(3, SparsityParams(2, 2)))
    assert d.edges == ()
    assert [len(c) for c in d.color_classes()] == [0, 0]


def test_tree_pieces_center_plus_two_ring_vertices(k4_decomposition, k4_graph):
    # the ring color contributes one real tree and one empty tree at the
    # center; the tree color stays connected: 3 pieces total
    pieces = tree_pieces(k4_decomposition, k4_graph, {0, 1, 2})
    by_color = {0: [], 1: []}
    for p in pieces:
        by_color[p.color].append(p)
    assert len(by_color[1]) == 2
    assert len(by_color[0]) == 1
    empty = [p for p in by_color[1] if not p.edge_ids]
    assert len(empty) == 1 and empty[0].vertices == frozenset({0})
    assert empty[0].root_kind == "pebble"


def test_tree_pieces_ring_subset_gives_three_empty_trees(k4_decomposition, k4_graph):
    # the ring color forms a cycle inside {1,2,3}: no piece from it; the tree
    # color has no edges inside, so each vertex is an empty tree
    pieces = tree_pieces(k4_decomposition, k4_graph, {1, 2, 3})
    assert len(pieces) == 3
    assert all(p.color == 0 for p in pieces)
    assert all(not p.edge_ids for p in pieces)


def test_tree_pieces_full_graph_exactly_l(k4_decomposition, k4_graph):
    pieces = tree_pieces(k4_decomposition, k4_graph, range(4))
    assert len(pieces) == 2  # tight: equality with l


def test_tree_pieces_rejects_empty_subset(k4_decomposition, k4_graph):
    with pytest.raises(ValueError):
        tree_pieces(k4_decomposition, k4_graph, set())


def test_tree_piece_ordering_is_stable(k4_decomposition, k4_graph):
    pieces = tree_pieces(k4_decomposition, k4_graph, range(4))
    keys = [(p.root, 0 if p.root_kind == "pebble" else 1, p.color) for p in pieces]
    assert keys == sorted(keys)


def test_certify_coloring_k4(k4_decomposition, k4_graph):
    ok, report = certify_coloring(k4_graph, k4_decomposition, SparsityParams(2, 2))
    assert ok
    assert "failure" not in report


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
    d = Decomposition(SparsityParams(2, 2), 4, tuple(rows))
    ok, report = certify_coloring(g, d, SparsityParams(2, 2))
    assert not ok
    assert "two outgoing" in report["failure"]


def test_certify_coloring_triangle_exhaustive_pieces():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    d = result_decomposition(res)
    ok, report = certify_coloring(tri, d, SparsityParams(2, 3))
    assert ok
    for sub in ({0, 1}, {1, 2}, {0, 2}, {0, 1, 2}):
        assert len(tree_pieces(d, tri, sub)) >= 3


def test_count_tree_pieces_exact_triangle():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    d = result_decomposition(res)
    assert count_tree_pieces_exact(d, tri, {0, 1, 2}) == 3  # 2*3-3
    u, v = tri.edges[0]
    assert count_tree_pieces_exact(d, tri, {u, v}) == 3  # 2*2-1


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
        d = Decomposition(params, n, rows)
        for _ in range(10):
            size = rng.randint(1, n)
            sub = frozenset(rng.sample(range(n), size))
            assert count_tree_pieces(d, accepted_graph, sub) == len(
                tree_pieces(d, accepted_graph, sub)
            )


def test_count_tree_pieces_matches_formula_on_random_tight():
    rng = random.Random(61)
    for seed in range(15):
        params = SparsityParams(2, 3)
        g = random_tight_graph(rng.randint(3, 6), params, seed)
        res = run_canonical_game(g, params)
        d = result_decomposition(res)
        n = g.n
        for mask in range(1, 1 << n):
            sub = [i for i in range(n) if mask >> i & 1]
            if len(sub) < 2:
                continue
            count_tree_pieces_exact(d, g, sub)  # raises on mismatch


def test_maps_and_trees_k4(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_maps_and_trees(res)
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
    cert = extract_maps_and_trees(res)
    assert len(cert.trees) == 1 and len(cert.maps) == 1
    assert len(cert.trees[0]) == 2 and len(cert.maps[0]) == 3
    ok, why = validate_certificate(g, cert)
    assert ok, why


def test_maps_and_trees_tree_is_its_own_certificate():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    res = run_canonical_game(g, SparsityParams(1, 1))
    cert = extract_maps_and_trees(res)
    assert len(cert.trees) == 1 and not cert.maps
    assert sorted(cert.trees[0]) == [0, 1, 2]
    assert brute_force_partition(g, SparsityParams(1, 1), "maps-and-trees")


def test_maps_and_trees_refuses_non_tight():
    g = Multigraph(4, [(0, 1), (1, 2)])
    res = run_canonical_game(g, SparsityParams(2, 2))
    with pytest.raises(NotTightError, match="not tight"):
        extract_maps_and_trees(res)


def test_maps_and_trees_refuses_upper_range():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    with pytest.raises(NotTightError):
        extract_maps_and_trees(res)


def test_proper_ltk_triangle():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    cert = extract_proper_ltk(res)
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
    cert = extract_proper_ltk(res)
    assert len(cert.trees) == 3
    assert sum(1 for t in cert.trees if not t) == 2
    ok, why = validate_certificate(g, cert)
    assert ok, why


def test_proper_ltk_k4_minus_edge():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    rep = brute_force_sparse(g, SparsityParams(2, 3))
    assert rep.sparse and rep.tight
    res = run_canonical_game(g, SparsityParams(2, 3))
    cert = extract_proper_ltk(res)
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
        extract_proper_ltk(res)


def test_boundary_parameters_allow_both_kinds(k4_graph):
    # l == k sits in both ranges: K4 under (2,2) is a 2-arborescence and a 2T2
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    mat = extract_maps_and_trees(res)
    ltk = extract_proper_ltk(res)
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
    cert = extract_proper_ltk(res)
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
    assert "cycle" in why or "match" in why


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
            d = Decomposition(params, 4, rows)
            try:
                ok, _ = certify_coloring(g, d, params)
            except CertificateError:
                continue
            if ok:
                found = True
                break
        if found:
            break
    assert not found


def test_dot_output_mentions_colors_and_orientation(k4_graph):
    res = run_canonical_game(k4_graph, SparsityParams(2, 2))
    cert = extract_certificate(res)
    dot = to_dot(k4_graph, cert)
    assert dot.startswith("digraph")
    assert "->" in dot
    assert 'color="' in dot


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
    with pytest.raises(CertificateError, match="listed twice"):
        certify_coloring(g, cert.decomposition, params)


def test_piece_counts_reject_out_of_range_vertices(k4_decomposition, k4_graph):
    for bad in (-1, k4_graph.n):
        with pytest.raises(ValueError, match="out of range"):
            count_tree_pieces(k4_decomposition, k4_graph, {bad, 0})
        with pytest.raises(ValueError, match="out of range"):
            tree_pieces(k4_decomposition, k4_graph, {bad, 0})


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
        d = result_decomposition(res)
        trees = tuple(
            tuple(eids)
            for rows in d.color_classes()
            for _, eids, _ in _class_components(range(g.n), rows)
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
    d = Decomposition(params, 2, (ColoredEdge(0, 0, 0, 0, 0),))
    ok, report = certify_coloring(g, d, params)
    assert not ok
    assert _named_subset(report["failure"]) == [0]
    assert not brute_force_sparse(g, params).sparse
    assert run_canonical_game(g, params).rejected == [0]
