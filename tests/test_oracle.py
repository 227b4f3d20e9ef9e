import hashlib
import json
import random

import pytest

from sparsity_kit import (
    Decomposition,
    Multigraph,
    OracleSizeError,
    SparsityParams,
    brute_force_partition,
    brute_force_sparse,
    certify_coloring,
    enumerate_small_multigraphs,
    enumerate_tight_graphs,
    induced_edge_count,
    overfull_subset,
    random_tight_graph,
    result_decomposition,
    run_canonical_game,
)

from conftest import ALL_PARAMS, tight_exists


def test_k4_two_two_report(k4):
    rep = brute_force_sparse(k4, SparsityParams(2, 2))
    assert rep.sparse and rep.tight
    assert rep.components == [(0, 1, 2, 3)]


def test_k4_two_three_not_sparse(k4):
    rep = brute_force_sparse(k4, SparsityParams(2, 3))
    assert not rep.sparse
    assert rep.violating == (0, 1, 2, 3)


def test_two_disjoint_triangles_two_blocks():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    rep = brute_force_sparse(g, SparsityParams(2, 3))
    assert rep.sparse and not rep.tight
    assert (0, 1, 2) in rep.components and (3, 4, 5) in rep.components


def test_violating_subset_satisfies_definition():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    params = SparsityParams(2, 3)
    rep = brute_force_sparse(g, params)
    assert not rep.sparse
    s = set(rep.violating)
    m_sub = sum(1 for u, v in g.edges if u in s and v in s)
    assert m_sub > params.k * len(s) - params.l


def test_loops_count_in_singleton_spans():
    g = Multigraph(1, [(0, 0)])
    assert brute_force_sparse(g, SparsityParams(1, 0)).tight
    assert not brute_force_sparse(g, SparsityParams(2, 3)).sparse
    assert brute_force_sparse(g, SparsityParams(2, 1)).sparse


def test_empty_graph_is_sparse_everywhere():
    g = Multigraph(5, [])
    for params in ALL_PARAMS:
        assert brute_force_sparse(g, params).sparse


def test_size_refusal():
    g = Multigraph(21, [])
    with pytest.raises(OracleSizeError):
        brute_force_sparse(g, SparsityParams(2, 3))
    with pytest.raises(OracleSizeError):
        brute_force_partition(Multigraph(7, []), SparsityParams(1, 1), "maps-and-trees")
    with pytest.raises(OracleSizeError):
        list(enumerate_small_multigraphs(6, 1))


def test_partition_k4_two_spanning_trees(k4):
    assert brute_force_partition(k4, SparsityParams(2, 2), "maps-and-trees")


def test_partition_triangle_ltk():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert brute_force_partition(tri, SparsityParams(2, 3), "ltk")


def test_partition_path_is_a_tree():
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert brute_force_partition(g, SparsityParams(1, 1), "maps-and-trees")


def test_partition_rejects_wrong_edge_count():
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert not brute_force_partition(g, SparsityParams(2, 3), "ltk")
    assert not brute_force_partition(g, SparsityParams(2, 2), "maps-and-trees")


def test_partition_rejects_non_sparse_tight_count():
    # 4 edges on 3 vertices with a doubled pair: right count for (2,2) but the
    # pair violates the (2,2) subset bound, so no certificate exists
    g = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    assert not brute_force_partition(g, SparsityParams(2, 2), "maps-and-trees")


def test_enumerate_single_vertex():
    gs = list(enumerate_small_multigraphs(1, 2))
    assert len(gs) == 3  # empty, one loop, two loops


def test_enumerate_two_vertices_one_edge():
    gs = list(enumerate_small_multigraphs(2, 1))
    assert len(gs) == 4  # empty, loop@0, loop@1, edge


def test_enumerate_two_vertices_count_matches_multiset_formula():
    # 3 slot types, multisets of size <= 2: 1 + 3 + 6 = 10
    gs = list(enumerate_small_multigraphs(2, 2))
    assert len(gs) == 10
    assert len({tuple(sorted(g.edges)) for g in gs}) == 10


def test_enumerate_tight_graphs_matches_filter():
    params = SparsityParams(2, 3)
    expected = [
        g
        for g in enumerate_small_multigraphs(3, 3)
        if g.m == 3 and brute_force_sparse(g, params).sparse
    ]
    got = list(enumerate_tight_graphs(3, params))
    assert {tuple(sorted(g.edges)) for g in got} == {
        tuple(sorted(g.edges)) for g in expected
    }
    # the triangle is the only loopless option
    assert len(got) == 1 and sorted(got[0].edges) == [(0, 1), (0, 2), (1, 2)]


def test_random_tight_graph_oracle_confirms():
    for params in ALL_PARAMS:
        for seed in range(6):
            n = 2 + seed
            if not tight_exists(n, params):
                continue
            g = random_tight_graph(n, params, seed)
            rep = brute_force_sparse(g, params)
            assert rep.sparse and rep.tight, (params, n, seed, g.edges)


def test_random_tight_graph_deterministic_per_seed():
    params = SparsityParams(2, 3)
    a = random_tight_graph(6, params, 123)
    b = random_tight_graph(6, params, 123)
    c = random_tight_graph(6, params, 124)
    assert a.edges == b.edges
    assert a.edges != c.edges or a.n == c.n  # different seed usually differs


# (k, l, n, seed); the two n = 500 graphs match the benchmark's input sizes
PINNED_GRAPHS = [
    (1, 1, 30, 1),
    (2, 0, 30, 2),
    (2, 2, 40, 3),
    (2, 3, 60, 4),
    (3, 3, 30, 5),
    (3, 5, 30, 6),
    (1, 0, 25, 7),
    (2, 3, 500, 12345),
    (3, 3, 500, 12345),
]
PINNED_DIGEST = "2903ac5141468c77cf8f8c11e8acd846aa53edf0866d68d269db59316a8c0a67"


def test_random_tight_graph_edge_lists_are_pinned():
    # acceptance depends on sparsity alone, so no engine change may alter the
    # generated graphs, which every benchmark workload is built from
    digest = hashlib.sha256()
    for k, l, n, seed in PINNED_GRAPHS:
        g = random_tight_graph(n, SparsityParams(k, l), seed)
        digest.update(json.dumps([k, l, n, seed, g.edges]).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_random_tight_graph_single_vertex_loop():
    g = random_tight_graph(1, SparsityParams(1, 0), 0)
    assert g.edges == ((0, 0),)


def test_random_tight_graph_triangle_is_forced():
    g = random_tight_graph(3, SparsityParams(2, 3), 5)
    assert sorted(tuple(sorted(e)) for e in g.edges) == [(0, 1), (0, 2), (1, 2)]


def test_random_tight_graph_raises_when_none_exists():
    with pytest.raises(ValueError, match="no .*tight graph"):
        random_tight_graph(3, SparsityParams(3, 5), 0)


def test_generator_validity_battery():
    # scaled-down version of the generator validity property: every seeded
    # tight graph passes the oracle (checked for oracle-sized n)
    pairs = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 3), (3, 5)]
    for k, l in pairs:
        params = SparsityParams(k, l)
        count = 0
        seed = 0
        while count < 120:
            n = 2 + (seed % 7)
            seed += 1
            if not tight_exists(n, params):
                continue
            g = random_tight_graph(n, params, seed)
            if g.n <= 8:
                rep = brute_force_sparse(g, params)
                assert rep.sparse and rep.tight
            res = run_canonical_game(g, params)
            assert res.is_tight()
            count += 1


def _assert_overfull(g, params, witness):
    assert induced_edge_count(g, witness) > max(params.k * len(witness) - params.l, 0)


def test_overfull_subset_matches_brute_force():
    # random multigraphs with loops and parallel edges, sized around k*n - l so
    # both verdicts are common; a coloring certificate, where one exists, must
    # get the same verdict from certify_coloring
    rng = random.Random(2008)
    verdicts = {True: 0, False: 0}
    certified = 0
    for trial in range(2_700):
        params = ALL_PARAMS[trial % len(ALL_PARAMS)]
        n = rng.randint(1, 7)
        m = rng.randint(0, params.k * n + 1)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        sparse = brute_force_sparse(g, params).sparse
        witness = overfull_subset(g, params)
        assert (witness is None) == sparse, (params, g.edges, witness)
        if witness is not None:
            _assert_overfull(g, params, witness)
        verdicts[sparse] += 1
        # the (k,0) game colors every edge of a (k,0)-sparse graph
        res = run_canonical_game(g, SparsityParams(params.k, 0))
        if not res.rejected:
            d = result_decomposition(res)
            relabelled = Decomposition(params, n, d.edges)
            assert certify_coloring(g, relabelled, params)[0] == sparse
            certified += 1
    assert min(verdicts.values()) > 800 and certified > 1_500, (verdicts, certified)


def test_overfull_subset_matches_engine():
    # tight graphs for every (k,l) with k <= 3 at n = 50..300, each also with
    # one to three edges swapped for random vertex pairs
    rng = random.Random(2007)
    verdicts = {True: 0, False: 0}
    for i in range(70):
        params = ALL_PARAMS[i % len(ALL_PARAMS)]
        n = rng.randint(50, 300)
        tight = random_tight_graph(n, params, rng.randrange(2**31))
        variants = [tight]
        for _ in range(2):
            edges = list(tight.edges)
            for _ in range(rng.randint(1, 3)):
                edges[rng.randrange(len(edges))] = (rng.randrange(n), rng.randrange(n))
            variants.append(Multigraph(n, edges))
        for g in variants:
            sparse = run_canonical_game(g, params).rejected == []
            witness = overfull_subset(g, params)
            assert (witness is None) == sparse, (params, n, i)
            if witness is not None:
                _assert_overfull(g, params, witness)
            verdicts[sparse] += 1
    assert min(verdicts.values()) > 40, verdicts


def test_overfull_subset_large_tight_graph_runs_without_recursion():
    # K5 is (3,5)-tight; joining each new vertex to three distinct earlier
    # vertices keeps it tight, up to n = 2000 with m = 5995 edges
    rng = random.Random(35)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for w in range(5, 2000):
        edges.extend((u, w) for u in rng.sample(range(w), 3))
    rng.shuffle(edges)
    g = Multigraph(2000, edges)
    params = SparsityParams(3, 5)
    assert g.m == params.max_edges(g.n)
    assert overfull_subset(g, params) is None
    doubled = Multigraph(g.n, edges + [edges[0]])  # a pair may span one edge only
    _assert_overfull(doubled, params, overfull_subset(doubled, params))
