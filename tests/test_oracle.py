import ast
import hashlib
import importlib
import json
import pkgutil
import random
import tracemalloc

import pytest

from sparsity_kit import (
    Certificate,
    Multigraph,
    OracleSizeError,
    SparsityParams,
    brute_force_axis_parallel,
    brute_force_partition,
    brute_force_sparse,
    enumerate_small_multigraphs,
    enumerate_tight_graphs,
    extract_certificate,
    induced_edge_count,
    overfull_subset,
    random_tight_graph,
    run_canonical_game,
    validate_certificate,
)
import sparsity_kit
from sparsity_kit import GameState, decompose, oracle

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


def test_tight_enumeration_refuses_at_the_call_before_allocating():
    # the unguarded enumeration allocated a 2^n span table on its first step;
    # here each call must raise before returning, without allocating it
    tracemalloc.start()
    try:
        for n, params in ((8, SparsityParams(1, 1)), (5, SparsityParams(3, 0)), (64, SparsityParams(2, 3))):
            with pytest.raises(OracleSizeError):
                enumerate_tight_graphs(n, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # admitted sizes still enumerate: (1,1)-tight means spanning tree (Cayley: 6^4)
    assert len(list(enumerate_tight_graphs(6, SparsityParams(1, 1)))) == 6**4
    assert list(enumerate_tight_graphs(1, SparsityParams(2, 3))) == []


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


def test_partition_checks_the_kind_before_the_edge_count():
    g = Multigraph(3, [(0, 1)])
    with pytest.raises(ValueError, match="unknown partition kind 'bogus'"):
        brute_force_partition(g, SparsityParams(2, 3), "bogus")
    with pytest.raises(ValueError, match="lower range"):
        brute_force_partition(g, SparsityParams(2, 3), "maps-and-trees")
    with pytest.raises(ValueError, match="upper range"):
        brute_force_partition(g, SparsityParams(2, 1), "ltk")


def test_partition_rejects_non_sparse_tight_count():
    # 4 edges on 3 vertices with a doubled pair: right count for (2,2) but the
    # pair violates the (2,2) subset bound, so no certificate exists
    g = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    assert not brute_force_partition(g, SparsityParams(2, 2), "maps-and-trees")


ORACLE_VERDICTS_DIGEST = "80e93b365138a8f6ac7026f0cdf4cc7f8ec9a777248ad9b344d7c112403e79fb"


def _partition_verdicts():
    # every multigraph with n <= 4 and m = k*n - l <= 6, under each kind the
    # range of (k, l) allows
    for params in ALL_PARAMS:
        kinds = [
            kind
            for kind, ok in (("maps-and-trees", params.lower_range), ("ltk", params.upper_range))
            if ok
        ]
        for n in range(1, 5):
            m = params.max_edges(n)
            if not 0 <= m <= 6:
                continue
            for g in enumerate_small_multigraphs(n, m):
                if g.m == m:
                    for kind in kinds:
                        yield brute_force_partition(g, params, kind)


def _axis_verdicts():
    # every loopless base with n <= 3 and m <= 6, under every set of x/y loops
    # with at most one loop of each color per vertex
    for n in range(1, 4):
        for base in enumerate_small_multigraphs(n, 6):
            if any(u == v for u, v in base.edges):
                continue
            for mask in range(4**n):
                loops = [(v, c) for v in range(n) for c in (0, 1) if mask >> (2 * v + c) & 1]
                g = Multigraph(n, list(base.edges) + [(v, v) for v, _ in loops])
                colors = {base.m + i: c for i, (_, c) in enumerate(loops)}
                yield brute_force_axis_parallel(g, colors)


def test_oracle_verdicts_are_pinned():
    # the decomposition searches are ground truth for the engine, so a rewrite
    # of them must return every verdict unchanged
    partition = "".join("1" if v else "0" for v in _partition_verdicts())
    axis = "".join("1" if v else "0" for v in _axis_verdicts())
    assert (len(partition), partition.count("1")) == (15_746, 855)
    assert (len(axis), axis.count("1")) == (5_492, 76)
    digest = hashlib.sha256((partition + "|" + axis).encode()).hexdigest()
    assert digest == ORACLE_VERDICTS_DIGEST


ENGINE_MODULES = {"pebbles", "canonical", "decompose", "sliders"}


def _engine_imports(source: str) -> dict[str | None, set[str]]:
    """Engine modules imported in source, keyed by the enclosing top-level
    function's name, or None for imports outside any function."""
    found: dict[str | None, set[str]] = {}

    def visit(node: ast.AST, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope or child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                names = [base] + [f"{base}.{a.name}" for a in child.names]
            else:
                names = []
            hits = {part for name in names for part in name.split(".")} & ENGINE_MODULES
            if hits:
                found.setdefault(scope, set()).update(hits)
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_oracle_imports_no_engine_module_outside_the_generator():
    # the oracle arbitrates the engine, so only the random generator, which
    # plays the game on purpose, may import it
    with open(oracle.__file__, encoding="utf-8") as fh:
        found = _engine_imports(fh.read())
    assert set(found) <= {"random_tight_graph"}, found
    # the scan sees every import spelling at module level and in nested scopes
    source = (
        "from .graph import Multigraph\n"
        "from . import sliders\n"
        "if True:\n    import sparsity_kit.decompose\n"
        "def f():\n    def g():\n        from .pebbles import GameState\n"
        "class C:\n    def method(self):\n        from .canonical import play_edge\n"
    )
    assert _engine_imports(source) == {
        None: {"sliders", "decompose"},
        "f": {"pebbles"},
        "method": {"canonical"},
    }


def test_decompose_reads_games_only_through_construction_results():
    # extraction reads a game's coloring from its ConstructionResult alone, and
    # the piece counters, the cycle scan and the state helpers that only tests
    # called are test-side references now, defined nowhere in the package
    with open(decompose.__file__, encoding="utf-8") as fh:
        found = _engine_imports(fh.read())
    assert "pebbles" not in set().union(*found.values()), found
    modules = [sparsity_kit] + [
        importlib.import_module(f"sparsity_kit.{info.name}")
        for info in pkgutil.iter_modules(sparsity_kit.__path__)
    ]
    removed = (
        "extract_coloring",
        "TreePiece",
        "tree_pieces",
        "count_tree_pieces",
        "count_tree_pieces_exact",
        "monochromatic_cycle_colors",
        "vertex_subset",
    )
    assert [(m.__name__, name) for m in modules for name in removed if hasattr(m, name)] == []
    for name in ("edge", "peb_pair", "pebble_colors", "undirected_edges"):
        assert not hasattr(GameState, name), name


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
    # get the same verdict from validate_certificate
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
            coloring = extract_certificate(res, "coloring")
            relabelled = Certificate("coloring", params, n, coloring.edges)
            assert validate_certificate(g, relabelled)[0] == sparse
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


def test_a_resumed_k0_game_gives_the_fresh_games_verdict():
    # a (k,0) pebble search from any orientation with out-degree at most k
    # decides (k,0)-sparsity (Hakimi), so a (k,l)-sparse list A played under
    # (k,l) and resumed with a list B under (k,0) gets the verdict of a fresh
    # game on A + B; a witness of the resumed game is overfull there too
    rng = random.Random(2027)
    verdicts = {True: 0, False: 0}
    for trial in range(1_200):
        params = ALL_PARAMS[trial % len(ALL_PARAMS)]
        k0 = SparsityParams(params.k, 0)
        n = rng.randint(5, 12) if trial % 4 else rng.randint(13, 80)
        tight = random_tight_graph(n, params, rng.randrange(2**31))
        a = rng.sample(list(tight.edges), tight.m - rng.randint(0, params.k + 1))
        b = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, params.l + 2))]
        witness, orientation = oracle._orient(n, params, a)
        assert witness is None
        resumed = oracle._orient(n, k0, b, orientation)[0]
        whole = Multigraph(n, a + b)
        assert (resumed is None) == (overfull_subset(whole, k0) is None), (params, n, trial)
        if resumed is not None:
            _assert_overfull(whole, k0, resumed)
        verdicts[resumed is None] += 1
    assert min(verdicts.values()) > 300, verdicts


def _smallest_overfull_of_first_bad_prefix(g, params):
    """Brute force: add the edges one at a time, counting the edges every
    vertex mask spans, and return the smallest overfull masks of the first
    prefix that has one (each holds the prefix's last edge), or None."""
    k, l, n = params.k, params.l, g.n
    spans = [0] * (1 << n)
    for u, v in g.edges:
        em = (1 << u) | (1 << v)
        bad = []
        for mask in range(1, 1 << n):
            if mask & em == em:
                spans[mask] += 1
                if spans[mask] > max(k * mask.bit_count() - l, 0):
                    bad.append(mask)
        if bad:
            size = min(mask.bit_count() for mask in bad)
            return [
                tuple(i for i in range(n) if mask >> i & 1)
                for mask in bad
                if mask.bit_count() == size
            ]
    return None


def test_overfull_subset_is_the_smallest_overfull_set_of_the_first_bad_prefix():
    # the witness is not just some overfull set: it is the unique smallest
    # one of the shortest non-sparse edge prefix
    rng = random.Random(2022)
    not_sparse = 0
    for trial in range(2_700):
        params = ALL_PARAMS[trial % len(ALL_PARAMS)]
        n = rng.randint(1, 7)
        m = rng.randint(0, params.k * n + 1)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        smallest = _smallest_overfull_of_first_bad_prefix(g, params)
        witness = overfull_subset(g, params)
        if smallest is None:
            assert witness is None, (params, g.edges)
            continue
        assert smallest == [witness], (params, g.edges, witness, smallest)
        not_sparse += 1
    assert not_sparse > 1_200, not_sparse


# (k, l, n, seed) of tight graphs with edges swapped and one added, shuffled
WITNESS_GRAPHS = [
    (2, 3, 200, 31),
    (2, 3, 350, 32),
    (2, 3, 500, 33),
    (3, 5, 200, 34),
    (3, 5, 350, 35),
    (3, 5, 500, 36),
]
WITNESS_DIGEST = "b13aed030ba9964420cb388ed5ce97fb5cf41a551f1facc8d1863f82204457b6"


def test_overfull_subset_witnesses_are_pinned():
    # any rewrite of the orientation test must return the same witnesses,
    # not merely overfull ones
    digest = hashlib.sha256()
    for k, l, n, seed in WITNESS_GRAPHS:
        params = SparsityParams(k, l)
        rng = random.Random(1000 + seed)  # not the generator's own stream
        edges = list(random_tight_graph(n, params, seed).edges)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(edges))
            edges[i] = tuple(rng.sample(range(n), 2))
        edges.append(tuple(rng.sample(range(n), 2)))
        rng.shuffle(edges)
        g = Multigraph(n, edges)
        witness = overfull_subset(g, params)
        _assert_overfull(g, params, witness)
        digest.update(json.dumps([k, l, n, seed, witness]).encode())
    assert digest.hexdigest() == WITNESS_DIGEST
