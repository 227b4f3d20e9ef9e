import random
from collections import Counter, deque

import pytest

from sparsity_kit import (
    GameState,
    IllegalMoveError,
    InsufficientPebblesError,
    Multigraph,
    SparsityParams,
    add_edge,
    brute_force_sparse,
    canonical_add_edge,
    check_invariants,
    collect_pebbles_canonically,
    find_pebble,
    pebble_slide,
    random_tight_graph,
    reject_fast,
    replay_trace,
    run_canonical_game,
    trace_to_lines,
    update_components,
)
from sparsity_kit.canonical import bring_pebble_dynamic, play_edge
from sparsity_kit.pebbles import _saturated_block

from conftest import ALL_PARAMS
from reference import pebble_colors


def total_pebbles_everywhere(state):
    return state.total_pebbles() + state.m


def test_init_places_one_pebble_per_color():
    s = GameState(3, SparsityParams(2, 3))
    assert all(s.pebbles[v] == (1, 1) for v in range(3))
    assert s.total_pebbles() == 6


def test_init_single_vertex():
    s = GameState(1, SparsityParams(1, 0))
    assert s.pebbles == ((1,),)


def test_init_satisfies_invariants():
    for k, l in [(1, 0), (2, 3), (3, 5)]:
        for n in (1, 2, 5):
            assert check_invariants(GameState(n, SparsityParams(k, l))).ok


def test_init_rejects_zero_vertices():
    with pytest.raises(ValueError):
        GameState(0, SparsityParams(1, 0))


def test_add_edge_takes_pebble_from_first_endpoint():
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 0)
    assert (s.tails[0], s.heads[0], s.colors[0]) == (0, 1, 0)
    assert s.peb_sum[0] == 1 and s.peb_sum[1] == 2


def test_add_loop_lower_range():
    s = GameState(1, SparsityParams(2, 1))
    add_edge(s, 0, 0, 0)
    assert s.peb_sum[0] == 1
    assert (s.tails[0], s.heads[0], s.colors[0]) == (0, 0, 0)


def test_add_loop_insufficient_pebbles():
    s = GameState(1, SparsityParams(2, 2))
    with pytest.raises(InsufficientPebblesError):
        add_edge(s, 0, 0, 0)


def test_add_edge_color_not_available():
    s = GameState(2, SparsityParams(2, 1))
    add_edge(s, 0, 1, 0)
    add_edge(s, 0, 1, 0)  # takes color 0 from vertex 1
    with pytest.raises(IllegalMoveError, match="color not available"):
        add_edge(s, 0, 1, 0)


@pytest.mark.parametrize(
    "v, w",
    [(-1, 0), (0, -1), (3, 0), (0, 5)],
    ids=["first-negative", "second-negative", "first-n", "second-past-n"],
)
def test_add_edge_rejects_out_of_range_endpoints(v, w):
    # a negative endpoint would take vertex 2's slot through negative indexing
    # and record a move that does not replay; one past n would fail with a
    # bare IndexError
    s = GameState(3, SparsityParams(1, 0))
    moves = []
    s.after_move = lambda state, move: moves.append(move)
    before = s.state_hash()
    with pytest.raises(IllegalMoveError, match=r"^vertex out of range in edge"):
        add_edge(s, v, w, 0)
    assert s.state_hash() == before and s.in_edges == [[], [], []] and moves == []


def test_slide_swaps_orientation_and_colors():
    # one edge 0->1 of color 1; covering with vertex 1's color-0 pebble
    # reverses it, recolors it, and drops the old color-1 pebble on vertex 0
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 1)
    pebble_slide(s, 0, 0)
    assert (s.tails[0], s.heads[0], s.colors[0]) == (1, 0, 0)
    assert s.pebbles[0] == (1, 1)
    assert s.pebbles[1] == (0, 1)


def test_two_slides_restore_orientation():
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 1)
    pebble_slide(s, 0, 0)
    dropped = s.colors[0]
    # slide back with the pebble the first slide displaced
    pebble_slide(s, 0, 1)
    assert (s.tails[0], s.heads[0]) == (0, 1)
    assert dropped == 0


def test_slides_preserve_color_slots():
    rng = random.Random(11)
    s = GameState(5, SparsityParams(2, 2))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
        add_edge(s, u, v, rng.randrange(2))
    for _ in range(40):
        movable = [e for e in range(s.m) if s.peb_sum[s.heads[e]] > 0]
        if not movable:
            break
        e = rng.choice(movable)
        color = rng.choice(pebble_colors(s, s.heads[e]))
        pebble_slide(s, e, color)
        assert check_invariants(s).ok
        assert total_pebbles_everywhere(s) == 2 * 5


def test_find_pebble_trivial_on_fresh_state():
    s = GameState(3, SparsityParams(2, 2))
    path, visited = find_pebble(s, 0)
    assert path == []
    assert set(visited) == {0}


def test_find_pebble_reports_reachable_set_on_failure():
    s = GameState(2, SparsityParams(1, 0))
    add_edge(s, 0, 1, 0)
    add_edge(s, 1, 1, 0)  # loop eats vertex 1's pebble
    path, visited = find_pebble(s, 0, forbidden={0, 1})
    assert path is None
    assert set(visited) == {0, 1}


def test_find_pebble_walks_cycle_to_the_pebbled_vertex():
    # orient a triangle cyclically, all pebbles drained except one vertex;
    # exhaustive search over simple paths is the oracle for the endpoint
    s = GameState.from_parts(
        3,
        SparsityParams(1, 0),
        [(0, 1, 0), (1, 2, 0)],
    )
    path, _ = find_pebble(s, 0, forbidden={1})
    assert path == [0, 1]
    assert s.heads[path[-1]] == 2


SEARCH_PARAMS = [
    SparsityParams(k, l) for k, l in [(1, 0), (1, 1), (2, 0), (2, 2), (2, 3), (3, 3), (3, 5)]
]


def _distances(state, source):
    """Directed BFS distances from source, read from tails/heads alone."""
    adj = [[] for _ in range(state.n)]
    for t, h in zip(state.tails, state.heads):
        adj[t].append(h)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def test_find_pebble_returns_a_shortest_path_or_the_reachable_set():
    rng = random.Random(2024)
    hits = misses = 0
    for trial in range(60):
        params = rng.choice(SEARCH_PARAMS)
        n = rng.randint(2, 30)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(params.k * n)])
        s = run_canonical_game(g, params).state
        for _ in range(rng.randint(0, 3 * n) if s.m else 0):
            e = rng.randrange(s.m)
            colors = pebble_colors(s, s.heads[e])
            if colors:
                pebble_slide(s, e, rng.choice(colors))
        for _ in range(10):
            source = rng.randrange(n)
            forbidden = set(rng.sample(range(n), rng.randint(0, n)))
            path, visited = find_pebble(s, source, forbidden)
            dist = _distances(s, source)
            targets = [dist[y] for y in dist if s.peb_sum[y] > 0 and y not in forbidden]
            if path is None:
                assert not targets
                assert set(visited) == set(dist)
                misses += 1
                continue
            cur = source
            for e in path:
                assert s.tails[e] == cur
                cur = s.heads[e]
            assert s.peb_sum[cur] > 0 and cur not in forbidden
            assert len(path) == min(targets)
            hits += 1
    assert hits > 100 and misses > 100


def test_bring_pebble_empty_path_is_noop():
    s = GameState(2, SparsityParams(2, 3))
    assert bring_pebble_dynamic(s, []) == []


def test_bring_pebble_single_edge():
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 0)
    before = s.peb_sum[0]
    moves = bring_pebble_dynamic(s, [0])
    assert len(moves) == 1
    assert s.peb_sum[0] == before + 1


def test_bring_pebble_three_edge_path_counts():
    # a directed 3-edge path with the only reachable pebble at its far end:
    # exactly 3 slides, +1 at the start, -1 at the end, 0 elsewhere
    s = GameState(4, SparsityParams(1, 0))
    add_edge(s, 0, 1, 0)
    add_edge(s, 1, 2, 0)
    add_edge(s, 2, 3, 0)
    path, _ = find_pebble(s, 0, forbidden={0})
    assert [s.tails[e] for e in path] == [0, 1, 2]
    peb_before = [s.peb_sum[v] for v in range(4)]
    moves = bring_pebble_dynamic(s, path)
    assert len(moves) == 3
    assert s.peb_sum[0] == peb_before[0] + 1
    assert s.peb_sum[3] == peb_before[3] - 1
    assert s.peb_sum[1] == peb_before[1] and s.peb_sum[2] == peb_before[2]


def test_bring_pebble_never_changes_undirected_edges():
    rng = random.Random(3)
    s = GameState(5, SparsityParams(2, 2))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        add_edge(s, u, v, rng.randrange(2))
    undirected = sorted(tuple(sorted(e)) for e in zip(s.tails, s.heads))
    path, _ = find_pebble(s, 0, forbidden={0})
    if path:
        bring_pebble_dynamic(s, path)
    assert sorted(tuple(sorted(e)) for e in zip(s.tails, s.heads)) == undirected


def test_check_invariants_flags_doubled_pebble():
    # the peb_sum cache counts three pebbles on vertex 0, which has two slots
    s = GameState.from_parts(2, SparsityParams(2, 2), [])
    s.peb_sum[0] += 1
    report = check_invariants(s)
    assert not report.ok
    assert [(f.name, f.witness) for f in report.failures] == [("vertex-balance", (0,))]


def test_check_invariants_subset_witness():
    # an edge with no pebble spent anywhere: the cache still counts the pebble
    # its tail spent, which breaks the subset balance at that tail
    s = GameState.from_parts(2, SparsityParams(1, 0), [(0, 1, 0)])
    s.peb_sum[0] += 1
    report = check_invariants(s)
    assert not report.ok
    assert ("vertex-balance", (0,)) in [(f.name, f.witness) for f in report.failures]


def test_check_invariants_flags_stale_slot():
    # vertex 2's slot claims edge 0, whose tail is vertex 0: every per-vertex
    # count balances, but the subset {2} does not
    s = GameState.from_parts(3, SparsityParams(1, 0), [(0, 1, 0)])
    s.out_color[2][0] = 0
    s.peb_sum[2] = 0
    assert s.pebbles == ((0,), (1,), (0,))  # the stale slot hides vertex 2's pebble
    report = check_invariants(s)
    assert [f.name for f in report.failures] == ["edge-slot"]


def test_check_invariants_flags_out_of_range_endpoints():
    # tail -1 indexes vertex 2's slot, which holds the edge, so every slot and
    # balance check agrees; the endpoint itself is what is wrong
    s = GameState.from_parts(3, SparsityParams(1, 0), [(2, 0, 0)])
    s.tails[0] = -1
    assert [f.name for f in check_invariants(s).failures] == ["edge-range"]
    s.tails[0] = 3  # no slot to read: reported, not an IndexError
    assert [f.name for f in check_invariants(s).failures] == ["edge-range"]
    s.tails[0], s.heads[0] = 2, 5
    assert [f.name for f in check_invariants(s).failures] == [
        "edge-range",
        "in-edges",  # vertex 0 lists an edge that no longer ends there
        "in-edges",  # and no list holds it at its head
    ]


def test_check_invariants_witnesses_are_vertices_of_the_state():
    # a caller may index the state by a witness, so every witness lies in
    # 0..n-1, also when the failure is an endpoint out of range
    for h in (5, 3, -1, -4):
        s = GameState.from_parts(3, SparsityParams(1, 0), [(2, 0, 0)])
        s.heads[0] = h
        report = check_invariants(s)
        assert [(f.name, f.witness) for f in report.failures] == [
            ("edge-range", ()),
            ("in-edges", (0,)),
            ("in-edges", ()),
        ]
    # one field of a played state corrupted at a time
    rng = random.Random(31)
    flagged = 0
    for i in range(300):
        n, params = rng.randint(3, 6), ALL_PARAMS[i % len(ALL_PARAMS)]
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        s = run_canonical_game(Multigraph(n, edges), params).state
        value = rng.randint(-2, n + 2)
        field = rng.choice(["tails", "heads", "colors", "peb_sum", "out_color", "in_edges"])
        if field in ("tails", "heads", "colors"):
            getattr(s, field)[rng.randrange(s.m)] = value
        elif field == "peb_sum":
            s.peb_sum[rng.randrange(n)] = value
        elif field == "out_color":
            s.out_color[rng.randrange(n)][rng.randrange(params.k)] = value
        else:
            s.in_edges[rng.randrange(n)].append(value)
        report = check_invariants(s)
        flagged += not report.ok
        for f in report.failures:
            assert all(0 <= v < n for v in f.witness), (field, value, f)
    assert flagged > 150


def test_check_invariants_flags_in_edge_disagreement():
    # component detection walks in_edges; a list, unlike a set, can hold an
    # id twice, and a slide that skipped its update would leave the id at the
    # old head
    s = GameState.from_parts(2, SparsityParams(2, 2), [(0, 1, 0)])
    pebble_slide(s, 0, 0)  # edge 0 now ends at vertex 0
    assert check_invariants(s).ok
    s.in_edges[0].append(0)
    report = check_invariants(s)
    assert [(f.name, f.witness) for f in report.failures] == [("in-edges", (0,))]
    assert "twice" in report.failures[0].detail

    s.in_edges[0].clear()
    s.in_edges[1].append(0)
    report = check_invariants(s)
    assert [(f.name, f.witness) for f in report.failures] == [
        ("in-edges", (1,)),  # the old head still lists the edge
        ("in-edges", (0,)),  # and the new head does not
    ]


def test_from_parts_rebuilds_played_states():
    # the pebbles, and with them the hash and the peb_sum cache, follow from the edges
    rng = random.Random(61)
    for params in SEARCH_PARAMS:
        n = 40
        edges = list(random_tight_graph(n, params, n).edges)
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        rng.shuffle(edges)
        s = run_canonical_game(Multigraph(n, edges), params).state
        rebuilt = GameState.from_parts(s.n, s.params, zip(s.tails, s.heads, s.colors))
        assert rebuilt.state_hash() == s.state_hash()
        assert rebuilt.peb_sum == s.peb_sum
        assert check_invariants(rebuilt).ok


@pytest.mark.parametrize(
    "edge", [(0, 1, -1), (0, 1, 2), (0, 3, 0)], ids=["negative-color", "color-k", "head-n"]
)
def test_from_parts_rejects_out_of_range_edges(edge):
    # a negative color would fill slot k-1 through negative indexing, and a
    # head past n would fail with a bare IndexError
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}, {edge[2]}\)"):
        GameState.from_parts(3, SparsityParams(2, 2), [edge])


def test_pebbles_view_is_read_only():
    s = GameState(2, SparsityParams(2, 3))
    with pytest.raises(TypeError):
        s.pebbles[0][0] = 0


def test_k4_state_holds_exactly_l_pebbles(k4_two_color_state):
    report = check_invariants(k4_two_color_state)
    assert report.ok
    assert k4_two_color_state.total_pebbles() == 2  # equality at tightness


def test_engine_states_pass_invariants_after_every_move():
    rng = random.Random(99)
    for trial in range(25):
        k = rng.choice((1, 2, 3))
        l = rng.randrange(2 * k)
        n = rng.randint(2, 6)
        params = SparsityParams(k, l)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])

        def hook(state, move):
            rep = check_invariants(state)
            assert rep.ok, (k, l, g.edges, move, rep.failures)

        run_canonical_game(g, params, after_move=hook)


def test_update_components_triangle():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    cid = res.state.component_id
    assert cid[0] == cid[1] == cid[2] != 0
    # brute force confirms the block
    rep = brute_force_sparse(tri, SparsityParams(2, 3))
    assert (0, 1, 2) in rep.blocks


def test_first_edge_forms_two_vertex_block_in_upper_range():
    g = Multigraph(3, [(0, 1)])
    res = run_canonical_game(g, SparsityParams(2, 3))
    cid = res.state.component_id
    assert cid[0] == cid[1] != 0
    assert cid[2] != cid[0]
    rep = brute_force_sparse(g, SparsityParams(2, 3))
    assert (0, 1) in rep.blocks


def _reaches_no_outside_pebble(state, pair):
    """Vertices from which no pebbled vertex outside `pair` is reachable.

    One forward search per vertex over an adjacency read from tails/heads
    alone, so it shares nothing with the engine's backward closure.
    """
    adj = [[] for _ in range(state.n)]
    for t, h in zip(state.tails, state.heads):
        adj[t].append(h)

    def clean(x):
        seen = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            if state.peb_sum[y] > 0 and y not in pair:
                return False
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return True

    return {x for x in range(state.n) if clean(x)}


def _play_detected(state, u, v):
    """Play uv; return (accepted, ids before) if the play ran a detection, else (accepted, None).

    A detection runs after every play that passes the loop rule and the
    component screen (an accepted edge or a failed collection) and leaves
    exactly l pebbles on {u, v}.  A play that runs none changes no id.
    """
    params = state.params
    screened = (u == v and params.l >= params.k) or reject_fast(state, u, v)
    before = list(state.component_id)
    accepted = play_edge(state, u, v)
    peb_sum = state.peb_sum
    if screened or (peb_sum[u] if u == v else peb_sum[u] + peb_sum[v]) != params.l:
        assert state.component_id == before
        return accepted, None
    return accepted, before


def _assert_block_is_definitional(state, u, v, before):
    """The detection on {u, v} tagged a fresh id iff u and v reach no other
    pebble, and then exactly on the vertices that reach no pebble outside
    {u, v}.  Returns whether it tagged."""
    free = _reaches_no_outside_pebble(state, {u, v})
    if u in free and v in free:
        cid = state.component_id[u]
        assert cid != 0 and cid not in before
        assert {x for x in range(state.n) if state.component_id[x] == cid} == free
        return True
    assert state.component_id == before
    return False


def test_tagged_block_is_the_set_that_reaches_no_outside_pebble():
    # after an accepted edge or a failed collection leaving exactly l pebbles
    # on {u, v}; l = 0 covers detections where both pair vertices are bare
    rng = random.Random(31)
    counts = Counter()
    for trial in range(40):
        k = rng.choice((1, 2, 3))
        params = SparsityParams(k, rng.randint(0, 2 * k - 1))
        n = rng.randint(2, 20)
        s = GameState(n, params)
        for _ in range(3 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            accepted, before = _play_detected(s, u, v)
            if before is not None:
                tagged = _assert_block_is_definitional(s, u, v, before)
                counts[tagged, accepted, params.l == 0] += 1
    tagged = sum(c for (t, _, _), c in counts.items() if t)
    assert tagged > 100 and sum(counts.values()) - tagged > 10
    assert sum(c for (t, a, _), c in counts.items() if t and not a) > 0  # after a failed collection
    assert sum(c for (t, _, bare), c in counts.items() if t and bare) > 0  # under l = 0


def test_sampled_blocks_are_definitional_at_n_150():
    # tight inputs and inputs buried under random edges up to m = 5n, played
    # in shuffled order; every 20th detection is compared with the definition
    n, step = 150, 20
    rng = random.Random(16)
    counts = Counter()
    for (k, l), buried in [
        ((2, 3), False),
        ((3, 5), False),
        ((3, 3), False),
        ((2, 0), False),
        ((2, 3), True),
        ((3, 5), True),
        ((3, 3), True),
        ((2, 0), True),  # loops among the burying edges, since l < k
        ((2, 1), True),
    ]:
        params = SparsityParams(k, l)
        edges = list(random_tight_graph(n, params, rng.randrange(10**6)).edges)
        while buried and len(edges) < 5 * n:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v or l < k:
                edges.append((u, v))
        rng.shuffle(edges)
        s = GameState(n, params)
        detections = 0
        for u, v in edges:
            _, before = _play_detected(s, u, v)
            if before is None:
                continue
            detections += 1
            if detections % step == 0:
                counts[buried, _assert_block_is_definitional(s, u, v, before)] += 1
        assert detections >= step, ((k, l), buried)
    assert counts[False, True] + counts[True, True] > 50
    assert counts[True, False] > 0  # untagged, on buried inputs


def _definitional_block(state, v, w):
    """`_saturated_block`'s answer read off the definition: the sorted set of
    vertices that reach no pebble outside {v, w}, or None if v or w reaches one."""
    free = _reaches_no_outside_pebble(state, {v, w})
    return sorted(free) if v in free and w in free else None


def _bare_reach(state, v):
    """v and the bare vertices it reaches through bare vertices: the set a
    game would have tagged as v's component if it were tight."""
    seen = {v}
    stack = [v]
    while stack:
        for e in state.out_color[stack.pop()]:
            if e >= 0:
                y = state.heads[e]
                if y not in seen and state.peb_sum[y] == 0:
                    seen.add(y)
                    stack.append(y)
    return seen


def _skip_walk_finds_pebble(state, v, w):
    """Whether a search from {v, w} that does not expand the vertices of v's or
    w's nonzero component discovers a pebbled vertex outside {v, w}."""
    cid = state.component_id
    skip = {cid[v], cid[w]} - {0}
    seen = {v, w}
    stack = [v, w]
    while stack:
        for e in state.out_color[stack.pop()]:
            if e < 0 or state.heads[e] in seen:
                continue
            y = state.heads[e]
            if state.peb_sum[y] > 0:
                return True
            seen.add(y)
            if cid[y] not in skip:
                stack.append(y)
    return False


@pytest.mark.parametrize(
    "n, kl, edges, pair, block",
    [
        # seeds 1 and 6 are pebbled; bare 7 and 8 are marked before the seed
        # stream reaches their ids, bare 2 and 3 after it has passed theirs,
        # and 5 and 0 hang off 3 further up the chain
        (
            12,
            (1, 1),
            [(9, 4, 0), (7, 1, 0), (2, 7, 0), (8, 6, 0), (3, 8, 0), (5, 3, 0), (0, 5, 0),
             (10, 9, 0), (11, 10, 0)],
            (4, 9),
            [4, 9, 10, 11],
        ),
        # both slots of bare 2 point at pebbled 3: parallel in-edges from one tail
        (
            6,
            (2, 3),
            [(0, 1, 0), (2, 3, 0), (2, 3, 1), (5, 0, 0), (5, 1, 1), (4, 5, 0), (4, 2, 1)],
            (0, 1),
            [0, 1, 5],
        ),
        # l = 0: both pair vertices are bare, and pebbled 2 points into the pair
        (
            5,
            (2, 0),
            [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 0), (3, 1, 1),
             (4, 2, 0), (4, 3, 1)],
            (0, 1),
            [0, 1, 3],
        ),
        # every other vertex reaches an outside pebble, so the block is the pair
        (5, (1, 1), [(4, 2, 0), (0, 1, 0), (3, 0, 0)], (2, 4), [2, 4]),
        # a loop pair whose pre-test fails at once
        (3, (1, 0), [(0, 1, 0)], (0, 0), None),
        # with 0's component tagged: the only outside pebble, on 4, lies behind
        # it, so the pre-test skips the route and the closure finds it
        (5, (1, 1), [(0, 2, 0), (2, 3, 0), (3, 4, 0), (1, 0, 0)], (0, 1), None),
        # with 0's component tagged: the block is that component plus 1, and
        # 11 reaches the outside pebble on 10
        (
            12,
            (1, 1),
            [(0, 2, 0), *[(i, i + 1, 0) for i in range(2, 9)], (9, 0, 0), (1, 0, 0), (11, 10, 0)],
            (0, 1),
            list(range(10)),
        ),
    ],
    ids=["chains-around-seeds", "parallel-tails", "l0-bare-pair", "pair-only", "no-block",
         "pebble-behind-component", "block-spans-component"],
)
def test_saturated_block_on_built_states(n, kl, edges, pair, block):
    s = GameState.from_parts(n, SparsityParams(*kl), edges)
    assert _definitional_block(s, *pair) == block  # the case is built as described
    assert _saturated_block(s, *pair) == block
    # the component map only bounds the pre-test: with the first pair
    # vertex's component tagged, the answer stays the same
    for x in _bare_reach(s, pair[0]):
        s.component_id[x] = 1
    assert _saturated_block(s, *pair) == block


def test_saturated_block_matches_the_definition_on_random_slot_fillings():
    # states no game need reach: every slot is filled with a random head
    # (loops and parallel edges included) or left holding its pebble.  Each
    # state is asked again under a random component map, and with v's bare
    # reach tagged as v's component, so that an outside pebble is often
    # reachable only through vertices the pre-test does not expand
    rng = random.Random(18)
    id_rng = random.Random(19)
    tagged = hidden = 0
    for _ in range(400):
        k = rng.randint(1, 3)
        params = SparsityParams(k, rng.randrange(2 * k))
        n = rng.randint(1, 14)
        fill = rng.random()  # the share of slots that hold an out-edge
        edges = [
            (t, rng.randrange(n), c)
            for t in range(n)
            for c in range(k)
            if rng.random() < fill
        ]
        s = GameState.from_parts(n, params, edges)
        v, w = rng.randrange(n), rng.randrange(n)
        block = _saturated_block(s, v, w)
        assert block == _definitional_block(s, v, w), (n, params, edges, v, w)
        tagged += block is not None
        reach = _bare_reach(s, v)
        for ids in (
            [id_rng.randrange(4) for _ in range(n)],
            [1 if x in reach else 0 for x in range(n)],
        ):
            s.component_id = ids
            assert _saturated_block(s, v, w) == block, (n, params, edges, v, w, ids)
            hidden += block is None and not _skip_walk_finds_pebble(s, v, w)
    assert tagged > 100
    assert hidden > 10, hidden  # the closure, not the pre-test, refuted the block


class _CountingRows(list):
    """A slot table that counts its row reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_pre_test_does_not_enter_the_endpoints_component():
    # a (2,2)-tight graph on 0..1199 is one tagged component; vertex 1200
    # joins it by two edges, and the detection after the second reads only
    # the two endpoints' slot rows, whatever the component's size
    n, params = 1200, SparsityParams(2, 2)
    g = random_tight_graph(n, params, 21)
    state = run_canonical_game(Multigraph(n + 1, g.edges), params).state
    giant = state.component_id[0]
    assert state.component_id.count(giant) == n
    assert play_edge(state, 0, n)
    assert collect_pebbles_canonically(state, 1, n)
    canonical_add_edge(state, 1, n)
    state.out_color = rows = _CountingRows(state.out_color)
    update_components(state, 1, n)
    reads = rows.reads
    assert len(set(state.component_id)) == 1 and state.component_id[0] != giant
    assert reads <= 2 * params.k


def _id_classes(state):
    classes = {}
    for x, cid in enumerate(state.component_id):
        if cid:
            classes.setdefault(cid, []).append(x)
    return sorted(tuple(members) for members in classes.values())


def _assert_classes_are_components(state):
    """Every id class spans exactly k|C| - l accepted edges; at n <= 8 the
    classes are the accepted subgraph's components."""
    k, l = state.params.k, state.params.l
    classes = _id_classes(state)
    for members in classes:
        inside = set(members)
        span = sum(t in inside and h in inside for t, h in zip(state.tails, state.heads))
        assert span == k * len(members) - l, members
    if state.n <= 8:
        kept = Multigraph(state.n, zip(state.tails, state.heads))
        assert classes == sorted(brute_force_sparse(kept, state.params).components)


@pytest.mark.parametrize(
    "params", [p for p in ALL_PARAMS if p.lower_range], ids=lambda p: f"{p.k}-{p.l}"
)
def test_lower_range_component_classes_stay_tight(params):
    # for l <= k, components are vertex-disjoint and one id per vertex is
    # exact: tight graphs, and the same buried under random edges up to
    # m = 3n, on n = 2..8 (three seeds each) and n = 60, in shuffled order
    rng = random.Random(100 * params.k + params.l)
    detections = 0
    for n in [2, 3, 4, 5, 6, 7, 8] * 3 + [60]:
        for buried in (False, True):
            edges = list(random_tight_graph(n, params, rng.randrange(10**6)).edges)
            while buried and len(edges) < 3 * n:
                edges.append((rng.randrange(n), rng.randrange(n)))
            rng.shuffle(edges)
            state = GameState(n, params)
            for u, v in edges:
                if _play_detected(state, u, v)[1] is not None:
                    detections += 1
                    _assert_classes_are_components(state)
            _assert_classes_are_components(state)
    assert detections > 100


def test_reject_fast_after_k4_two_two(k4):
    res = run_canonical_game(k4, SparsityParams(2, 2))
    assert reject_fast(res.state, 0, 1)
    assert res.state.component_id.count(res.state.component_id[0]) == 4


def test_reject_fast_false_on_fresh_state():
    s = GameState(4, SparsityParams(2, 2))
    assert not reject_fast(s, 0, 1)
    assert not reject_fast(s, 2, 2)


def test_reject_fast_false_across_components():
    two_tri = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res = run_canonical_game(two_tri, SparsityParams(2, 3))
    assert res.all_accepted()
    assert not reject_fast(res.state, 0, 3)


def test_update_components_is_safe_to_call_without_block():
    s = GameState(4, SparsityParams(2, 2))
    add_edge(s, 0, 1, 0)
    update_components(s, 0, 1)
    assert s.component_id == [0, 0, 0, 0]


def test_replay_reproduces_state_exactly():
    rng = random.Random(17)
    for trial in range(20):
        k = rng.choice((1, 2, 3))
        l = rng.randrange(2 * k)
        n = rng.randint(2, 6)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        moves = []
        res = run_canonical_game(g, SparsityParams(k, l), after_move=lambda s, m: moves.append(m))
        replayed = replay_trace(trace_to_lines(res.state, moves))
        assert replayed.state_hash() == res.state.state_hash()
        assert replayed.tails == res.state.tails
        assert replayed.colors == res.state.colors
        assert replayed.pebbles == res.state.pebbles


def test_replay_empty_trace_is_init():
    lines = ['{"k":2,"l":3,"n":3,"op":"init"}']
    st = replay_trace(lines)
    assert st.m == 0 and st.total_pebbles() == 6


def test_reachable_states_stay_sparse():
    # the undirected graph of any engine state must pass the brute-force oracle
    rng = random.Random(7)
    for trial in range(15):
        k = rng.choice((1, 2))
        l = rng.randrange(2 * k)
        n = rng.randint(2, 6)
        params = SparsityParams(k, l)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)])

        def hook(state, move):
            ug = Multigraph(state.n, zip(state.tails, state.heads))
            assert brute_force_sparse(ug, params).sparse

        run_canonical_game(g, params, after_move=hook)
