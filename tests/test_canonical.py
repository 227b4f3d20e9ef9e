import hashlib
import itertools
import json
import random

import pytest

from sparsity_kit import (
    EdgeStream,
    GameState,
    IllegalMoveError,
    Multigraph,
    SparsityParams,
    add_edge,
    brute_force_sparse,
    creates_monochromatic_cycle,
    random_tight_graph,
    read_graph,
    reject_fast,
    run_canonical_game,
    update_components,
    write_graph,
)
from sparsity_kit import pebbles
from sparsity_kit.canonical import bring_pebble_dynamic, play_edge
from sparsity_kit.cli import _peak_bytes
from sparsity_kit.pebbles import (
    SlideMove,
    apply_move,
    find_pebble,
    pebble_slide,
    replay_trace,
    trace_to_lines,
)

from conftest import ALL_PARAMS
from reference import (
    canonical_add_edge,
    chain_reaches,
    collect_pebbles_canonically,
    monochromatic_cycle_colors,
    pebble_colors,
    route_pebble,
    state_from_parts,
)


def random_reachable_state(rng, n, params, moves):
    """Play random legal canonical-ish moves; returns the resulting state."""
    s = GameState(n, params)
    for _ in range(moves):
        if rng.random() < 0.6:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v and params.l >= params.k:
                continue
            if (s.peb_sum[u] if u == v else s.peb_sum[u] + s.peb_sum[v]) >= params.l + 1:
                try:
                    canonical_add_edge(s, u, v)
                except Exception:
                    pass
        else:
            movable = [
                e
                for e in range(s.m)
                if s.peb_sum[s.heads[e]] > 0
            ]
            if movable:
                e = rng.choice(movable)
                covers = [
                    c
                    for c in pebble_colors(s, s.heads[e])
                    if not creates_monochromatic_cycle(s, e, c)
                ]
                if covers:
                    pebble_slide(s, e, covers[0])
    return s


def test_shared_color_takes_lowest_index():
    # vertex 1 spent its color-1 pebble on an edge to vertex 2, so it holds
    # only color 0; vertex 0 holds both
    s = state_from_parts(3, SparsityParams(2, 1), [(1, 2, 1)])
    assert pebble_colors(s, 0) == [0, 1] and pebble_colors(s, 1) == [0]
    canonical_add_edge(s, 0, 1)
    assert s.colors[1] == 0
    assert s.tails[1] == 0


def test_distinct_colors_take_highest():
    s = state_from_parts(
        4, SparsityParams(2, 1), [(0, 2, 1), (1, 3, 0)]
    )  # v has color 0 only, w has color 1 only: 2 = l+1 pebbles
    canonical_add_edge(s, 0, 1)
    assert s.colors[2] == 1
    assert s.tails[2] == 1  # the pebble lives on w


def test_upper_range_always_has_shared_color():
    # with l+1 >= k+1 pebbles on two vertices a color repeats, so canonical
    # add-edge never closes a cycle in the upper range
    rng = random.Random(2)
    for trial in range(200):
        k = rng.choice((2, 3))
        l = rng.randint(k, 2 * k - 1)
        params = SparsityParams(k, l)
        n = rng.randint(2, 6)
        s = random_reachable_state(rng, n, params, rng.randint(0, 12))
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or s.peb_sum[u] + s.peb_sum[v] < l + 1:
            continue
        shared = [c for c in range(k) if s.pebbles[u][c] and s.pebbles[v][c]]
        assert shared, (k, l, s.pebbles[u], s.pebbles[v])


def test_loop_takes_highest_color():
    s = GameState(1, SparsityParams(2, 1))
    canonical_add_edge(s, 0, 0)
    assert s.colors[0] == 1  # the tree color 0 stays acyclic


def test_cycle_detection_on_gray_tree():
    # vertices 0,1 joined by a color-0 tree rooted at 1; covering the edge
    # 0->1 (color 1) with color 0 would close a color-0 cycle
    s = state_from_parts(
        3,
        SparsityParams(2, 2),
        [(0, 1, 0), (0, 1, 1)],
    )
    assert creates_monochromatic_cycle(s, 1, 0)
    assert not creates_monochromatic_cycle(s, 1, 1)


def test_cycle_detection_isolated_color_is_safe():
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 0)
    assert not creates_monochromatic_cycle(s, 0, 1)


def test_cycle_detection_same_color_cover_reroots():
    s = GameState(2, SparsityParams(2, 3))
    add_edge(s, 0, 1, 0)
    assert not creates_monochromatic_cycle(s, 0, 0)


def test_cycle_detection_loop_recolor():
    s = GameState(1, SparsityParams(2, 0))
    add_edge(s, 0, 0, 0)
    assert creates_monochromatic_cycle(s, 0, 1)
    assert not creates_monochromatic_cycle(s, 0, 0)


def count_cycles_of_color(state, color):
    """Independent cycle counter: components of the color class with m == n."""
    parent = list(range(state.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = [e for e in range(state.m) if state.colors[e] == color]
    for e in rows:
        ra, rb = find(state.tails[e]), find(state.heads[e])
        if ra != rb:
            parent[ra] = rb
    edges_per = {}
    size_per = {}
    for v in range(state.n):
        size_per[find(v)] = size_per.get(find(v), 0) + 1
    for e in rows:
        edges_per[find(state.tails[e])] = edges_per.get(find(state.tails[e]), 0) + 1
    return sum(1 for r, cnt in edges_per.items() if cnt >= size_per[r])


def test_cycle_detection_matches_simulation():
    # oracle: perform the slide on a scratch copy and count the cover color's
    # cycles before and after (a slide can only add a cycle through itself)
    rng = random.Random(23)
    trials = 0
    for _ in range(4000):
        k = rng.choice((1, 2, 3))
        l = rng.randrange(2 * k)
        params = SparsityParams(k, l)
        s = random_reachable_state(rng, 4, params, rng.randint(1, 6))
        if s.m == 0:
            continue
        e = rng.randrange(s.m)
        h = s.heads[e]
        covers = pebble_colors(s, h)
        if not covers:
            continue
        c = rng.choice(covers)
        predicted = creates_monochromatic_cycle(s, e, c)
        clone = state_from_parts(s.n, params, zip(s.tails, s.heads, s.colors))
        before = count_cycles_of_color(clone, c)
        pebble_slide(clone, e, c)
        after = count_cycles_of_color(clone, c)
        assert predicted == (after == before + 1), (e, c, predicted, before, after)
        trials += 1
    assert trials > 500


def _chain_answer(state, eid, cover):
    """The cycle check's answer from the chain walk that records what it saw."""
    t, h, old = state.tails[eid], state.heads[eid], state.colors[eid]
    return old != cover and (t == h or chain_reaches(state, t, cover, h))


def _color_zero_walk(steps):
    """Color-0 edges along the vertex list `steps`, plus a color-1 edge 0->1 (id 0)."""
    return [(0, 1, 1)] + [(a, b, 0) for a, b in zip(steps, steps[1:])]


@pytest.mark.parametrize(
    "n, walk, expected",
    [
        # a chain that runs into a cycle without the head
        (5, [0, 2, 3, 4, 3], False),
        # a chain whose cycle holds the head
        (4, [0, 2, 1, 3, 2], True),
        # a loop on the chain, short of the head
        (3, [0, 2, 2], False),
        # a long tail into a long cycle: the walk needs several legs to stop
        (200, [0] + list(range(2, 120)) + list(range(120, 190)) + [120], False),
        # the head on a long tail before a long cycle, and on that cycle
        (200, [0] + list(range(2, 120)) + [1] + list(range(120, 190)) + [120], True),
        (200, [0] + list(range(2, 120)) + list(range(120, 190)) + [1, 120], True),
        # a long chain that ends at a pebble, and one that ends at the head
        (200, [0] + list(range(2, 200)), False),
        (200, [0] + list(range(2, 200)) + [1], True),
    ],
)
def test_bounded_cycle_walk_on_built_cycles(n, walk, expected):
    s = state_from_parts(n, SparsityParams(2, 0), _color_zero_walk(walk))
    assert creates_monochromatic_cycle(s, 0, 0) is expected
    assert _chain_answer(s, 0, 0) is expected
    assert not creates_monochromatic_cycle(s, 0, 1)  # the edge's own color re-roots


def test_bounded_cycle_walk_matches_the_recorded_chain_in_random_games():
    # lower-range games close cycles in their map-graph colors and add loops,
    # so chains run into cycles; every slide candidate of every state reached
    # is checked against the chain walk that keeps a seen set
    rng = random.Random(41)
    checked = cyclic = 0
    for k, l in [(2, 0), (1, 0), (2, 1)] * 4:
        n = rng.randint(6, 40)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]

        def check(state, move):
            nonlocal checked, cyclic
            cyclic += bool(monochromatic_cycle_colors(state))
            for e in range(state.m):
                for c in pebble_colors(state, state.heads[e]):
                    assert creates_monochromatic_cycle(state, e, c) == _chain_answer(state, e, c)
                    checked += 1

        run_canonical_game(Multigraph(n, edges), SparsityParams(k, l), after_move=check)
    assert checked > 10000 and cyclic > 500


def test_hooked_and_unhooked_games_end_in_the_same_state():
    # moves return nothing, so the hook is their only record: a game played
    # with a hook ends where the same game without one does, and the moves
    # the hook saw replay to that state
    def play(params, seed, hooked):
        rng = random.Random(seed)
        n = 30
        s = GameState(n, params)
        seen = []
        if hooked:
            s.after_move = lambda state, move: seen.append(move)
        for _ in range(4 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v and params.l >= params.k:
                continue
            forbidden = {u, v}
            while s.peb_sum[u] + (s.peb_sum[v] if u != v else 0) <= params.l:
                path, _ = find_pebble(s, u, forbidden)
                if path is None:
                    path, _ = find_pebble(s, v, forbidden)
                if not path:
                    break
                assert bring_pebble_dynamic(s, path) is None
            else:
                assert canonical_add_edge(s, u, v) is None
            for e in rng.sample(range(s.m), min(3, s.m)):  # a few plain slides too
                covers = pebble_colors(s, s.heads[e])
                if covers:
                    assert pebble_slide(s, e, rng.choice(covers)) is None
        return s, seen

    for params in (SparsityParams(3, 3), SparsityParams(2, 0), SparsityParams(2, 3)):
        hooked, seen = play(params, 43, hooked=True)
        assert len(seen) > 100
        plain, nothing = play(params, 43, hooked=False)
        assert nothing == [] and plain.state_hash() == hooked.state_hash()
        replayed = replay_trace(trace_to_lines(hooked, seen), debug_invariants=True)
        assert replayed.state_hash() == hooked.state_hash()


def test_an_unhooked_game_builds_no_move_record(monkeypatch):
    params = SparsityParams(3, 3)
    g = random_tight_graph(60, params, 61)
    expected = run_canonical_game(g, params).accepted

    def refuse(*args):
        raise AssertionError("a move record was built with no hook set")

    monkeypatch.setattr(pebbles, "_record", refuse)
    assert run_canonical_game(g, params).accepted == expected


def test_shortcut_slides_along_the_cover_colors_chain():
    # vertex 3 reaches vertex 0's pebble by the color-0 edge 3->0, but vertex 0
    # holds only its color-1 pebble, and covering with it would close a color-1
    # cycle through the color-1 edge 3->0; the shortcut slides that edge instead
    s = state_from_parts(4, SparsityParams(2, 0), [(3, 0, 0), (0, 2, 0), (3, 0, 1)])
    moves = []
    s.after_move = lambda state, move: moves.append(move)
    before = set(monochromatic_cycle_colors(s))
    assert route_pebble(s, 3, frozenset({3}))
    assert moves == [SlideMove(2, 3, 0, 1)]
    assert set(monochromatic_cycle_colors(s)) <= before


@pytest.mark.parametrize("k, l", [(3, 3), (2, 0)])
def test_recorded_trace_replays_with_invariant_checks(k, l):
    params = SparsityParams(k, l)
    n = 200
    rng = random.Random(47)
    edges = list(random_tight_graph(n, params, 47).edges)
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]  # loops too
    rng.shuffle(edges)
    moves = []
    res = run_canonical_game(Multigraph(n, edges), params, after_move=lambda s, m: moves.append(m))
    assert len(res.rejected) == n // 2
    replayed = replay_trace(trace_to_lines(res.state, moves), debug_invariants=True)
    assert replayed.state_hash() == res.state.state_hash()


def test_route_pebble_fresh_state_needs_no_slides():
    s = GameState(3, SparsityParams(2, 2))
    moves = []
    s.after_move = lambda state, move: moves.append(move)
    assert route_pebble(s, 0)
    assert moves == [] and s.peb_sum[0] == 2


def test_route_pebble_reroutes_along_tree():
    # A color-0 chain 0<-1<-2 rooted at 0 and a color-1 edge 2->3 whose only
    # escape pebble sits past the color-0 tree: routing must not close a
    # color-0 cycle.  Vertex 0's color-1 pebble is spent on an edge to vertex 3.
    s = state_from_parts(
        4,
        SparsityParams(2, 2),
        [(1, 0, 0), (1, 2, 1), (2, 0, 1), (0, 3, 1)],
    )
    before = monochromatic_cycle_colors(s)
    assert route_pebble(s, 1, frozenset((1,)))
    assert s.peb_sum[1] == 1
    assert monochromatic_cycle_colors(s) == before


def test_canonical_succeeds_whenever_plain_search_does():
    rng = random.Random(31)
    checked = 0
    for _ in range(2500):
        k = rng.choice((1, 2, 3))
        l = rng.randrange(2 * k)
        params = SparsityParams(k, l)
        n = rng.randint(2, 7)
        s = random_reachable_state(rng, n, params, rng.randint(0, 14))
        src = rng.randrange(n)
        forb = frozenset({src, rng.randrange(n)})
        plain, _ = find_pebble(s, src, forb)
        before = set(monochromatic_cycle_colors(s))
        peb_before = s.peb_sum[src]
        routed = route_pebble(s, src, forb)
        assert routed == (plain is not None)
        if not routed:
            continue
        assert s.peb_sum[src] == peb_before + 1
        after = set(monochromatic_cycle_colors(s))
        assert after <= before, "routing created a monochromatic cycle"
        checked += 1
    assert checked > 300


def test_dynamic_executor_matches_guarantees():
    rng = random.Random(37)
    checked = 0
    for _ in range(1500):
        k = rng.choice((2, 3))
        l = rng.randrange(2 * k)
        params = SparsityParams(k, l)
        n = rng.randint(2, 6)
        s = random_reachable_state(rng, n, params, rng.randint(0, 12))
        src = rng.randrange(n)
        path, _ = find_pebble(s, src, frozenset((src,)))
        if not path:
            continue
        before = set(monochromatic_cycle_colors(s))
        peb_before = s.peb_sum[src]
        bring_pebble_dynamic(s, path)
        assert s.peb_sum[src] == peb_before + 1
        assert set(monochromatic_cycle_colors(s)) <= before
        checked += 1
    assert checked > 200


def test_k4_two_two_all_accepted(k4):
    res = run_canonical_game(k4, SparsityParams(2, 2))
    assert res.all_accepted()
    assert res.pebbles_remaining() == 2
    assert res.verdict() == "tight"


def test_k4_two_three_rejects_exactly_one(k4):
    res = run_canonical_game(k4, SparsityParams(2, 3))
    assert len(res.accepted) == 5
    assert len(res.rejected) == 1
    assert res.verdict() == "not-sparse"


def test_game_memory_grows_with_accepted_edges_only():
    # a rejected edge changes nothing in the game, so burying a tight graph in
    # 3603 random edges may not raise the game's peak by a record per edge
    # (a stored list of rejected ids cost about 33 B per edge)
    params = SparsityParams(2, 3)
    n = 200
    tight = random_tight_graph(n, params, 5)
    rng = random.Random(5)
    edges = list(tight.edges)
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(20 * n - tight.m)]
    rng.shuffle(edges)
    dense = Multigraph(n, edges)
    tight_peak = _peak_bytes(lambda: run_canonical_game(tight, params))
    dense_peak = _peak_bytes(lambda: run_canonical_game(dense, params))
    res = run_canonical_game(dense, params)
    rejected = res.rejected
    assert len(rejected) == 3603
    assert (dense_peak - tight_peak) / len(rejected) < 4
    assert rejected == sorted(set(range(dense.m)) - set(res.accepted))
    assert res.verdict() == "not-sparse"


def test_triangle_two_three_tight():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    assert res.all_accepted()
    assert res.pebbles_remaining() == 3


def test_collect_trivial_on_fresh_state():
    for params in ALL_PARAMS:
        s = GameState(3, params)
        assert collect_pebbles_canonically(s, 0, 1)
        assert s.m == 0  # no edges appear during collection


@pytest.mark.parametrize(
    "u, v",
    [(-1, 0), (0, -1), (3, 0), (0, 3)],
    ids=["first-negative", "second-negative", "first-n", "second-n"],
)
def test_collection_and_play_edge_reject_an_endpoint_out_of_range(u, v):
    # a negative endpoint would alias vertex n + u, whose pebbles could pass
    # the collection's count with no search; one past n would fail with a bare
    # IndexError in the component screen.  play_edge checks both before it
    # collects.  Only fresh states, like find_pebble's test
    s = GameState(3, SparsityParams(1, 0))
    with pytest.raises(IllegalMoveError, match=r"^vertex out of range in edge"):
        play_edge(s, u, v)
    assert s.m == 0 and s.total_pebbles() == 3


@pytest.mark.parametrize(
    "edge",
    [(-1, 0), (0, 3), (True, 1), (1.0, 0)],
    ids=["negative", "n", "bool", "float"],
)
def test_a_hand_built_stream_has_its_edges_checked_as_played(edge):
    # only read_graph's streams check their edges; a negative endpoint would
    # alias vertex n + u and leave an edge with that tail in the state
    g = EdgeStream(3, 2, iter([(0, 1), edge]))
    with pytest.raises(IllegalMoveError):
        run_canonical_game(g, SparsityParams(1, 0))


@pytest.mark.parametrize("bad", [True, False, 1.0, None], ids=["true", "false", "float", "none"])
def test_public_moves_refuse_arguments_that_are_not_plain_ints(bad):
    # True is an int subclass: it used to be played as 1 but recorded as true,
    # so the game's own trace failed to replay; a float raised TypeError
    params = SparsityParams(2, 0)
    calls = [
        (add_edge, (bad, 1, 0)),
        (add_edge, (0, bad, 0)),
        (add_edge, (0, 1, bad)),
        (play_edge, (bad, 2)),
        (play_edge, (0, bad)),
    ]
    for func, args in calls:
        s = GameState(3, params)
        fresh = s.state_hash()
        with pytest.raises(IllegalMoveError, match=r"^move arguments must be integers"):
            func(s, *args)
        assert s.state_hash() == fresh
    s = GameState(3, params)
    add_edge(s, 0, 1, 0)  # vertex 1, the head, holds both pebbles
    before = s.state_hash()
    for edge, color in [(bad, 0), (0, bad)]:
        with pytest.raises(IllegalMoveError, match=r"^move arguments must be integers"):
            pebble_slide(s, edge, color)
        with pytest.raises(IllegalMoveError, match=r"^move arguments must be integers"):
            apply_move(s, SlideMove(edge, 0, 1, color))
    assert s.state_hash() == before


def test_collect_fails_against_saturated_region():
    # second parallel edge under (2,3) is blocked; the reachable set witnesses
    # span saturation by the subset-balance identity
    s = GameState(2, SparsityParams(2, 3))
    assert collect_pebbles_canonically(s, 0, 1)
    canonical_add_edge(s, 0, 1)
    assert not collect_pebbles_canonically(s, 0, 1)
    assert s.peb_sum[0] + s.peb_sum[1] == 3


def test_collect_on_pendant_edge_is_short():
    tri = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    res = run_canonical_game(tri, SparsityParams(2, 3))
    # extend with a pendant vertex: the new edge needs at most n slides
    s = res.state
    s2 = state_from_parts(4, s.params, zip(s.tails, s.heads, s.colors))
    slides = []
    s2.after_move = lambda state, move: slides.append(move)
    assert collect_pebbles_canonically(s2, 3, 0)
    assert len(slides) <= 4


def test_accepted_count_is_edge_order_invariant(k4):
    rng = random.Random(5)
    params = SparsityParams(2, 3)
    base = run_canonical_game(k4, params)
    for _ in range(12):
        perm = list(k4.edges)
        rng.shuffle(perm)
        res = run_canonical_game(Multigraph(4, perm), params)
        assert len(res.accepted) == len(base.accepted)


def test_accepted_matches_oracle_maximum_on_small_graphs():
    # matroid rank agreement: greedy acceptance = maximum sparse subgraph
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(2, 4)
        m = rng.randint(0, 6)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        k = rng.choice((1, 2))
        l = rng.randrange(2 * k)
        params = SparsityParams(k, l)
        res = run_canonical_game(g, params)
        best = 0
        for size in range(g.m, -1, -1):
            for combo in itertools.combinations(range(g.m), size):
                sub = Multigraph(n, [g.edges[i] for i in combo])
                if brute_force_sparse(sub, params).sparse:
                    best = size
                    break
            if best:
                break
        assert len(res.accepted) == best


def test_lower_range_tree_colors_stay_forests():
    rng = random.Random(53)
    for _ in range(80):
        k = rng.choice((2, 3))
        l = rng.randrange(0, k + 1)
        params = SparsityParams(k, l)
        n = rng.randint(2, 6)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)])
        res = run_canonical_game(g, params)
        cyc = monochromatic_cycle_colors(res.state)
        assert all(c >= l for c in cyc), (k, l, g.edges, cyc)


def test_upper_range_never_has_cycles():
    rng = random.Random(59)
    for _ in range(80):
        k = rng.choice((2, 3))
        l = rng.randint(k, 2 * k - 1)
        params = SparsityParams(k, l)
        n = rng.randint(2, 6)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)])

        def hook(state, move):
            assert not monochromatic_cycle_colors(state)

        run_canonical_game(g, params, after_move=hook)


def _inputs_with_rejections(params, seed):
    """A buried tight graph, the same graph with every edge repeated, and one
    with loops at every vertex, each shuffled."""
    n = 10
    rng = random.Random(seed)
    tight = list(random_tight_graph(n, params, seed).edges)
    buried = tight + [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    repeated = tight + tight
    looped = tight + [(v, v) for v in range(n) for _ in range(params.k)]
    inputs = [buried, repeated, looped]
    for edges in inputs:
        rng.shuffle(edges)
    return [Multigraph(n, edges) for edges in inputs]


def test_the_game_step_plays_the_public_moves_composed():
    # run_canonical_game calls private cores; the loop rule, the screen, the
    # reference collection and canonical add, which use only public moves and
    # read the color off the slots, and detection must play the same game
    rejected_by = {"loop": 0, "screen": 0, "collection": 0}
    for params in ALL_PARAMS:
        for g in _inputs_with_rejections(params, 10 * params.k + params.l):
            moves = []
            res = run_canonical_game(g, params, after_move=lambda state, move: moves.append(move))

            s = GameState(g.n, params)
            composed = []
            s.after_move = lambda state, move: composed.append(move)
            accepted = []
            for eid, (u, v) in enumerate(g.edges):
                if u == v and params.l >= params.k:
                    rejected_by["loop"] += 1
                    continue
                if reject_fast(s, u, v):
                    rejected_by["screen"] += 1
                    continue
                if collect_pebbles_canonically(s, u, v):
                    canonical_add_edge(s, u, v)
                    accepted.append(eid)
                else:
                    rejected_by["collection"] += 1
                update_components(s, u, v)

            assert composed == moves
            assert accepted == res.accepted
            assert s.component_id == res.state.component_id
            assert s.state_hash() == res.state.state_hash()
    assert all(rejected_by.values()), rejected_by  # every way to reject an edge was played


# One SHA-256 over seeded games, fixed when the engine's move choices were
# last intended to change.  A hot-path rewrite that plays any move differently
# (another slide, cover color, tail, or component tag) changes this digest.
SAME_MOVES_DIGEST = "266827787653ebbe51129560c6bc15b63598c9536f2402d3ce3439c395644bd4"


def test_seeded_games_play_the_same_moves():
    digest = hashlib.sha256()
    for k, l in [(1, 0), (1, 1), (2, 0), (2, 2), (2, 3), (3, 3), (3, 5)]:
        params = SparsityParams(k, l)
        n = 120
        rng = random.Random(10 * k + l)
        edges = list(random_tight_graph(n, params, 10 * k + l).edges)
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        rng.shuffle(edges)
        moves = []
        res = run_canonical_game(
            Multigraph(n, edges), params, after_move=lambda state, move: moves.append(move)
        )
        assert len(res.rejected) == 200
        for line in trace_to_lines(res.state, moves):
            digest.update(line.encode() + b"\n")
        digest.update(json.dumps([res.accepted, res.rejected, res.state.component_id]).encode())
    assert digest.hexdigest() == SAME_MOVES_DIGEST


@pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 3), (3, 3), (3, 5)])
def test_a_streamed_game_plays_the_moves_of_the_parsed_graph(k, l):
    # the game plays an EdgeStream as it is read, with the moves, verdict and
    # accepted ids of the same edges held in a Multigraph
    params = SparsityParams(k, l)
    n = 60
    rng = random.Random(k * 10 + l)
    edges = list(random_tight_graph(n, params, k * 10 + l).edges)
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(5 * n)]
    rng.shuffle(edges)
    g = Multigraph(n, edges)
    text = write_graph(g)
    games = []
    for source in (g, read_graph(text[i : i + 100] for i in range(0, len(text), 100))):
        moves = []
        res = run_canonical_game(source, params, after_move=lambda state, move: moves.append(move))
        games.append((trace_to_lines(res.state, moves), res.accepted, res.rejected, res.verdict()))
    assert games[0] == games[1]
    assert games[0][3] == "not-sparse"
