import hashlib
import random

import pytest

from sparsity_kit import (
    GameState,
    Multigraph,
    SparsityParams,
    axis_parallel_slider_check,
    brute_force_axis_parallel,
    brute_force_graded_tight,
    graded_tight_check,
    random_tight_graph,
    run_canonical_game,
)
from sparsity_kit import sliders
from sparsity_kit.oracle import slider_loops
from sparsity_kit.sliders import _tree_pair_exists


def test_graded_triangle_with_three_loops():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])
    assert graded_tight_check(g)
    assert brute_force_graded_tight(g)


def test_graded_single_vertex_two_loops():
    g = Multigraph(1, [(0, 0), (0, 0)])
    assert graded_tight_check(g)
    assert brute_force_graded_tight(g)


def test_graded_k4_fails():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 0), (1, 1)])
    assert not graded_tight_check(g)
    assert not brute_force_graded_tight(g)


def test_graded_rejects_three_loops_on_a_vertex():
    g = Multigraph(2, [(0, 0), (0, 0), (0, 0)])
    for check in (graded_tight_check, brute_force_graded_tight):
        with pytest.raises(ValueError, match="vertex 0 carries more than 2 loops"):
            check(g)


def test_graded_wrong_total_count():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])  # 4 < 2n
    assert not graded_tight_check(g)


def test_graded_counts_edges_before_copying_the_loopless_part(monkeypatch):
    # a wrong edge total is refused before any per-edge copy is validated
    def refuse(*args, **kwargs):
        raise AssertionError("graded_tight_check built the loopless copy")

    monkeypatch.setattr(sliders, "Multigraph", refuse)
    assert not graded_tight_check(Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)]))
    assert not graded_tight_check(Multigraph(2, [(0, 1)] * 5))
    with pytest.raises(ValueError, match="vertex 0 carries more than 2 loops"):
        graded_tight_check(Multigraph(2, [(0, 0)] * 3))


def test_axis_single_vertex_x_and_y():
    g = Multigraph(1, [(0, 0), (0, 0)])
    assert axis_parallel_slider_check(g, {0: 0, 1: 1})


def test_axis_path_without_loops_fails():
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert not axis_parallel_slider_check(g, {})


def test_axis_triangle_two_x_one_y():
    # feasible, but only for colorings that separate the two x-loop vertices;
    # the brute-force 2-coloring search is the arbiter
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])
    colors = {3: 0, 4: 0, 5: 1}
    assert brute_force_axis_parallel(g, colors)
    assert axis_parallel_slider_check(g, colors)


def test_axis_rejects_two_same_color_loops_on_one_vertex():
    g = Multigraph(2, [(0, 1), (0, 0), (0, 0)])
    for check in (axis_parallel_slider_check, brute_force_axis_parallel):
        with pytest.raises(ValueError, match="vertex 0 carries two loops of color 0"):
            check(g, {1: 0, 2: 0})


def test_axis_rejects_a_color_on_a_non_loop_edge():
    g = Multigraph(2, [(0, 1), (0, 0), (1, 1)])
    for check in (axis_parallel_slider_check, brute_force_axis_parallel):
        with pytest.raises(ValueError, match="loop color given for non-loop edge 0"):
            check(g, {0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError, match="loop color given for non-loop edge 3"):
            check(g, {1: 0, 2: 1, 3: 0})


def test_slider_loops_are_vertex_color_pairs_in_edge_order():
    # graded input numbers a vertex's loops 0 then 1; axis input takes the map's
    # colors; the same walk returns the loopless edges, in edge order too
    g = Multigraph(2, [(1, 1), (0, 1), (0, 0), (1, 0), (1, 1)])
    assert slider_loops(g) == ([(1, 0), (0, 0), (1, 1)], [(0, 1), (1, 0)])
    assert slider_loops(g, {0: 1, 2: 1, 4: 0}) == ([(1, 1), (0, 1), (1, 0)], [(0, 1), (1, 0)])


def test_both_checks_refuse_an_empty_vertex_set():
    # the brute-force counterparts refuse it with the same message
    for check in (
        graded_tight_check,
        brute_force_graded_tight,
        lambda g: axis_parallel_slider_check(g, {}),
        lambda g: brute_force_axis_parallel(g, {}),
    ):
        with pytest.raises(ValueError, match="at least one vertex"):
            check(Multigraph(0, []))


def test_axis_rejects_a_non_sparse_loopless_part_with_a_tree_pair():
    # 2n - 2 loopless edges plus an x and a y loop meet the edge count, and
    # the edges split into two spanning trees with one loop each, so only the
    # (2,3)-sparsity check can reject them
    pins = [(0, 0), (1, 1)]  # (vertex, color): an x-loop at 0, a y-loop at 1
    loop_edges = [(v, v) for v, _ in pins]
    g = random_tight_graph(500, SparsityParams(2, 2), 3)
    assert _tree_pair_exists(g.n, list(g.edges), pins)
    colors = {g.m: 0, g.m + 1: 1}
    assert not axis_parallel_slider_check(Multigraph(g.n, list(g.edges) + loop_edges), colors)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert _tree_pair_exists(4, k4, pins)
    small = Multigraph(4, k4 + loop_edges)
    assert not axis_parallel_slider_check(small, {6: 0, 7: 1})
    assert not brute_force_axis_parallel(small, {6: 0, 7: 1})


def test_axis_check_plays_no_colored_game(monkeypatch):
    # neither slider check plays a game: both decide sparsity uncolored
    def refuse(*args, **kwargs):
        raise AssertionError("a slider check built a GameState")

    monkeypatch.setattr(GameState, "__init__", refuse)
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])
    assert axis_parallel_slider_check(g, {3: 0, 4: 0, 5: 1})
    assert graded_tight_check(g)


def test_axis_rejects_uncolored_loop():
    # the oracle refuses a malformed loop color as the engine does
    g = Multigraph(1, [(0, 0)])
    for check in (axis_parallel_slider_check, brute_force_axis_parallel):
        with pytest.raises(ValueError, match="loop edge 0 has no color"):
            check(g, {})
        with pytest.raises(ValueError, match=r"loop edge 0 color must be 0 \(x\) or 1 \(y\)"):
            check(g, {0: 2})


TRIANGLE = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
TWO_LOOPS = Multigraph(2, [(0, 1), (0, 0), (1, 1)])


@pytest.mark.parametrize(
    "g, colors, message",
    [
        (TRIANGLE, {"0": 0}, "loop color key '0' is not an int edge id"),
        (TRIANGLE, {0.0: 0}, "loop color key 0.0 is not an int edge id"),
        (TWO_LOOPS, {1: 0, 2: 1.0}, r"loop edge 2 color must be 0 \(x\) or 1 \(y\)"),
        (TWO_LOOPS, {1: 0, 2: True}, r"loop edge 2 color must be 0 \(x\) or 1 \(y\)"),
        (TWO_LOOPS, {True: 0, 2: 1}, "loop color key True is not an int edge id"),
    ],
    ids=["str-key", "float-key", "float-color", "bool-color", "bool-key"],
)
def test_axis_refuses_loop_colors_that_are_not_plain_ints(g, colors, message):
    # keys and colors equal to an int but of another type are refused, as
    # SparsityParams refuses a bool k or l, with the same message from both
    for check in (axis_parallel_slider_check, brute_force_axis_parallel):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(g, colors)


def test_axis_planted_positive_with_a_thousand_edges():
    # one loop per pebble a game on a shuffled copy leaves: that game's
    # coloring is a witness, and the check must not recurse once per edge
    n = 502
    params = SparsityParams(2, 3)
    base = random_tight_graph(n, params, 5)
    assert base.m >= 1000
    shuffled = list(base.edges)
    random.Random(5).shuffle(shuffled)
    state = run_canonical_game(Multigraph(n, shuffled), params).state
    loops = [(v, c) for v in range(n) for c in range(2) if state.pebbles[v][c] > 0]
    edges = list(base.edges) + [(v, v) for v, _ in loops]
    colors = {base.m + i: c for i, (_, c) in enumerate(loops)}
    assert axis_parallel_slider_check(Multigraph(n, edges), colors)
    assert graded_tight_check(Multigraph(n, edges))


def test_axis_agreement_randomized():
    rng = random.Random(77)
    disagreements = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(0, 2 * n)
        plain = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(m)
        ]
        plain = [(u, v) for u, v in plain if u != v]
        loops = []
        colors = {}
        for v in range(n):
            for c in (0, 1):
                if rng.random() < 0.5:
                    loops.append((v, v))
                    colors[len(plain) + len(loops) - 1] = c
        g = Multigraph(n, plain + loops)
        got = axis_parallel_slider_check(g, colors)
        want = brute_force_axis_parallel(g, colors)
        if got != want:
            disagreements += 1
            print("DISAGREE", n, plain, loops, colors, got, want)
    assert disagreements == 0


def test_graded_agreement_randomized():
    rng = random.Random(88)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(0, 2 * n)
        plain = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        plain = [(u, v) for u, v in plain if u != v]
        loops = []
        for v in range(n):
            loops.extend([(v, v)] * rng.randint(0, 2))
        g = Multigraph(n, plain + loops)
        assert graded_tight_check(g) == brute_force_graded_tight(g), (plain, loops)


def _planted_pins(g: Multigraph) -> list[tuple[int, int]]:
    # one (vertex, color) loop per pebble that a (2,3) game on a shuffled copy
    # leaves behind; that game's coloring is the witness of the split
    shuffled = list(g.edges)
    random.Random(g.m).shuffle(shuffled)
    pebbles = run_canonical_game(Multigraph(g.n, shuffled), SparsityParams(2, 3)).state.pebbles
    return [(v, c) for v in range(g.n) for c in range(2) if pebbles[v][c] > 0]


def _planted_loops(g: Multigraph) -> list[int]:
    return [v for v, _ in _planted_pins(g)]


def _move_one_loop(n: int, edges: list, loops: list[int], rng: random.Random) -> list:
    # move one loop to another vertex that carries fewer than 2 loops
    moved = list(loops)
    i = rng.randrange(len(moved))
    moved[i] = rng.choice([v for v in range(n) if v != loops[i] and moved.count(v) < 2])
    return edges + [(v, v) for v in moved]


def _graded_digest_cases():
    """Seeded graded-tightness inputs at n = 20-300.

    Per n: a planted positive and an overfilled negative built as the
    `sliders` benchmark workload builds them (two tight blocks joined by two
    edges, all four loops in one block), three one-loop-moved mutants of
    each, and two positives with one loop swapped for a parallel copy of an
    edge, which keep 2n edges but break (2,3)-sparsity of the loopless part.
    """
    rng = random.Random(15)
    p23 = SparsityParams(2, 3)
    for n in (20, 45, 100, 200, 300):
        base = random_tight_graph(n, p23, rng.randrange(1 << 30))
        edges, loops = list(base.edges), _planted_loops(base)
        yield Multigraph(n, edges + [(v, v) for v in loops])
        a = n // 2
        block_a = random_tight_graph(a, p23, rng.randrange(1 << 30))
        block_b = random_tight_graph(n - a, p23, rng.randrange(1 << 30))
        neg_edges = list(block_a.edges) + [(u + a, v + a) for u, v in block_b.edges]
        ua, vb = rng.sample(range(a), 2), rng.sample(range(a, n), 2)
        neg_edges += [(ua[0], vb[0]), (ua[1], vb[1])]
        neg_loops = [v for v, _ in rng.sample([(v, c) for v in range(a) for c in range(2)], 4)]
        yield Multigraph(n, neg_edges + [(v, v) for v in neg_loops])
        for _ in range(3):
            yield Multigraph(n, _move_one_loop(n, edges, loops, rng))
        for _ in range(3):
            yield Multigraph(n, _move_one_loop(n, neg_edges, neg_loops, rng))
        for _ in range(2):
            yield Multigraph(n, edges + [rng.choice(edges)] + [(v, v) for v in loops[1:]])


GRADED_VERDICTS_DIGEST = "ef510a1675c1e669a2cc58347082d5592ff01edc2c490b558242ae59fc7817c3"


def test_graded_verdicts_are_pinned_at_large_n():
    # the brute-force oracle stops at n = 8, so these verdicts guard the
    # graded check where only the planted answers are known
    verdicts = "".join("1" if graded_tight_check(g) else "0" for g in _graded_digest_cases())
    assert (len(verdicts), verdicts.count("1")) == (50, 26)
    for chunk in (verdicts[i : i + 10] for i in range(0, 50, 10)):
        # planted answers: positive, negative, positives with a loop moved,
        # and the parallel-edge swaps
        assert chunk[:2] == "10" and chunk[2:5] == "111" and chunk[8:] == "00"
    assert hashlib.sha256(verdicts.encode()).hexdigest() == GRADED_VERDICTS_DIGEST


def _with_pins(n: int, edges: list, pins: list) -> tuple[Multigraph, dict[int, int]]:
    # the loops follow the loopless edges, so loop i has edge id len(edges) + i
    colors = {len(edges) + i: c for i, (_, c) in enumerate(pins)}
    return Multigraph(n, edges + [(v, v) for v, _ in pins]), colors


def _move_pin(pins: list, targets, rng: random.Random) -> list:
    # move one loop, keeping its color, to a target vertex without a loop of
    # that color
    moved = list(pins)
    i = rng.randrange(len(moved))
    c = moved[i][1]
    moved[i] = (rng.choice([v for v in targets if (v, c) not in pins]), c)
    return moved


def _recolor_pin(pins: list, rng: random.Random) -> list:
    # swap the color of one loop whose vertex has no loop of the other color
    i = rng.choice([i for i, (v, c) in enumerate(pins) if (v, 1 - c) not in pins])
    v, c = pins[i]
    return pins[:i] + [(v, 1 - c)] + pins[i + 1 :]


def _axis_digest_cases():
    """Seeded axis-parallel inputs at n = 60-1000, 12 per n.

    Every input meets the edge count and has a (2,3)-sparse loopless part, so
    only the forest split decides it.  Per n, with planted answers:
    - on a (2,3)-tight base (2n - 3 edges), three pins planted as the
      `sliders` benchmark workload plants them, and the same pins with x and
      y swapped (positive);
    - on the same base, three x loops, then three y loops, each also with one
      loop moved (negative: the color without a loop holds at most n - 1
      edges and the other at most n - 3, one short of 2n - 3);
    - two tight blocks joined by two edges with all four loops in the first
      block, as the workload's negatives (negative: 2a - 3 edges on the a
      block vertices, but four loops leave room for at most 2a - 4).
    Unplanted: that negative with one loop moved to the second block (three
    times; negative exactly when the three loops left in the first block have
    one color), and the planted pins with one loop moved or recolored.
    """
    rng = random.Random(23)
    p23 = SparsityParams(2, 3)
    for n in (60, 120, 250, 500, 1000):
        base = random_tight_graph(n, p23, rng.randrange(1 << 30))
        edges, pins = list(base.edges), _planted_pins(base)
        yield _with_pins(n, edges, pins)
        yield _with_pins(n, edges, [(v, 1 - c) for v, c in pins])
        for c in (0, 1):
            one_color = [(v, c) for v in rng.sample(range(n), 3)]
            yield _with_pins(n, edges, one_color)
            yield _with_pins(n, edges, _move_pin(one_color, range(n), rng))
        a = n // 2
        block_a = random_tight_graph(a, p23, rng.randrange(1 << 30))
        block_b = random_tight_graph(n - a, p23, rng.randrange(1 << 30))
        two_blocks = list(block_a.edges) + [(u + a, v + a) for u, v in block_b.edges]
        ua, vb = rng.sample(range(a), 2), rng.sample(range(a, n), 2)
        two_blocks += [(ua[0], vb[0]), (ua[1], vb[1])]
        in_a = rng.sample([(v, c) for v in range(a) for c in range(2)], 4)
        yield _with_pins(n, two_blocks, in_a)
        for _ in range(3):
            yield _with_pins(n, two_blocks, _move_pin(in_a, range(a, n), rng))
        yield _with_pins(n, edges, _move_pin(pins, range(n), rng))
        yield _with_pins(n, edges, _recolor_pin(pins, rng))


AXIS_VERDICTS_DIGEST = "7c45eb5fa9f33676d604bf810e30690233aafa2a00482b83c15d603fa1713c14"


def test_axis_verdicts_are_pinned_at_large_n():
    # the brute-force oracle stops at 16 loopless edges, so these verdicts
    # guard the forest split where only the planted answers are known
    verdicts = "".join(
        "1" if axis_parallel_slider_check(g, colors) else "0" for g, colors in _axis_digest_cases()
    )
    assert len(verdicts) == 60
    for chunk in (verdicts[i : i + 12] for i in range(0, 60, 12)):
        # planted answers: the positive and its color swap, the one-color
        # negatives and their moved copies, and the two-block negative
        assert chunk[:7] == "1100000"
    assert hashlib.sha256(verdicts.encode()).hexdigest() == AXIS_VERDICTS_DIGEST


def _is_tree_pair(n: int, edges: list, pins: list, owner: list) -> bool:
    # union-find on each color's contracted graph (its looped vertices merged
    # into vertex n): every edge has an owner, no edge closes a cycle, and
    # every contracted vertex ends in the tree of vertex n, so each tree of
    # the uncontracted forest spans exactly one loop of its color
    if len(owner) != len(edges) or set(owner) - {0, 1}:
        return False
    for c in (0, 1):
        node = list(range(n))
        for v, pin_color in pins:
            if pin_color == c:
                node[v] = n
        root = list(range(n + 1))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for (u, v), o in zip(edges, owner):
            if o == c:
                a, b = find(node[u]), find(node[v])
                if a == b:
                    return False
                root[a] = b
        if any(find(x) != find(n) for x in node):
            return False
    return True


@pytest.mark.parametrize("n", [60, 500, 2000])
def test_tree_pair_returns_a_split_that_union_find_accepts(n):
    # the split is checked without the engine, on planted positives whose
    # edges come shuffled (shallow greedy trees) and sorted (deep ones)
    base = random_tight_graph(n, SparsityParams(2, 3), n)
    pins = _planted_pins(base)
    shuffled = list(base.edges)
    random.Random(n).shuffle(shuffled)
    for edges in (shuffled, sorted(base.edges)):
        owner = _tree_pair_exists(n, edges, pins)
        assert owner is not None and _is_tree_pair(n, edges, pins, owner)


def test_tree_pair_returns_none_only_without_a_split():
    # one vertex with both loops splits no edges: an empty split, though
    # falsy, so the axis check must test it against None
    assert _tree_pair_exists(1, [], [(0, 0), (0, 1)]) == []
    assert axis_parallel_slider_check(Multigraph(1, [(0, 0), (0, 0)]), {0: 0, 1: 1}) is True
    # three x loops on a triangle: forest y has no loop, so there is no split
    assert _tree_pair_exists(3, [(0, 1), (1, 2), (0, 2)], [(0, 0), (1, 0), (2, 0)]) is None


def test_axis_agreement_on_inputs_that_reach_the_split(monkeypatch):
    # every input has exactly 2n - loops loopless edges, so no verdict comes
    # from the edge count: half are subsets of a (2,3)-tight graph, which
    # always reach the forest split, and half are random multigraphs, which
    # (2,3)-sparsity may reject first
    real = sliders._tree_pair_exists
    splits = []

    def counted(*args):
        owner = real(*args)
        splits.append(owner is not None)
        return owner

    monkeypatch.setattr(sliders, "_tree_pair_exists", counted)
    rng = random.Random(2023)
    for i in range(3000):
        n = rng.randint(2, 8)
        pins = rng.sample([(v, c) for v in range(n) for c in (0, 1)], rng.randint(2 + i % 2, 2 * n))
        m = 2 * n - len(pins)
        if i % 2:
            tight = random_tight_graph(n, SparsityParams(2, 3), rng.randrange(1 << 30))
            edges = rng.sample(list(tight.edges), m)
        else:
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
        g, colors = _with_pins(n, edges, pins)
        assert axis_parallel_slider_check(g, colors) == brute_force_axis_parallel(g, colors), (
            n, edges, pins,
        )
    assert (len(splits), splits.count(False)) == (2306, 877)
