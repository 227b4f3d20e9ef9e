"""Property-based tests: component detection, pebble search and the
certificate forest split against references that share no state with the
library.

Hypothesis draws small states no game need reach (every slot filled with a
random head or left holding its pebble), a component map and a vertex pair,
and one-color classes with at most one out-edge per vertex, and shrinks any
counterexample to a minimal one.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsity_kit import SparsityParams, find_pebble, pebble_slide
from sparsity_kit.decompose import ColoredEdge, _parents, _trees
from sparsity_kit.pebbles import _saturated_block

from reference import bfs_pebble, class_components, pebble_colors, state_from_parts
from test_pebbles import _definitional_block


@st.composite
def slot_states(draw):
    """(state, v, w): random slots, a random component map and a random pair."""
    k = draw(st.integers(1, 3))
    params = SparsityParams(k, draw(st.integers(0, 2 * k - 1)))
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    heads = draw(st.lists(st.none() | vertex, min_size=n * k, max_size=n * k))
    edges = [(i // k, h, i % k) for i, h in enumerate(heads) if h is not None]
    state = state_from_parts(n, params, edges)
    # few distinct ids, so endpoints often share theirs with vertices they reach
    state.component_id = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return state, draw(vertex), draw(vertex)


@settings(max_examples=400, deadline=None)
@given(slot_states())
def test_saturated_block_is_the_definitional_block(case):
    state, v, w = case
    assert _saturated_block(state, v, w) == _definitional_block(state, v, w)


def _search_round(state, rng):
    """One random pebble search, one legal slide and one random block
    detection, each answer checked against a reference that keeps no marks."""
    n = state.n
    source = rng.randrange(n)
    forbidden = set(rng.sample(range(n), rng.randint(0, n)))
    path, visited = find_pebble(state, source, forbidden)
    ref_path, reached = bfs_pebble(state, source, forbidden)
    assert path == ref_path
    assert visited[0] == source and len(set(visited)) == len(visited)
    assert set(visited) == reached
    if path:
        assert visited[-1] == state.heads[path[-1]]
    if state.m:
        e = rng.randrange(state.m)
        colors = pebble_colors(state, state.heads[e])
        if colors:
            pebble_slide(state, e, rng.choice(colors))
    v, w = rng.randrange(n), rng.randrange(n)
    assert _saturated_block(state, v, w) == _definitional_block(state, v, w)


@settings(max_examples=40, deadline=None)
@given(slot_states(), st.integers(0, 2**32 - 1))
def test_searches_on_one_state_leave_no_stale_marks(case, seed):
    """Three times: two random search rounds, then detections at one fixed
    pair until the search stamps wrap; then random rounds again.  The fixed
    pair's searches reach few vertices, so most marks of the two rounds are
    still in `mark` when their stamps come round again, and the rounds after
    a wrap match the fresh reference searches only if the wrap clears `mark`."""
    state, v, w = case
    rng = random.Random(seed)
    for _ in range(3):
        for _ in range(2):
            _search_round(state, rng)
        block = _definitional_block(state, v, w)  # detections move no edge
        for _ in range(256):
            stamp = state.stamp
            assert _saturated_block(state, v, w) == block
            if state.stamp < stamp:
                break
        else:
            pytest.fail("256 detections and the search stamps never wrapped")
    for _ in range(20):
        _search_round(state, rng)


def _class_rows(arcs, ids=None, flips=None):
    """One color class from (tail, head) arcs, in the given order, with edge
    ids `ids` (0, 1, ... by default) and the endpoints of the i-th arc stored
    head first when `flips[i]`."""
    ids = range(len(arcs)) if ids is None else ids
    flips = flips or [False] * len(arcs)
    return [
        ColoredEdge(i, *((h, t) if flip else (t, h)), 0, t)
        for i, (t, h), flip in zip(ids, arcs, flips)
    ]


@st.composite
def color_classes(draw):
    """(n, rows): one color class with at most one out-edge per tail, in a
    random order, with shuffled edge ids and either endpoint stored first."""
    n = draw(st.integers(0, 40))
    # per vertex: no out-edge, a step of -2..2 along the ring 0..n-1 (0 is a
    # loop, +1 and -1 make opposite pairs and long cycles), or any head
    steps = st.none() | st.integers(-2, 2) | st.tuples(st.integers(0, max(n - 1, 0)))
    moves = draw(st.lists(steps, min_size=n, max_size=n))
    arcs = [
        (t, s[0] if isinstance(s, tuple) else (t + s) % n)
        for t, s in enumerate(moves)
        if s is not None
    ]
    arcs = draw(st.permutations(arcs))
    ids = draw(st.permutations(range(len(arcs))))
    flips = draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
    return n, _class_rows(arcs, ids, flips)


@settings(max_examples=400, deadline=None)
@given(color_classes())
@example((3, _class_rows([(1, 1)])))  # a loop beside isolated vertices
@example((4, _class_rows([(0, 1), (1, 0), (2, 1)])))  # an opposite pair
@example((6, _class_rows([(4, 0), (0, 1), (1, 2), (2, 3), (3, 4), (5, 3)])))  # a long cycle
@example((5, _class_rows([(3, 4), (0, 4), (2, 0)], [2, 0, 1], [True, False, False])))  # a tree
@example((0, []))
def test_forest_matches_the_reference_components(case):
    n, rows = case
    components = class_components(range(n), rows)
    cyclic = any(len(eids) != len(comp) - 1 for _, eids, comp in components)
    parent = _parents(n, rows)
    assert (parent is None) == cyclic
    if parent is not None:
        trees = _trees(parent, rows)
        assert sorted(trees) == sorted((root, tuple(eids)) for root, eids, _ in components)
