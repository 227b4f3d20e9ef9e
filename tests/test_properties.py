"""Property-based tests: component detection and pebble search against
references that share no state with the engine.

Hypothesis draws small states no game need reach (every slot filled with a
random head or left holding its pebble), a component map and a vertex pair,
and shrinks any counterexample to a minimal one.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from sparsity_kit import SparsityParams, find_pebble, pebble_slide
from sparsity_kit.pebbles import _saturated_block

from reference import bfs_pebble, pebble_colors, state_from_parts
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
