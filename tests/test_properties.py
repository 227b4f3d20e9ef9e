"""Property-based tests: component detection against its definition.

Hypothesis draws small states no game need reach (every slot filled with a
random head or left holding its pebble), a component map and a vertex pair,
and shrinks any counterexample to a minimal one.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from sparsity_kit import GameState, SparsityParams
from sparsity_kit.pebbles import _saturated_block

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
    state = GameState.from_parts(n, params, edges)
    # few distinct ids, so endpoints often share theirs with vertices they reach
    state.component_id = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return state, draw(vertex), draw(vertex)


@settings(max_examples=400, deadline=None)
@given(slot_states())
def test_saturated_block_is_the_definitional_block(case):
    state, v, w = case
    assert _saturated_block(state, v, w) == _definitional_block(state, v, w)
