"""Shared fixtures: hand-built configurations with known structure."""

import pytest

from sparsity_kit import GameState, Multigraph, SparsityParams

from reference import state_from_parts


K4_EDGES = [(1, 2), (2, 3), (3, 1), (0, 1), (2, 0), (3, 0)]


@pytest.fixture
def k4() -> Multigraph:
    return Multigraph(4, K4_EDGES)


@pytest.fixture
def k4_two_color_state() -> GameState:
    """A (2,2) configuration of K4: color 0 spans a tree, color 1 rings vertices 1-3.

    Color 1 (the ring) is a directed 3-cycle on the outer vertices, so vertex 0
    holds the color-1 pebble and roots an empty color-1 tree; color 0 is a
    spanning tree rooted at vertex 1, which holds the color-0 pebble.  Exactly
    2 pebbles remain, matching a tight (2,2) endgame.
    """
    edges = [
        (1, 2, 1),
        (2, 3, 1),
        (3, 1, 1),
        (0, 1, 0),
        (2, 0, 0),
        (3, 0, 0),
    ]
    return state_from_parts(4, SparsityParams(2, 2), edges)


def tight_exists(n: int, params: SparsityParams) -> bool:
    """Whether any (k,l)-tight multigraph exists on n labeled vertices."""
    target = params.max_edges(n)
    if target < 0:
        return False
    if params.upper_range:
        if n == 1:
            return target == 0
        return target <= (2 * params.k - params.l) * n * (n - 1) // 2
    return True


ALL_PARAMS = [SparsityParams(k, l) for k in (1, 2, 3) for l in range(2 * k)]
