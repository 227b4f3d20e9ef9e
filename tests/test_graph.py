import random

import pytest

from sparsity_kit import (
    GraphFormatError,
    Multigraph,
    SparsityParams,
    induced_edge_count,
    parse_graph,
    write_graph,
)


def test_params_accept_valid_range():
    for k in (1, 2, 3):
        for l in range(2 * k):
            p = SparsityParams(k, l)
            assert p.lower_range == (l <= k)
            assert p.upper_range == (l >= k)


@pytest.mark.parametrize("k,l", [(0, 0), (1, 2), (2, 4), (2, -1), (3, 6)])
def test_params_reject_out_of_range(k, l):
    with pytest.raises(ValueError):
        SparsityParams(k, l)


@pytest.mark.parametrize("k,l", [(True, False), (True, 0), (2, True), (1.0, 0), (2, "1")])
def test_params_reject_non_integer_values(k, l):
    with pytest.raises(ValueError, match="integers"):
        SparsityParams(k, l)


def test_induced_count_full_k4(k4):
    assert induced_edge_count(k4, range(4)) == 6


def test_induced_count_pair_in_k4(k4):
    assert induced_edge_count(k4, {0, 1}) == 1


def test_induced_count_loop_singleton():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    assert induced_edge_count(g, {0}) == 1


def test_induced_count_rejects_empty(k4):
    with pytest.raises(ValueError, match="empty subgraph"):
        induced_edge_count(k4, set())


def test_induced_count_monotone_over_chains():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 7)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))])
        small = set(rng.sample(range(n), rng.randint(1, n)))
        big = small | set(rng.sample(range(n), rng.randint(1, n)))
        assert induced_edge_count(g, small) <= induced_edge_count(g, big)
        assert induced_edge_count(g, range(n)) == g.m


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2), (2, 0))


def test_parse_single_loop():
    g = parse_graph("1 1\n0 0\n")
    assert g.n == 1
    assert g.edges == ((0, 0),)


def test_parse_isolated_vertices():
    g = parse_graph("2 0\n")
    assert g.n == 2
    assert g.m == 0


def test_parse_comments_and_roundtrip(k4):
    text = "# a comment\n" + write_graph(k4)
    assert parse_graph(text) == k4
    assert parse_graph(write_graph(k4)) == k4


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 1\n0 7\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 x\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("2 1\n0 one\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("")
