import io
import json
import random
import sys
import tracemalloc

import pytest

from sparsity_kit import graph
from sparsity_kit import (
    EdgeStream,
    GameState,
    GraphFormatError,
    Multigraph,
    SparsityParams,
    induced_edge_count,
    parse_graph,
    read_graph,
    run_canonical_game,
    write_graph,
)
from sparsity_kit.cli import main


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


def test_induced_count_rejects_out_of_range_vertices(k4):
    for bad in (-1, k4.n):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            induced_edge_count(k4, {0, bad})


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


@pytest.mark.parametrize(
    "text",
    [
        "3 2\r\n0 1\r\n1 2\r\n",
        "3 2\r0 1\r1 2",
        "3 2\x0c0 1\x0c1 2\n",
        "3\t2\n0\t1\n \t1 2 \n",
        "  # header next\n3 2\n\t# c\n0 1\n   #x y z\n\n1 2\n",
        b"3 2\n0 1\n1 2\n",
    ],
)
def test_parse_line_endings_whitespace_and_comments(text):
    assert parse_graph(text) == Multigraph(3, [(0, 1), (1, 2)])


def test_parse_header_only_text():
    assert parse_graph("3 0") == Multigraph(3)
    assert parse_graph("# none\r\n0 0\r\n") == Multigraph(0)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 2\r\n0 1\r\n1 9\r\n", 3),
        ("3 2\r0 1\r\r1 9", 4),  # a lone \r ends a line, as in str.splitlines
        ("3 1\x0c0 x", 2),
        ("3 1\n# c\n\t0 1 2\n", 3),
    ],
)
def test_parse_error_lines_count_every_line_ending(text, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_parse_accepts_every_spelling_int_reads():
    g = parse_graph("3 2\n002 +1\n\u0661 0\n")  # U+0661 is ARABIC-INDIC DIGIT ONE
    assert g.edges == ((2, 1), (1, 0))
    assert {type(x) for e in g.edges for x in e} == {int}
    assert g.edges[0][1] is g.edges[1][0]


def _reference_parse(text):
    """The text format read through one str.splitlines() of the whole text."""
    n, m, edges = None, None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise GraphFormatError("bad line", lineno)
        if m is None:
            n, m = int(parts[0]), int(parts[1])
            continue
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError("out of range", lineno)
        edges.append((u, v))
    return Multigraph(n, edges)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_parse_splits_lines_like_splitlines_across_block_edges(monkeypatch, block):
    monkeypatch.setattr(graph, "_PARSE_BLOCK", block)
    rng = random.Random(block)
    breaks = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"]
    for _ in range(60):
        n = rng.randint(1, 12)
        rows, m = [], 0
        for _ in range(rng.randint(0, 15)):
            roll = rng.random()
            if roll < 0.1:
                rows.append("# " + str(rng.randrange(99)))
            elif roll < 0.15:
                rows.append(" \t")
            else:
                rows.append(f"{rng.randrange(n + 1)}\t {rng.randrange(n)}")  # some out of range
                m += 1
        text = "".join(row + rng.choice(breaks) for row in [f"{n} {m}", *rows])
        try:
            want = _reference_parse(text)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse_graph(text)
            assert got.value.line == exc.line
        else:
            assert parse_graph(text) == want


def _random_graph_text(rng):
    """A short graph text with mixed line breaks, comments, blank lines and some
    out-of-range ids, as `_reference_parse` reads it."""
    breaks = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"]
    n = rng.randint(1, 12)
    rows, m = [], 0
    for _ in range(rng.randint(0, 15)):
        roll = rng.random()
        if roll < 0.1:
            rows.append("# " + str(rng.randrange(99)))
        elif roll < 0.15:
            rows.append(" \t")
        else:
            rows.append(f"{rng.randrange(n + 1)}\t {rng.randrange(n)}")
            m += 1
    return "".join(row + rng.choice(breaks) for row in [f"{n} {m}", *rows])


def _recognize(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_recognize_streams_like_the_reference_parse(monkeypatch, capsys, tmp_path, block):
    # recognize reads its file or stdin `block` bytes (or characters) at a time
    # and plays each edge as it is read; its verdict, or the line of its parse
    # error, is that of one splitlines() over the whole text, then the game.
    # Blocks of 1 and 2 cut "\r\n" pairs and the multi-byte "\x85" and
    # "\u2028" breaks at a block edge.
    monkeypatch.setattr(graph, "_PARSE_BLOCK", block)
    rng = random.Random(1000 + block)
    path = tmp_path / "g.txt"
    texts = ["2 1\r\n0 1\r\n", "3 2\r\n0 1\r\n1 3\r\n"]
    texts += [_random_graph_text(rng) for _ in range(40)]
    for i, text in enumerate(texts):
        k, l = (1, 1) if i % 2 else (2, 3)
        try:
            g = _reference_parse(text)
        except GraphFormatError as exc:
            want = 1, "", f"error: line {exc.line}: "
        else:
            result = run_canonical_game(g, SparsityParams(k, l))
            accepted = len(result.accepted)
            report = {"accepted": accepted, "m": g.m, "n": g.n, "rejected": g.m - accepted}
            report["verdict"] = result.verdict()
            code = 2 if report["verdict"] == "not-sparse" else 0
            want = code, json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n", ""
        argv = ["recognize", "--k", str(k), "--l", str(l), "--format", "json"]
        path.write_bytes(text.encode("utf-8"))
        stdins = [io.StringIO(text), io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), "utf-8")]
        got = [_recognize([*argv, str(path)], capsys)]
        for stdin in stdins:
            monkeypatch.setattr(sys, "stdin", stdin)
            got.append(_recognize([*argv, "-"], capsys))
        for code, out, err in got:
            assert (code, out) == want[:2], text
            assert err.startswith(want[2]) and (err == "") == (want[2] == ""), (text, err)


def test_read_graph_reads_the_header_then_each_edge_as_it_comes():
    read = []

    def chunks():
        for chunk in ["# c\n3 2\n0 1\n0 2\n", "1 x\n", "2 2\n"]:
            read.append(chunk)
            yield chunk

    g = read_graph(chunks())
    assert (g.n, g.m, len(read)) == (3, 2, 1)
    assert next(g.edges) == (0, 1)
    # the last line of a split waits for the next chunk, which may continue it
    assert (next(g.edges), len(read)) == ((0, 2), 2)
    with pytest.raises(GraphFormatError, match="non-integer token in edge line") as exc:
        next(g.edges)
    assert exc.value.line == 5 and len(read) == 3


def test_read_graph_with_no_vertices_reads_to_the_end():
    # no edge line is in range, so its error comes before any game is set up
    with pytest.raises(GraphFormatError, match=r"vertex id out of range \(n=0\)") as exc:
        read_graph(["0 1\n0 0\n"])
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError, match="header declares 1 edges, found 0"):
        read_graph(["0 1\n"])
    g = read_graph(["0 0\n"])
    assert (g.n, g.m, list(g.edges)) == (0, 0, [])


def test_parse_error_line_far_past_the_first_block():
    rows = ["500 6000"] + [f"{i % 500} {(i * 7) % 500}" for i in range(5999)]
    rows[4999] = "1 x"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("\r\n".join(rows))
    assert exc.value.line == 5000
    rows[4999] = "1 500"
    with pytest.raises(GraphFormatError, match="out of range") as exc:
        parse_graph("\r\n".join(rows))
    assert exc.value.line == 5000


def _dense_text(n=500, m=10_000, seed=3):
    rng = random.Random(seed)
    return write_graph(Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]))


def _parse_peak(text):
    tracemalloc.start()
    try:
        g = parse_graph(text)
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_memory_per_edge():
    # the pair tuple and its slot are 64 B; a list of every line and a second
    # tuple per edge held 146 B per edge
    g, peak = _parse_peak(_dense_text())
    assert peak / g.m < 100


def test_parse_shares_one_int_per_vertex():
    g = parse_graph(_dense_text())
    assert len({id(x) for e in g.edges for x in e}) <= g.n


def test_parse_memory_does_not_follow_the_header_n():
    g, peak = _parse_peak("1000000000 0")
    assert g.n == 1_000_000_000 and g.m == 0
    assert peak < 64 * 1024


def test_multigraph_normalises_int_likes_to_plain_ints():
    g = Multigraph(2, [(True, 0)])
    assert g.edges == ((1, 0),)
    assert [type(x) for x in g.edges[0]] == [int, int]
    g = Multigraph(3, [[0, 1], [2, 2]])
    assert g.edges == ((0, 1), (2, 2))
    assert all(type(e) is tuple for e in g.edges)


def test_multigraph_refuses_float_endpoints():
    # int() truncates, so (0.9, 1) used to become (0, 1) and this list the
    # triangle the (2,3) game calls tight
    with pytest.raises(ValueError, match=r"^edge 0 endpoint 0\.9 is not an integer$"):
        Multigraph(3, [(0.9, 1), (True, 2), (2, 0)])
    for edges in ([(0, 1), (1, 2.0)], [(0, 1), [1.0, 2]], [(0, 1), iter((2, 1.5))]):
        with pytest.raises(ValueError, match=r"^edge 1 endpoint \d\.\d is not an integer$"):
            Multigraph(3, edges)
    # an endpoint that int() reads as another value is refused as well
    with pytest.raises(ValueError, match=r"^edge 0 endpoint '2' is not an integer$"):
        Multigraph(3, [("2", "0")])


def test_multigraph_keeps_exact_int_tuples_without_a_copy():
    edges = [(0, 1), (1, 2), (2, 2)]
    g = Multigraph(3, edges)
    assert all(kept is given for kept, given in zip(g.edges, edges, strict=True))


def test_multigraph_range_checks():
    with pytest.raises(ValueError, match=r"^edge 1 endpoints \(0, 3\) out of range for n=3$"):
        Multigraph(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"^edge 0 endpoints \(-1, 0\) out of range for n=3$"):
        Multigraph(3, [(-1, 0)])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Multigraph(-1)


def test_parse_builds_the_graph_without_checking_its_edges_again(monkeypatch):
    # the reader checks each line, so parse_graph keeps its exact pairs as
    # they are and never rebuilds or re-checks an edge
    def refuse(edge):
        raise AssertionError("parse_graph checked an edge again")

    text = "4 5\n0 1\n# a comment\n1 2\n2 2\n3 0\n003 +1\n"
    want = Multigraph(4, [(0, 1), (1, 2), (2, 2), (3, 0), (3, 1)])
    monkeypatch.setattr(graph, "_int_pair", refuse)
    g = parse_graph(text)
    assert g == want and {type(x) for e in g.edges for x in e} == {int}
    with pytest.raises(GraphFormatError, match=r"^line 3: vertex id out of range \(n=4\)$"):
        parse_graph("4 2\n0 1\n4 0\n")


def test_multigraph_checks_non_exact_pairs_edge_by_edge():
    # a bool, list or iterator pair is rebuilt with int(), in edge order
    g = Multigraph(3, [(0, 1), (True, 2), [2, 0], iter((1, 1)), (x for x in (0, 2))])
    assert g.edges == ((0, 1), (1, 2), (2, 0), (1, 1), (0, 2))
    assert all(type(e) is tuple and list(map(type, e)) == [int, int] for e in g.edges)
    # the first out-of-range edge is named, rebuilt or not
    for edges in ([(0, 1), (0, 3), (-1, 0)], [(0, 1), [0, 3], (-1, 0)], [(0, 1), (0, 3), (False, 9)]):
        with pytest.raises(ValueError, match=r"^edge 1 endpoints \(0, 3\) out of range for n=3$"):
            Multigraph(3, edges)
    with pytest.raises(ValueError, match=r"^edge 1 endpoints \(2, -1\) out of range for n=3$"):
        Multigraph(3, [(2, 2), (2, -1)])
    # a pair of another length or a non-integer endpoint fails as it is
    # rebuilt, before the vertex count is checked; a negative count comes
    # before any edge's range
    with pytest.raises(ValueError, match=r"^too many values to unpack"):
        Multigraph(-1, [(0, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="^invalid literal for int"):
        Multigraph(-1, [(0, "x")])
    for edges in ([(0, 0), (5, 0)], [(True, 7)]):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Multigraph(-1, edges)


@pytest.mark.parametrize("n", [True, 2.0, None, "3"], ids=["bool", "float", "none", "str"])
def test_a_vertex_count_that_is_not_an_int_is_refused(n):
    # Multigraph(True, ...) used to play to "tight" and then write a header
    # "True 1" that parse_graph refuses; Multigraph(2.0, ...) failed in the game
    with pytest.raises(ValueError, match=r"^vertex count must be an integer, got "):
        Multigraph(n, [(0, 0)])
    with pytest.raises(ValueError, match=r"^vertex count must be an integer, got "):
        GameState(n, SparsityParams(1, 0))
    with pytest.raises(ValueError, match=r"^vertex count must be an integer, got "):
        run_canonical_game(EdgeStream(n, 1, iter([(0, 0)])), SparsityParams(1, 0))
    # the edges are still rebuilt first, so a malformed pair is named before the count
    with pytest.raises(ValueError, match=r"^too many values to unpack"):
        Multigraph(n, [(0, 0, 0)])
