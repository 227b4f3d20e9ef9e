import io
import json
import os
import random
import re
import sys
import time
import tracemalloc

import pytest

from sparsity_kit import (
    Multigraph,
    SparsityParams,
    TraceError,
    certificate_to_json,
    extract_certificate,
    random_tight_graph,
    replay_trace,
    run_canonical_game,
    validate_certificate,
    write_graph,
)
from sparsity_kit.cli import main
from sparsity_kit.decompose import Certificate, ColoredEdge
from sparsity_kit.graph import _PARSE_BLOCK

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
TRIANGLE_TEXT = "3 3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4_TEXT)
    return str(p)


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(TRIANGLE_TEXT)
    return str(p)


def test_recognize_tight(k4_file, capsys):
    assert main(["recognize", "--k", "2", "--l", "2", k4_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "tight"
    assert "accepted=6" in out


def test_recognize_not_sparse(k4_file, capsys):
    assert main(["recognize", "--k", "2", "--l", "3", k4_file]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "not-sparse"


def test_recognize_sparse_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("5 0\n")
    assert main(["recognize", "--k", "2", "--l", "3", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sparse"


def test_recognize_json_format(k4_file, capsys):
    assert main(["recognize", "--k", "2", "--l", "2", "--format", "json", k4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "tight"
    assert payload["accepted"] == 6


def test_recognize_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 5\n")
    assert main(["recognize", "--k", "2", "--l", "2", str(p)]) == 1


def _edge_rows(n=500, m=6000):
    # a triangle over and over: its first copy is a tight block, and the
    # component screen rejects every later edge at once
    return [f"{n} {m}"] + [f"{i % 3} {(i + 1) % 3}" for i in range(m)]


def _with_line(rows, line, text):
    """A copy of the rows with the given 1-based line replaced by `text`."""
    rows = list(rows)
    rows[line - 1] = text
    return rows


def _data(rows):
    return "\n".join(rows).encode()


def _late_byte(rows, line, byte):
    """The rows as bytes with `byte` put in front of the given 1-based line, and
    its byte position."""
    at = len(_data(rows[: line - 1])) + 1
    data = _data(rows)
    return data[:at] + byte + data[at:], at


def _malformed_inputs():
    rows = _edge_rows()
    yield "late token", _data(_with_line(rows, 5000, "1 x")), (
        "line 5000: non-integer token in edge line"
    )
    yield "late range", _data(_with_line(rows, 5000, "1 500")), (
        "line 5000: vertex id out of range (n=500)"
    )
    yield "late arity", _data(_with_line(rows, 5000, "1 2 3")), (
        "line 5000: edge line must be 'u v'"
    )
    yield "too few", _data(rows[:-2]), "header declares 6000 edges, found 5998"
    yield "too many", _data(rows + ["0 1"]), "header declares 6000 edges, found 6001"
    yield "no header", b"# only a comment\r\n\n", "missing header line 'n m'"
    yield "bad header", b"x 1\n0 1\n", "line 1: non-integer token in header"
    data, at = _late_byte(rows, 5001, b"\xff")
    yield "late decode", data, (
        f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    )
    # a whole read decodes everything before it parses anything
    data, at = _late_byte(_with_line(rows, 2, "0 x"), 5001, b"\xff")
    yield "decode after a parse error", data, (
        f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    )
    cut = 2 * _PARSE_BLOCK - 1  # a three-byte character across a read-block edge, cut short
    data = _data(rows)
    data = data[:cut] + b"\xe2\x82A" + data[cut:]
    yield "split sequence", data, (
        f"'utf-8' codec can't decode bytes in position {cut}-{cut + 1}: invalid continuation byte"
    )
    data = _data(rows) + b"\n\xe2\x82"
    yield "truncated end", data, (
        f"'utf-8' codec can't decode bytes in position {len(data) - 2}-{len(data) - 1}: "
        "unexpected end of data"
    )
    yield "no vertices, an edge", b"0 1\n0 0\n", "line 2: vertex id out of range (n=0)"
    yield "no vertices", b"0 0\n", "the game needs at least one vertex"


MALFORMED = list(_malformed_inputs())


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "data, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_recognize_reports_malformed_input_as_a_whole_read_does(
    tmp_path, monkeypatch, capsys, data, message, source
):
    # recognize reads and plays its input a block at a time, yet fails with the
    # message and exit code of reading the whole input, then parsing it, then
    # playing: a decode error anywhere wins over a format error, and a byte
    # position counts from the start of the input
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    trace = tmp_path / "t.jsonl"
    argv = ["recognize", "--k", "2", "--l", "3", "--trace", str(trace)]
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        argv.append("-")
    else:
        argv.append(str(path))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not trace.exists()  # a malformed input writes no trace
    if source == "file":  # decompose reads graph files through the same reader
        assert main(["decompose", "--k", "2", "--l", "3", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _peak_of(argv, code) -> int:
    """tracemalloc peak of the second of two runs of `argv`, which exit with `code`."""
    assert main(argv) == code  # first-call allocations are not per edge
    tracemalloc.start()
    try:
        assert main(argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recognize_memory_does_not_follow_rejected_edges(tmp_path, capsys):
    # recognize plays each edge as it is read and keeps only the accepted ones,
    # so burying a (2,3)-tight n = 200 graph in 3603 random edges adds about
    # 4-5 B per rejected edge (larger accepted ids and the longer game); with
    # the whole input graph parsed first it added about 40 B
    g = random_tight_graph(200, SparsityParams(2, 3), 7)
    rng = random.Random(7)
    edges = list(g.edges)
    while len(edges) < 20 * g.n:
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u != v:
            edges.append((u, v))
    rng.shuffle(edges)
    peaks = []
    for graph, code in ((g, 0), (Multigraph(g.n, edges), 2)):
        path = tmp_path / "g.txt"
        path.write_text(write_graph(graph))
        argv = ["recognize", "--k", "2", "--l", "3", "--format", "json", str(path)]
        peaks.append(_peak_of(argv, code))
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["accepted"] for r in reports] == [397] * 4
    rejected = len(edges) - 397
    assert (peaks[1] - peaks[0]) / rejected < 8, peaks


def test_recognize_bad_params_exit_1(k4_file):
    assert main(["recognize", "--k", "2", "--l", "4", k4_file]) == 1


def test_decompose_triangle_ltk(triangle_file, tmp_path, capsys):
    cert_path = tmp_path / "tri.cert.json"
    assert (
        main(["decompose", "--k", "2", "--l", "3", triangle_file, "-o", str(cert_path)]) == 0
    )
    payload = json.loads(cert_path.read_text())
    assert payload["kind"] == "proper-ltk"
    assert len(payload["roles"]["trees"]) == 3


def test_decompose_k4_maps_and_trees(k4_file, tmp_path):
    cert_path = tmp_path / "k4.cert.json"
    assert main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    assert payload["kind"] == "maps-and-trees"
    assert len(payload["roles"]["trees"]) == 2
    assert all(len(t) == 3 for t in payload["roles"]["trees"])


def test_decompose_non_tight_exit_3(tmp_path):
    p = tmp_path / "k4less.txt"
    p.write_text("4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    assert main(["decompose", "--k", "2", "--l", "2", str(p), "-o", "-"]) == 3


def test_decompose_coloring_kind(k4_file, tmp_path):
    cert_path = tmp_path / "c.json"
    assert (
        main(
            [
                "decompose",
                "--k",
                "2",
                "--l",
                "2",
                k4_file,
                "--kind",
                "coloring",
                "-o",
                str(cert_path),
            ]
        )
        == 0
    )
    payload = json.loads(cert_path.read_text())
    assert payload["kind"] == "coloring"
    assert "roles" not in payload


def test_decompose_dot_format(triangle_file, tmp_path):
    out = tmp_path / "tri.dot"
    assert (
        main(
            ["decompose", "--k", "2", "--l", "3", triangle_file, "--format", "dot", "-o", str(out)]
        )
        == 0
    )
    assert out.read_text().startswith("digraph")


def test_certify_engine_output(k4_file, tmp_path, capsys):
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    assert main(["certify", k4_file, str(cert_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_certify_detects_recolored_edge(k4_file, tmp_path, capsys):
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["edges"][0]["color"] = 1 - payload["edges"][0]["color"]
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", k4_file, str(cert_path)]) == 4
    assert "invalid" in capsys.readouterr().out


def test_certify_detects_upper_range_cycle(triangle_file, tmp_path, capsys):
    cert_path = tmp_path / "tri.cert.json"
    main(["decompose", "--k", "2", "--l", "3", triangle_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    # orient all edges into one color around the triangle
    for row, tail in zip(payload["edges"], (0, 1, 2)):
        row["color"] = 0
        row["oriented_from"] = tail
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", triangle_file, str(cert_path)]) == 4


def test_certify_rejects_map_roles_on_proper_ltk(triangle_file, tmp_path, capsys):
    params = SparsityParams(2, 3)
    res = run_canonical_game(Multigraph(3, [(0, 1), (1, 2), (2, 0)]), params)
    cert = extract_certificate(res, "proper-ltk")
    cert = Certificate(cert.kind, params, cert.n, cert.edges, cert.trees, ((0, 1, 2),))
    ok, why = validate_certificate(res.graph, cert)
    assert not ok and "map roles" in why
    cert_path = tmp_path / "tri.cert.json"
    cert_path.write_text(certificate_to_json(cert))
    assert main(["certify", triangle_file, str(cert_path)]) == 4
    assert "map roles" in capsys.readouterr().out


def test_certify_memory_per_edge(tmp_path, capsys):
    # the whole certify operation, graph and certificate text included, on a
    # (3,3) n = 500 certificate: 478 B per edge under Python 3.11 (531 B under
    # 3.10) when the reader kept a dict per edge record and the out-slots were
    # keyed by (vertex, color) tuples, 334 B (338 B) when the decoder builds
    # the edges and int keys name the slots, 290 B under 3.11 when the
    # decoder also shares one int object per vertex id
    params = SparsityParams(3, 3)
    g = random_tight_graph(500, params, 12345)
    graph, cert_path = tmp_path / "g.txt", tmp_path / "g.cert.json"
    graph.write_text(write_graph(g))
    cert_path.write_text(certificate_to_json(extract_certificate(run_canonical_game(g, params))))
    argv = ["certify", str(graph), str(cert_path)]
    assert main(argv) == 0  # first-call allocations are not per edge
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "valid\nvalid\n"
    assert peak / g.m < 320


def test_decompose_memory_per_edge(tmp_path, capsys):
    # the whole decompose operation on the same (3,3) n = 500 graph, graph
    # text, game and certificate included: 338 B per edge under Python 3.11
    # when the whole certificate text was built before it was written, 309 B
    # when it is written a block of edges at a time, and 232 B when extraction
    # lets the game go before it builds the certificate, so the played game
    # now sets the peak.  Python 3.10 keeps a call's arguments on the
    # caller's stack until it returns, so there the game is still alive
    # while the certificate is built.
    params = SparsityParams(3, 3)
    g = random_tight_graph(500, params, 12345)
    graph, cert_path = tmp_path / "g.txt", tmp_path / "g.cert.json"
    graph.write_text(write_graph(g))
    peak = _peak_of(["decompose", "--k", "3", "--l", "3", str(graph), "-o", str(cert_path)], 0)
    assert cert_path.read_text() == certificate_to_json(
        extract_certificate(run_canonical_game(g, params))
    )
    assert peak / g.m < (255 if sys.version_info >= (3, 11) else 335)


def test_decompose_writes_nothing_for_a_refused_certificate(k4_file, tmp_path, capsys, monkeypatch):
    # the writer's checks run before the output is opened, so an existing
    # file is left as it was
    def coloring_with_roles(result, kind):
        cert = extract_certificate(result, "coloring")
        return Certificate(cert.kind, cert.params, cert.n, cert.edges, ((0, 1),))

    monkeypatch.setattr("sparsity_kit.cli.extract_certificate", coloring_with_roles)
    out = tmp_path / "c.json"
    out.write_text("kept\n")
    assert main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(out)]) == 1
    assert main(["decompose", "--k", "2", "--l", "2", k4_file]) == 1
    assert capsys.readouterr() == ("", "error: a coloring certificate has no roles\n" * 2)
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("k", [10**6, 10**18])
def test_certify_memory_does_not_follow_the_declared_k(tmp_path, capsys, k):
    # one edge on two vertices, in the top color of a huge declared k: the
    # validator holds what the certificate lists, not a slot per vertex and color
    graph, cert_path = tmp_path / "g.txt", tmp_path / "g.cert.json"
    graph.write_text("2 1\n0 1\n")
    cert = Certificate("coloring", SparsityParams(k, 0), 2, (ColoredEdge(0, 0, 1, k - 1, 1),))
    cert_path.write_text(certificate_to_json(cert))
    argv = ["certify", str(graph), str(cert_path)]
    assert main(argv) == 0  # first-call allocations are not per edge
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "valid\nvalid\n"
    assert peak < 100_000


@pytest.mark.parametrize(
    "n, kind, l, edges, trees, failure",
    [
        # one edge on two vertices at l = 2k - 1: 2k - 2 empty trees unlisted
        (2, "proper-ltk", 2 * 10**9 - 1, [(0, 0, 1, 0, 0)], ((0,),),
         "tree roles do not match the color components"),
        # no edge on one vertex at l = k: k empty trees unlisted
        (1, "maps-and-trees", 10**9, [], (), "tree/map roles do not match the color classes"),
    ],
    ids=["proper-ltk", "maps-and-trees"],
)
def test_certify_roles_work_does_not_follow_the_declared_k(
    tmp_path, capsys, n, kind, l, edges, trees, failure
):
    # the validator walks only the colors that occur and counts the empty
    # ones, so a role certificate declaring k = 10^9 is checked in the time and
    # memory of its own size (with a class walked per declared color, k = 10^5
    # took 8 s and 9.8 MB)
    graph, cert_path = tmp_path / "g.txt", tmp_path / "g.cert.json"
    graph.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for _, u, v, _, _ in edges))
    rows = tuple(ColoredEdge(*e) for e in edges)
    cert = Certificate(kind, SparsityParams(10**9, l), n, rows, trees)
    cert_path.write_text(certificate_to_json(cert))
    start = time.perf_counter()
    peak = _peak_of(["certify", str(graph), str(cert_path)], 4)
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == f"invalid: {failure}\n" * 2
    assert peak < 100_000


EDGE = '{"id":0,"u":0,"v":1,"color":0,"oriented_from":0}'


@pytest.mark.parametrize(
    "where, named",
    [
        ("top", "malformed certificate: 'k'"),
        ("n", "malformed certificate: n must be"),
        ("kind", "unknown kind "),
        ("field", "malformed certificate: id must be"),
        ("roles", "malformed certificate: trees edge id"),
    ],
)
def test_certify_reports_edge_shaped_objects_outside_the_edge_list(
    k4_file, tmp_path, capsys, where, named
):
    # the decoder turns every object with exactly the five edge fields into an
    # edge; anywhere else such an object is still refused with exit 1, naming
    # the same field as before
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    text = cert_path.read_text()
    if where == "top":
        text = EDGE
    elif where == "n":
        text = text.replace('"n":4', '"n":' + EDGE)
    elif where == "kind":
        text = re.sub('"kind":"[a-z-]+"', '"kind":' + EDGE, text)
    elif where == "field":
        text = text.replace('"id":0', '"id":' + EDGE, 1)
    else:
        text = text.replace('"trees":[[', '"trees":[[' + EDGE + ",")
    assert text != cert_path.read_text()
    cert_path.write_text(text)
    assert main(["certify", k4_file, str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}"), err


def test_certify_mismatched_files_exit_1(triangle_file, k4_file, tmp_path):
    cert_path = tmp_path / "tri.cert.json"
    main(["decompose", "--k", "2", "--l", "3", triangle_file, "-o", str(cert_path)])
    assert main(["certify", k4_file, str(cert_path)]) == 1


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["generate", "--k", "2", "--l", "3", "--n", "8", "--seed", "5"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_env_seed(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    monkeypatch.setenv("SPARSITY_KIT_SEED", "9")
    assert main(["generate", "--k", "2", "--l", "2", "--n", "5", "-o", str(a)]) == 0
    assert main(["generate", "--k", "2", "--l", "2", "--n", "5", "--seed", "9", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_impossible_params(tmp_path):
    assert main(["generate", "--k", "2", "--l", "3", "--n", "1", "-o", "-"]) == 1


def test_replay_round_trip(k4_file, tmp_path, capsys):
    trace = tmp_path / "k4.trace"
    assert (
        main(["recognize", "--k", "2", "--l", "2", k4_file, "--trace", str(trace)]) == 0
    )
    capsys.readouterr()
    assert main(["replay", str(trace), "--debug-invariants"]) == 0


def test_replay_detects_tampered_color(k4_file, tmp_path):
    trace = tmp_path / "k4.trace"
    main(["recognize", "--k", "2", "--l", "2", k4_file, "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["op"] == "slide":
            rec["color"] = 1 - rec["color"]
            lines[i] = json.dumps(rec)
            break
    else:
        # no slide happened; tamper with an add instead
        rec = json.loads(lines[1])
        rec["color"] = 1 - rec["color"]
        lines[1] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 4


INIT_LINE = '{"k":2,"l":2,"n":3,"op":"init"}'


@pytest.mark.parametrize(
    "lines, named",
    [
        pytest.param([INIT_LINE, '{"op":"add"}'], "line 2: add field 'v'", id="missing"),
        pytest.param(
            [INIT_LINE, '{"op":"add","v":0,"w":1,"color":0.5}'],
            "line 2: add field 'color'",
            id="float",
        ),
        pytest.param(
            [INIT_LINE, '{"op":"add","v":0,"w":true,"color":0}'], "line 2: add field 'w'", id="bool"
        ),
        pytest.param([INIT_LINE, "[1,2]"], "line 2: record must be a JSON object", id="list"),
        pytest.param(
            [INIT_LINE, '{"op":"add","v":0,"w":1,"color":0}',
             '{"op":"slide","edge":"0","tail":0,"head":1,"color":1}'],
            "line 3: slide field 'edge'",
            id="str-edge",
        ),
        pytest.param(['{"k":2,"l":2,"n":"3","op":"init"}'], "line 1: init field 'n'", id="str-n"),
        pytest.param(['{"k":2,"l":2,"n":0,"op":"init"}'], "line 1: bad init record", id="no-vertex"),
        pytest.param(
            [INIT_LINE, '{"op":"add","v":-1,"w":1,"color":0}'],
            "line 2: vertex out of range",
            id="negative-vertex",
        ),
        pytest.param([INIT_LINE, '{"op":"end"}'], "line 2: end field 'hash'", id="no-hash"),
        pytest.param([INIT_LINE, INIT_LINE], "line 2: second init record", id="second-init"),
    ],
)
def test_replay_reports_malformed_records(tmp_path, capsys, lines, named):
    trace = tmp_path / "bad.trace"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 4
    assert capsys.readouterr().err.startswith(f"replay failed: {named}")


@pytest.mark.parametrize(
    "edges, eid", [(0, -1), (0, 0), (0, 2), (1, -1), (1, -2), (1, 1), (1, 3)]
)
def test_replay_refuses_slide_ids_out_of_range(tmp_path, capsys, edges, eid):
    # ids below 0 or at m and past it name no edge; a negative id must not
    # index the edge lists from the end
    lines = ['{"op":"init","n":2,"k":1,"l":1}'] + ['{"op":"add","v":0,"w":1,"color":0}'] * edges
    lines.append(json.dumps({"op": "slide", "edge": eid, "tail": 0, "head": 1, "color": 0}))
    named = f"line {len(lines)}: stale slide record for edge {eid}"
    with pytest.raises(TraceError, match=f"^{named}$"):
        replay_trace(lines)
    trace = tmp_path / "bad.trace"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 4
    assert capsys.readouterr().err == f"replay failed: {named}\n"


def test_recognize_and_decompose_record_the_same_trace(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["generate", "--k", "2", "--l", "3", "--n", "40", "--seed", "3", "-o", str(g)]) == 0
    kl = ["--k", "2", "--l", "3"]
    r, d = tmp_path / "r.jsonl", tmp_path / "d.jsonl"
    assert main(["recognize", *kl, str(g), "--trace", str(r)]) == 0
    assert main(["decompose", *kl, str(g), "-o", str(tmp_path / "c.json"), "--trace", str(d)]) == 0
    assert r.read_bytes() == d.read_bytes()
    capsys.readouterr()
    assert main(["replay", str(d), "--debug-invariants"]) == 0
    assert capsys.readouterr().out == "ok\n"
    # invariants are checked by replaying the trace, not during recognition
    assert main(["recognize", *kl, str(g), "--debug-invariants"]) == 1


def test_replay_empty_trace(tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text('{"k":2,"l":3,"n":3,"op":"init"}\n')
    assert main(["replay", str(trace)]) == 0


def test_bench_ascending_guard():
    assert main(["bench", "--k", "2", "--l", "3", "--sizes", "16", "8"]) == 1


def test_bench_small_sizes(capsys):
    assert main(["bench", "--k", "2", "--l", "3", "--sizes", "8", "16", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "seconds" in out


def test_bench_csv(capsys):
    assert (
        main(["bench", "--k", "2", "--l", "3", "--sizes", "8", "--seed", "1", "--format", "csv"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("n,edges,seconds")


def test_bench_reports_slides(capsys):
    assert main(["bench", "--k", "2", "--l", "3", "--sizes", "16", "--seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "slides" and int(row.split()[-1]) > 0
    assert (
        main(["bench", "--k", "2", "--l", "3", "--sizes", "16", "--seed", "1", "--format", "csv"])
        == 0
    )
    header, row = capsys.readouterr().out.splitlines()
    assert header == "n,edges,seconds,ratio,slides" and int(row.split(",")[-1]) > 0


def test_bench_json(capsys):
    args = ["bench", "--k", "2", "--l", "3", "--sizes", "8", "16", "--seed", "1"]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["k"], payload["l"], payload["seed"], payload["repeats"]) == (2, 3, 1, 5)
    assert payload["python"] and payload["cpu_count"] >= 1
    small, large = payload["rows"]
    assert (small["n"], small["edges"], large["n"], large["edges"]) == (8, 13, 16, 29)
    assert small["ratio"] is None and large["ratio"] > 0
    for row in (small, large):
        assert row["seconds"] > 0 and row["seconds_iqr"] >= 0
    # playing the larger game, extracting and writing its certificate, or
    # parsing its graph's text holds more memory
    assert 0 < small["game_peak_mb"] < large["game_peak_mb"] < 1
    assert 0 < small["certificate_peak_mb"] < large["certificate_peak_mb"] < 1
    assert 0 < small["graph_peak_mb"] < large["graph_peak_mb"] < 1
    # the other formats report the same slide counts as the JSON
    assert main(args + ["--format", "csv"]) == 0
    csv_rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(line.split(",")[-1]) for line in csv_rows] == [small["slides"], large["slides"]]


def test_stdin_stdout_streaming(capsys, monkeypatch, tmp_path):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE_TEXT))
    assert main(["recognize", "--k", "2", "--l", "3", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tight"


def test_certify_refuses_reading_both_files_from_stdin(monkeypatch, capsys):
    import io
    import sys

    stdin = io.StringIO(TRIANGLE_TEXT)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["certify", "-", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: graph and certificate")
    assert stdin.read() == TRIANGLE_TEXT  # refused before reading anything


@pytest.mark.parametrize(
    "argv",
    [
        ["recognize", "--trace", "-"],
        ["recognize", "--format", "json", "--trace", "-"],
        ["decompose", "--trace", "-"],
        ["decompose", "--trace", "-", "-o", "-"],
    ],
    ids=["recognize", "recognize-json", "decompose", "decompose-explicit-output"],
)
def test_trace_to_stdout_is_refused_where_stdout_carries_the_result(k4_file, capsys, argv):
    assert main([*argv, "--k", "2", "--l", "2", k4_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --trace -")


def test_decompose_writes_the_trace_to_stdout_when_the_certificate_goes_to_a_file(
    k4_file, tmp_path, capsys
):
    cert_path = tmp_path / "c.json"
    kl = ["--k", "2", "--l", "2"]
    assert main(["decompose", *kl, k4_file, "-o", str(cert_path), "--trace", "-"]) == 0
    trace = capsys.readouterr().out
    trace_path = tmp_path / "t.jsonl"
    assert main(["recognize", *kl, k4_file, "--trace", str(trace_path)]) == 0
    assert trace == trace_path.read_text()
    assert main(["certify", k4_file, str(cert_path)]) == 0


def test_outputs_are_byte_identical_across_runs(k4_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(a)])
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_certify_rejects_repeated_edge_id(tmp_path, capsys):
    # id 3 twice and id 2 never: the row count still matches m
    graph = tmp_path / "g.txt"
    graph.write_text("3 4\n0 1\n0 1\n0 1\n1 2\n")
    rows = [(0, 0, 1, 0, 0), (3, 1, 2, 0, 1), (1, 0, 1, 1, 1), (3, 1, 2, 1, 2)]
    payload = {
        "k": 2,
        "l": 2,
        "n": 3,
        "kind": "maps-and-trees",
        "edges": [
            {"id": i, "u": u, "v": v, "color": c, "oriented_from": t}
            for i, u, v, c, t in rows
        ],
        "roles": {"trees": [[0, 3], [1, 3]], "maps": []},
    }
    cert_path = tmp_path / "g.cert.json"
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", str(graph), str(cert_path)]) == 4
    assert "listed twice" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, retype",
    [
        ("id", str),
        ("u", float),
        ("v", bool),
        ("color", lambda c: None),
        ("color", bool),
        ("oriented_from", bool),
    ],
)
def test_certify_rejects_non_integer_fields(k4_file, tmp_path, capsys, field, retype):
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    # a row whose field is 1, so 1.0 and true stand for the same number
    row = next(r for r in payload["edges"] if r[field] == 1)
    row[field] = retype(row[field])
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", k4_file, str(cert_path)]) == 1
    assert f"{field} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("retype", [float, bool])
@pytest.mark.parametrize("field", ["u", "v", "oriented_from"])
def test_certify_rejects_a_non_integer_vertex_after_a_plain_one(
    k4_file, tmp_path, capsys, field, retype
):
    # the reader shares one int object per vertex id; 1.0 and true equal 1,
    # so a table keyed by value alone would hand back the int 1 read before
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    rows = payload["edges"]
    row = rows.pop(next(i for i, r in enumerate(rows) if r[field] == 1))
    assert any(r[f] == 1 for r in rows for f in ("u", "v", "oriented_from"))
    row[field] = retype(row[field])
    rows.append(row)  # the edge list may come in any order
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", k4_file, str(cert_path)]) == 1
    assert f"{field} must be an integer, got {row[field]!r}" in capsys.readouterr().err


def test_certify_rejects_non_integer_role_edge_id(k4_file, tmp_path, capsys):
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["roles"]["trees"][0][0] = str(payload["roles"]["trees"][0][0])
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", k4_file, str(cert_path)]) == 1
    assert "trees edge id must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("roles", [None, [], 3], ids=["null", "list", "number"])
def test_certify_rejects_roles_that_are_not_an_object(k4_file, tmp_path, capsys, roles):
    cert_path = tmp_path / "k4.cert.json"
    main(["decompose", "--k", "2", "--l", "2", k4_file, "-o", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["roles"] = roles
    cert_path.write_text(json.dumps(payload))
    assert main(["certify", k4_file, str(cert_path)]) == 1
    assert "roles must be an object" in capsys.readouterr().err


def test_certify_rejects_a_coloring_that_lists_roles(k4_file, tmp_path, capsys):
    cert_path = tmp_path / "k4.cert.json"
    argv = ["decompose", "--k", "2", "--l", "2", "--kind", "coloring", k4_file]
    assert main([*argv, "-o", str(cert_path)]) == 0
    assert main(["certify", k4_file, str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    payload["roles"] = {"trees": [[99, 100]], "maps": [[5]]}
    cert_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", k4_file, str(cert_path)]) == 4
    assert capsys.readouterr().out == "invalid: a coloring certificate has no roles\n"


# -- several calls in one process ------------------------------------------------


def test_a_call_keeps_no_option_of_the_call_before(k4_file, tmp_path, capsys):
    kl = ["--k", "2", "--l", "2"]
    cert_path = tmp_path / "c.json"
    assert main(["decompose", *kl, "--kind", "coloring", k4_file, "-o", str(cert_path)]) == 0
    assert json.loads(cert_path.read_text())["kind"] == "coloring"
    assert main(["decompose", *kl, k4_file, "-o", str(cert_path)]) == 0
    assert json.loads(cert_path.read_text())["kind"] == "maps-and-trees"
    trace = tmp_path / "t.jsonl"
    assert main(["recognize", *kl, k4_file, "--trace", str(trace)]) == 0
    trace.unlink()
    assert main(["recognize", *kl, k4_file]) == 0
    assert not trace.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "k4.txt"]
    assert capsys.readouterr() == ("tight\naccepted=6 rejected=0\n" * 2, "")


def test_a_usage_error_and_a_valid_call_each_report_their_own_result(k4_file, capsys):
    argv = ["recognize", "--k", "2", "--l", "2", k4_file]
    assert main(["recognize", "--k", "x", "--l", "2", k4_file]) == 1
    assert capsys.readouterr() == ("", "usage error: argument --k: invalid int value: 'x'\n")
    assert main(argv) == 0
    assert capsys.readouterr() == ("tight\naccepted=6 rejected=0\n", "")
    assert main(["recognize", "--l", "2", k4_file]) == 1
    assert capsys.readouterr() == ("", "usage error: the following arguments are required: --k\n")
    assert main(argv) == 0
    assert capsys.readouterr() == ("tight\naccepted=6 rejected=0\n", "")


@pytest.mark.parametrize(
    "command, option",
    [
        ("recognize", "--trace"),
        ("decompose", "--kind"),
        ("certify", "certificate"),
        ("generate", "--seed"),
        ("replay", "--debug-invariants"),
        ("bench", "--sizes"),
    ],
)
def test_subcommand_help_exits_0_and_the_next_call_works(k4_file, capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: sparsity-kit {command} ")
    assert option in out
    assert main(["recognize", "--k", "2", "--l", "2", k4_file]) == 0
    assert capsys.readouterr() == ("tight\naccepted=6 rejected=0\n", "")

