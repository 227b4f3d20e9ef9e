import json
import os

import pytest

from sparsity_kit import Multigraph, write_graph
from sparsity_kit.cli import main

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


def test_stdin_stdout_streaming(capsys, monkeypatch, tmp_path):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE_TEXT))
    assert main(["recognize", "--k", "2", "--l", "3", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tight"


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
