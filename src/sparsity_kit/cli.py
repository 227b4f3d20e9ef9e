"""Command line front end.

Subcommands: recognize | decompose | certify | generate | replay | bench.
'-' means stdin/stdout for graph, certificate, output and trace paths; giving
it to two paths that would share one stream is a usage error.  Graph files
are read and decoded a block at a time: recognize plays each edge as its line
is read and never holds the input graph, while decompose and certify build
the Multigraph their certificates refer to.  A malformed graph file fails
with the message a whole read of it gives.  Exit codes:
0 success (sparse/tight/valid), 1 usage, I/O, or parse errors, 2 not-sparse
(recognize), 3 not tight (decompose), 4 invalid certificate or trace.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from typing import Iterable

from .canonical import ConstructionResult, run_canonical_game
from .decompose import (
    CERTIFICATE_KINDS,
    CertificateError,
    NotTightError,
    _json_chunks,
    certificate_from_json,
    certificate_to_json,
    extract_certificate,
    to_dot,
    validate_certificate,
)
from . import graph
from .graph import (
    EdgeStream,
    GraphFormatError,
    Multigraph,
    SparsityParams,
    parse_graph,
    read_graph,
    write_graph,
)
from .oracle import random_tight_graph
from .pebbles import Move, SlideMove, TraceError, replay_trace, trace_to_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_SPARSE = 2
EXIT_NOT_TIGHT = 3
EXIT_INVALID = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    """Write the text `chunks` make up, one chunk at a time, to `path` or to
    stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _params(args) -> SparsityParams:
    try:
        return SparsityParams(args.k, args.l)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _decode_error_at(exc: UnicodeDecodeError, base: int) -> ValueError:
    """`exc` as decoding the whole input reports it, its object starting at
    byte `base` of the input."""
    start, end = base + exc.start, base + exc.end
    if end == start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _decoded_blocks(fh, encoding: str, errors: str):
    """The text of binary stream `fh`, decoded _PARSE_BLOCK bytes at a time."""
    decode = codecs.getincrementaldecoder(encoding)(errors).decode
    offset = 0
    while True:
        data = fh.read(graph._PARSE_BLOCK)
        offset += len(data)
        try:
            text = decode(data, not data)
        except UnicodeDecodeError as exc:
            # the decoder's object is the bytes it held back plus `data`
            raise _decode_error_at(exc, offset - len(exc.object)) from None
        if text:
            yield text
        if not data:
            return


def _graph_chunks(path: str):
    """The text of a graph file, UTF-8, or of stdin in its own encoding, a block
    at a time."""
    if path != "-":
        with open(path, "rb") as fh:
            yield from _decoded_blocks(fh, "utf-8", "strict")
    elif hasattr(sys.stdin, "buffer"):
        yield from _decoded_blocks(sys.stdin.buffer, sys.stdin.encoding, sys.stdin.errors)
    else:  # a text stream with no bytes beneath it
        yield from iter(lambda: sys.stdin.read(graph._PARSE_BLOCK), "")


@contextlib.contextmanager
def _graph_text(path: str):
    """The chunks of a graph file's text, for one reader.

    A format error met while reading gives way to a decode or I/O error later
    in the input, as when the whole input was read before it was parsed, so
    the rest of the input is read before the format error is raised.
    """
    chunks = _graph_chunks(path)
    try:
        yield chunks
    except GraphFormatError:
        for _ in chunks:
            pass
        raise
    finally:
        chunks.close()


def _load_graph(path: str) -> Multigraph:
    with _graph_text(path) as chunks:
        return parse_graph(chunks)


def _play(args, g: Multigraph | EdgeStream, params: SparsityParams) -> ConstructionResult:
    """Play the canonical game on g; with --trace, write its moves to that file."""
    if not args.trace:
        return run_canonical_game(g, params)
    moves: list[Move] = []
    result = run_canonical_game(g, params, after_move=lambda state, move: moves.append(move))
    _write_chunks(args.trace, ["\n".join(trace_to_lines(result.state, moves)) + "\n"])
    return result


def cmd_recognize(args) -> int:
    if args.trace == "-":  # the report always goes to stdout
        raise UsageError("--trace - would mix the trace into the report on stdout")
    params = _params(args)
    with _graph_text(args.graph) as chunks:
        g = read_graph(chunks)  # the game plays each edge as it is read
        result = _play(args, g, params)
    verdict = result.verdict()
    accepted = len(result.accepted)
    if args.format == "json":
        payload = {
            "verdict": verdict,
            "accepted": accepted,
            "rejected": g.m - accepted,
            "n": g.n,
            "m": g.m,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(verdict)
        print(f"accepted={accepted} rejected={g.m - accepted}")
    return EXIT_OK if verdict in ("tight", "sparse") else EXIT_NOT_SPARSE


def cmd_decompose(args) -> int:
    if args.trace == "-" == args.output:
        raise UsageError("--trace - would mix the trace into the output on stdout")
    params = _params(args)
    try:
        # extraction lets the game state go before it builds the certificate,
        # and the graph is dropped here, so neither is held while the
        # certificate is written
        cert = extract_certificate(_play(args, _load_graph(args.graph), params), args.kind)
    except NotTightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_TIGHT
    # the certificate is checked before any of it is written, and then
    # written a block of edges at a time
    chunks = [to_dot(cert)] if args.format == "dot" else _json_chunks(cert)
    _write_chunks(args.output, chunks)
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.graph == "-" == args.certificate:
        raise UsageError("graph and certificate cannot both be read from stdin")
    g = _load_graph(args.graph)
    cert = certificate_from_json(_read_text(args.certificate))
    if cert.n != g.n or len(cert.edges) != g.m:
        print("error: graph and certificate disagree on n or m", file=sys.stderr)
        return EXIT_USAGE
    ok, failure = validate_certificate(g, cert)
    if ok:
        print("valid")
        return EXIT_OK
    print(f"invalid: {failure}")
    return EXIT_INVALID


def cmd_generate(args) -> int:
    params = _params(args)
    if params.max_edges(args.n) < 0:
        raise UsageError(f"k*n - l is negative for n={args.n}")
    g = random_tight_graph(args.n, params, args.seed)
    _write_chunks(args.output, [write_graph(g)])
    return EXIT_OK


def cmd_replay(args) -> int:
    text = _read_text(args.trace)
    try:
        replay_trace(text.splitlines(), debug_invariants=args.debug_invariants)
    except TraceError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


BENCH_REPEATS = 5


def _peak_bytes(fn) -> int:
    """tracemalloc peak of calling `fn()`, above the memory traced before the call."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def cmd_bench(args) -> int:
    params = _params(args)
    sizes = args.sizes
    if sizes != sorted(set(sizes)):
        raise UsageError("sizes must be strictly increasing")
    rows = []
    prev: tuple[int, float] | None = None
    slides = 0

    def count_slides(state, move):
        nonlocal slides
        if isinstance(move, SlideMove):
            slides += 1

    for n in sizes:
        g = random_tight_graph(n, params, args.seed * 1_000_003 + n)
        times = []
        for _ in range(BENCH_REPEATS):  # every repeat plays the same moves
            slides = 0
            start = time.perf_counter()
            result = run_canonical_game(g, params, after_move=count_slides)
            times.append(time.perf_counter() - start)
            assert result.all_accepted()
        game_peak = _peak_bytes(lambda: run_canonical_game(g, params))
        cert_peak = _peak_bytes(lambda: certificate_to_json(extract_certificate(result)))
        text = write_graph(g)
        graph_peak = _peak_bytes(lambda: parse_graph(text))
        median = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4)
        ratio = None
        if prev is not None and prev[0] * 2 == n and prev[1] > 0:
            ratio = median / prev[1]
        rows.append(
            {
                "n": n,
                "edges": g.m,
                "seconds": median,
                "seconds_iqr": q3 - q1,
                "ratio": ratio,
                "slides": slides,
                "game_peak_mb": game_peak / 1e6,
                "certificate_peak_mb": cert_peak / 1e6,
                "graph_peak_mb": graph_peak / 1e6,
            }
        )
        prev = (n, median)
    if args.format == "json":
        payload = {
            "k": params.k,
            "l": params.l,
            "seed": args.seed,
            "repeats": BENCH_REPEATS,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "rows": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'n':>8} {'edges':>8} {'seconds':>10} {'t(2n)/t(n)':>11} {'slides':>8}")
        for r in rows:
            ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
            print(f"{r['n']:>8} {r['edges']:>8} {r['seconds']:>10.4f} {ratio:>11} {r['slides']:>8}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sparsity-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kl(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("recognize", help="classify a graph as tight/sparse/not-sparse")
    add_kl(p)
    p.add_argument("graph", help="graph file or '-'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--trace", help="write the construction trace to this file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("decompose", help="write a sparsity-certifying certificate")
    add_kl(p)
    p.add_argument("graph")
    p.add_argument("--kind", choices=CERTIFICATE_KINDS, default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--trace", help="write the construction trace to this file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("certify", help="validate a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("generate", help="emit a seeded random tight graph")
    add_kl(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("replay", help="replay a trace file and verify its hash")
    p.add_argument("trace")
    p.add_argument("--debug-invariants", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bench", help="time constructions and count slides on random tight graphs")
    add_kl(p)
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, CertificateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
