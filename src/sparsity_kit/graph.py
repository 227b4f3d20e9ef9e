"""Multigraph representation, sparsity parameters, and the text graph format.

Vertices are dense integer ids 0..n-1.  Edges are stored as an ordered tuple
of (u, v) pairs; loops (u == v) and parallel edges are allowed, and the edge
id is the tuple position.  Edge ids are stable: there is no deletion, and
subgraphs are expressed as id or vertex-id subsets.  `Multigraph` keeps an
edge given as an exact (int, int) tuple as it is and rebuilds any other with
int() on both endpoints, refusing a float or any endpoint whose value that
changes.

The text format is a header line "n m", then m lines "u v"; lines whose first
token starts with '#' are comments.  One reader serves every caller:
`read_graph` takes the text as consecutive chunks, reads the header, and
returns an `EdgeStream` whose edges are checked and yielded as their lines are
read, a bounded block of lines at a time, with every distinct vertex id one
shared int object.  `parse_graph` materialises that stream into a
`Multigraph` without checking its edges a second time, and the graph holds
about 64 bytes per edge (the pair tuple and its slot); the canonical game
plays the stream itself, so recognition never holds the input's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from typing import Iterable, Iterator, NamedTuple


class GraphFormatError(ValueError):
    """Raised when a graph file does not conform to the text format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SparsityParams:
    """The (k, l) counting parameters; only 0 <= l <= 2k-1 is constructible."""

    k: int
    l: int

    def __post_init__(self):
        # bool is an int subclass, but True/False are not counts
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (self.k, self.l)):
            raise ValueError("k and l must be integers")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0 <= self.l <= 2 * self.k - 1:
            raise ValueError(f"l must satisfy 0 <= l <= 2k-1, got k={self.k}, l={self.l}")

    @property
    def lower_range(self) -> bool:
        return self.l <= self.k

    @property
    def upper_range(self) -> bool:
        return self.l >= self.k

    def max_edges(self, n: int) -> int:
        """Edge count of a tight graph on n vertices (may be negative for tiny n)."""
        return self.k * n - self.l


def _int_pair(i: int, edge) -> tuple[int, int]:
    """Edge `i` as a pair of plain ints; an exact (int, int) tuple is returned
    as is.  Any other pair is rebuilt with int(), and an endpoint that is a
    float, or that int() would change, is refused: int() truncates 0.9 to 0."""
    u, v = edge
    if type(edge) is tuple and type(u) is int and type(v) is int:
        return edge
    pair = (int(u), int(v))
    for x, given in zip(pair, (u, v)):
        if x != given or isinstance(given, float):
            raise ValueError(f"edge {i} endpoint {given!r} is not an integer")
    return pair


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph with loops, on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(starmap(_int_pair, enumerate(edges))))
        if type(n) is not int:  # bool is an int subclass, but True is no vertex count
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i} endpoints ({u}, {v}) out of range for n={n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_loop(self, edge_id: int) -> bool:
        u, v = self.edges[edge_id]
        return u == v


def induced_edge_count(g: Multigraph, subset: Iterable[int]) -> int:
    """Number of edges with both endpoints (for loops, the one endpoint) in `subset`.

    Raises ValueError if `subset` is empty or holds a vertex that is not an
    int in 0..n-1.
    """
    s = frozenset(subset)
    if not s:
        raise ValueError("empty subgraph undefined")
    for v in s:
        if type(v) is not int:  # True and 2.0 hash and compare equal to vertices 1 and 2
            raise ValueError(f"vertex {v!r} is not an int")
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return sum(1 for u, v in g.edges if u in s and v in s)


# Characters of text split into lines at a time, and bytes of a graph file read
# at a time by the command line; a longer line grows the split.
_PARSE_BLOCK = 1 << 11


def _line_blocks(chunks: Iterable[str]):
    """The lines of the text `chunks` make up, as str.splitlines(keepends=True)
    splits it, one bounded list at a time.

    The last line of each split is carried into the next one, so a line (or a
    "\\r\\n" pair) cut at a chunk edge is split exactly as splitlines splits
    the whole text.  While the carried line is longer than the chunks read
    after it, they are joined to it before the next split, so a very long line
    is copied O(1) amortised times per character.
    """
    carry, pending, size = "", [], 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= len(carry):
            lines = (carry + "".join(pending)).splitlines(True)
            carry = lines.pop() if lines else ""
            pending, size = [], 0
            yield lines
            del lines  # so two blocks of lines are never held at once
    yield (carry + "".join(pending)).splitlines(True)


def _edge_blocks(chunks: Iterable[str]):
    """Yield the header's (n, m), then each block of lines' edges (u, v) as a list.

    Every line is checked as it is read, so a malformed line raises
    GraphFormatError with its line number once the blocks before it have been
    yielded; a missing header or an edge count other than m raises after the
    last line.  `ids` maps each in-range token already seen to its vertex, so
    a repeated token costs one lookup, and `vertices` maps a vertex to its one
    int object, so "2" and "002" share it.  Neither table is sized from the
    header.
    """
    m = None
    ids: dict[str, int] = {}
    vertices: dict[int, int] = {}
    lineno = found = 0
    for lines in _line_blocks(chunks):
        edges: list[tuple[int, int]] = []
        append = edges.append
        for line in lines:
            lineno += 1
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                if m is None:
                    raise GraphFormatError("header must be 'n m'", lineno)
                raise GraphFormatError("edge line must be 'u v'", lineno)
            a, b = parts
            u = ids.get(a)
            v = ids.get(b)
            if u is not None and v is not None:
                append((u, v))
                continue
            if m is None:
                try:
                    n, m = int(a), int(b)
                except ValueError:
                    raise GraphFormatError("non-integer token in header", lineno) from None
                if n < 0 or m < 0:
                    raise GraphFormatError("negative count in header", lineno)
                yield n, m
                continue
            try:
                u, v = int(a), int(b)
            except ValueError:
                raise GraphFormatError("non-integer token in edge line", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range (n={n})", lineno)
            u = ids[a] = vertices.setdefault(u, u)
            v = ids[b] = vertices.setdefault(v, v)
            append((u, v))
        del lines  # before the next block is split
        if edges:  # always empty before the header
            found += len(edges)
            yield edges
    if m is None:
        raise GraphFormatError("missing header line 'n m'")
    if found != m:
        raise GraphFormatError(f"header declares {m} edges, found {found}")


class EdgeStream(NamedTuple):
    """A graph in the text format as it is read: the header's n and m, and the edges.

    `edges` can be iterated once.  It yields each (u, v) in file order as its
    line is read and checked, and raises GraphFormatError at the first
    malformed line, or after the last one if the text holds other than m
    edges.  Only the current block of lines and the id tables are held.
    """

    n: int
    m: int
    edges: Iterator[tuple[int, int]]


def read_graph(chunks: Iterable[str]) -> EdgeStream:
    """Read the header from consecutive chunks of a graph's text; the edges follow
    as the returned stream is iterated."""
    blocks = _edge_blocks(chunks)
    n, m = next(blocks)
    edges = chain.from_iterable(blocks)
    if n == 0:
        # no edge line is in range, so the whole text is read now: a malformed
        # line fails here, before a game refuses the empty vertex set
        edges = iter(tuple(edges))
    return EdgeStream(n, m, edges)


def parse_graph(text: str | bytes | Iterable[str]) -> Multigraph:
    """Parse the text format: header line "n m", then m lines "u v".

    Lines starting with '#' are comments.  Vertex ids are 0-based, and any
    spelling int() reads is accepted.  Lines end as in str.splitlines.  The
    text may also be given as an iterable of its consecutive chunks; a str is
    read in _PARSE_BLOCK slices, so either way one edge reader builds the
    graph.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    chunks = text
    if isinstance(text, str):
        chunks = (text[i : i + _PARSE_BLOCK] for i in range(0, len(text), _PARSE_BLOCK))
    g = read_graph(chunks)
    # the reader has checked every edge as an exact (int, int) tuple in
    # 0..n-1 and n >= 0, so the graph is built without checking them again
    graph = object.__new__(Multigraph)
    object.__setattr__(graph, "n", g.n)
    object.__setattr__(graph, "edges", tuple(g.edges))
    return graph


def write_graph(g: Multigraph) -> str:
    """Emit the text format; parse_graph(write_graph(g)) reproduces g exactly."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
