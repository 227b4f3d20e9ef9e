"""Multigraph representation, sparsity parameters, and the text graph format.

Vertices are dense integer ids 0..n-1.  Edges are stored as an ordered tuple
of (u, v) pairs; loops (u == v) and parallel edges are allowed, and the edge
id is the tuple position.  Edge ids are stable: there is no deletion, and
subgraphs are expressed as id or vertex-id subsets.  `Multigraph` keeps an
edge given as an exact (int, int) tuple as it is and rebuilds any other with
int() on both endpoints.

The text format is a header line "n m", then m lines "u v"; lines whose first
token starts with '#' are comments.  `parse_graph` holds its input once: it
splits the text into lines a bounded block at a time, builds each edge tuple
once, and makes every distinct vertex id one shared int object.  A parsed
graph holds about 64 bytes per edge (the pair tuple and its slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


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


def _int_pair(edge) -> tuple[int, int]:
    """`edge` as a pair of plain ints; an exact (int, int) tuple is returned as is."""
    u, v = edge
    if type(edge) is tuple and type(u) is int and type(v) is int:
        return edge
    return (int(u), int(v))


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph with loops, on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(map(_int_pair, edges)))
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


def vertex_subset(n: int, subset: Iterable[int]) -> frozenset[int]:
    """`subset` as a set of vertices of an n-vertex graph; raises if empty or out of range."""
    s = frozenset(subset)
    if not s:
        raise ValueError("empty subgraph undefined")
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    return s


def induced_edge_count(g: Multigraph, subset: Iterable[int]) -> int:
    """Number of edges with both endpoints (for loops, the one endpoint) in `subset`."""
    s = vertex_subset(g.n, subset)
    return sum(1 for u, v in g.edges if u in s and v in s)


# Characters of text split into lines at a time; a longer line grows the block.
_PARSE_BLOCK = 1 << 11


def _line_blocks(text: str):
    """The lines of `text.splitlines(keepends=True)`, one bounded list at a time.

    The last line of a block is carried into the next one, so a line (or a
    "\\r\\n" pair) cut at a block edge is split exactly as splitlines splits
    the whole text.  A carried line at least a block long sets the next read's
    size, so a very long line is copied O(1) amortised times per character.
    """
    pos, end, carry = 0, len(text), ""
    while pos < end:
        size = max(_PARSE_BLOCK, len(carry))
        lines = (carry + text[pos : pos + size]).splitlines(True)
        pos += size
        carry = lines.pop() if pos < end else ""
        yield lines


def parse_graph(text: str | bytes) -> Multigraph:
    """Parse the text format: header line "n m", then m lines "u v".

    Lines starting with '#' are comments.  Vertex ids are 0-based, and any
    spelling int() reads is accepted.  Lines end as in str.splitlines.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    # the line blocks and id tables are freed before the edges are checked again
    return Multigraph(*_read_edges(text))


def _read_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of the text format, read a block of lines at a time.

    `ids` maps each in-range token already seen to its vertex, so a repeated
    token costs one lookup, and `vertices` maps a vertex to its one int object,
    so "2" and "002" share it.  Neither table is sized from the header.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    append = edges.append
    ids: dict[str, int] = {}
    vertices: dict[int, int] = {}
    lineno = 0
    for lines in _line_blocks(text):
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
    if m is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return n, edges


def write_graph(g: Multigraph) -> str:
    """Emit the text format; parse_graph(write_graph(g)) reproduces g exactly."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
