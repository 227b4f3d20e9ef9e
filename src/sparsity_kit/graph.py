"""Multigraph representation, sparsity parameters, and the text graph format.

Vertices are dense integer ids 0..n-1.  Edges are stored as an ordered list
of (u, v) pairs; loops (u == v) and parallel edges are allowed, and the edge
id is the list position.  Edge ids are stable: there is no deletion, and
subgraphs are expressed as id or vertex-id subsets.
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


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph with loops, on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in edges))
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


def parse_graph(text: str | bytes) -> Multigraph:
    """Parse the text format: header line "n m", then m lines "u v".

    Lines starting with '#' are comments.  Vertex ids are 0-based.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("header must be 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer token in header", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in header", lineno)
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer token in edge line", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex id out of range (n={n})", lineno)
        edges.append((u, v))
    if header is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != header[1]:
        raise GraphFormatError(f"header declares {header[1]} edges, found {len(edges)}")
    return Multigraph(n, edges)


def write_graph(g: Multigraph) -> str:
    """Emit the text format; parse_graph(write_graph(g)) reproduces g exactly."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
