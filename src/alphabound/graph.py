"""Immutable bit-row graphs plus the generators used throughout the package.

A graph stores one Python int per vertex: bit ``j`` of ``adjacency[v]`` is
set iff ``v`` and ``j`` are adjacent.  Vertices are dense ids ``0..n-1``.
Int rows make the frequent operations cheap — degree is ``bit_count`` of a
row, a neighbourhood union is a bitwise or — and they are hashable, which
keeps graphs safely immutable.  Anything that "modifies" a graph returns a
new one, together with an id mapping when vertices are renumbered.

Rows are validated once, where they enter: ``Graph(rows)`` checks them all,
``from_edges`` checks each edge, and the file parsers in ``formats`` check
every edge they read.  Derived graphs and generators are symmetric by
construction and are built unchecked.  Degrees are counted once, where rows
enter, on both paths: the one ``bit_count`` per row that gives ``m`` is kept
as ``degrees``, and no later stage recounts a row.

A graph also carries three private memo slots: ``_bounds`` (its bounds
report without p2), ``_p2_lb`` (the degree-only screen on p2) and ``_p2``
(the bounds report with p2), all None until ``pipeline.decide``, their one
reader and writer, fills them.  They hold facts of the rows alone, so a
second decision on the same graph reuses them whatever its k.

``n = 0`` and ``n = 1`` are legal everywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "Graph",
    "iter_bits",
    "empty_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "join",
    "disjoint_union",
    "h_np",
    "gnp",
    "complement_edge_count",
]

_SYMMETRY_BLOCK = 4096
_GNP_TILE = 1024  # must stay a multiple of 8 so tile columns are byte aligned


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in increasing order.
    A negative mask, with infinitely many set bits, is a ValueError."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph over vertices ``0..n-1`` with bit-row adjacency.

    ``Graph(rows)`` validates the rows: symmetric, loop-free and confined
    to ``n`` bits.  ``degrees[v]`` is the popcount of row ``v``, counted
    once as the rows enter, and ``m`` is half their sum.  Instances are
    immutable by convention; all public fields are read-only data.
    """

    __slots__ = ("n", "m", "adjacency", "degrees", "_bounds", "_p2_lb", "_p2")

    def __init__(self, adjacency: Sequence[int]):
        rows = tuple(adjacency)
        n = len(rows)
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        if self._fill(rows) % 2:
            raise ValueError("adjacency is not symmetric (odd total popcount)")
        _check_symmetry(rows, n)

    @classmethod
    def _unchecked(cls, adjacency: Iterable[int]) -> "Graph":
        """Wrap rows that are symmetric and loop-free by construction."""
        g = cls.__new__(cls)
        g._fill(tuple(adjacency))
        return g

    def _fill(self, rows: tuple[int, ...]) -> int:
        """Set every field from ``rows``; returns the total popcount, 2m."""
        self.adjacency = rows
        self.n = len(rows)
        self.degrees = tuple([row.bit_count() for row in rows])
        total = sum(self.degrees)
        self.m = total // 2
        self._bounds = self._p2_lb = self._p2 = None
        return total

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` vertices from (u, v) pairs; duplicates collapse."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._unchecked(rows)

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self.degrees[v]

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted ascending (the orientation every bound here uses)."""
        return tuple(sorted(self.degrees))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge query ({u}, {v}) out of range")
        return bool((self.adjacency[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return tuple(iter_bits(self.adjacency[v]))

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adjacency):
            for v in iter_bits(row >> (u + 1)):
                yield (u, u + 1 + v)

    # -- derived graphs ------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._unchecked(
            full & ~row & ~(1 << v) for v, row in enumerate(self.adjacency)
        )

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induce on ``keep``; returns (graph, mapping) with mapping[new] = old.

        Kept vertices are renumbered in increasing old-id order.  Keeping
        every vertex returns ``self`` unchanged with the identity mapping.
        """
        kept = sorted(set(keep))
        if kept and not (0 <= kept[0] and kept[-1] < self.n):
            raise ValueError("induced_subgraph ids out of range")
        if len(kept) == self.n:
            return self, tuple(range(self.n))
        rows = []
        for u in kept:
            old = self.adjacency[u]
            row = 0
            for j, v in enumerate(kept):
                if (old >> v) & 1:
                    row |= 1 << j
            rows.append(row)
        return Graph._unchecked(rows), tuple(kept)

    # -- set predicates ------------------------------------------------

    def is_independent_set(self, vs: Iterable[int]) -> bool:
        return _mask_independent(self.adjacency, self._as_mask(vs))

    def is_vertex_cover(self, vs: Iterable[int]) -> bool:
        # A set covers every edge exactly when its complement is independent.
        return _mask_independent(self.adjacency, ((1 << self.n) - 1) ^ self._as_mask(vs))

    def _as_mask(self, vs: Iterable[int]) -> int:
        mask = 0
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        return mask

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _mask_independent(rows: Sequence[int], mask: int) -> bool:
    """Whether no two vertices of the bit set ``mask`` are adjacent in ``rows``."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if rows[low.bit_length() - 1] & mask:
            return False
    return True


def _row_unpacker(rows: Sequence[int], n: int) -> Callable[[int, int], np.ndarray]:
    """Pack ``rows`` once; the result unpacks rows ``a..b-1`` to a 0/1 uint8
    matrix of shape ``(b - a, n)`` whose column ``j`` holds bit ``j``."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(nbytes, "little") for row in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    return lambda a, b: np.unpackbits(packed[a:b], axis=1, count=n, bitorder="little")


def _check_symmetry(rows: tuple[int, ...], n: int) -> None:
    # Blockwise transpose comparison over the block pairs (a, c) with c >= a;
    # avoids holding the full n x n boolean matrix for large graphs.
    unpack = _row_unpacker(rows, n)
    for a in range(0, n, _SYMMETRY_BLOCK):
        b = min(a + _SYMMETRY_BLOCK, n)
        ra = unpack(a, b)
        for c in range(a, n, _SYMMETRY_BLOCK):
            d = min(c + _SYMMETRY_BLOCK, n)
            rc = ra if c == a else unpack(c, d)
            if not np.array_equal(ra[:, c:d], rc[:, a:b].T):
                raise ValueError("adjacency not symmetric")


# -- generators ----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    """n vertices, no edges."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph._unchecked([0] * n)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    full = (1 << n) - 1
    return Graph._unchecked(full & ~(1 << v) for v in range(n))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((v, v + 1) for v in range(n - 1)))


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides; ``a`` keeps ids 0..a.n-1."""
    amask = (1 << a.n) - 1
    bmask = ((1 << b.n) - 1) << a.n
    rows = [row | bmask for row in a.adjacency]
    rows += [(row << a.n) | amask for row in b.adjacency]
    return Graph._unchecked(rows)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    rows = list(a.adjacency)
    rows += [row << a.n for row in b.adjacency]
    return Graph._unchecked(rows)


def h_np(n: int, p: int) -> Graph:
    """Complete graph on ``n - p`` vertices joined to ``p`` isolated vertices.

    The family where every independence bound in this package is tight and
    equals ``p``.  The clique occupies ids ``0..n-p-1``, the independent part
    ids ``n-p..n-1``.  Requires ``n > p >= 2``.
    """
    if not (n > p >= 2):
        raise ParameterError(f"h_np needs n > p >= 2, got n={n}, p={p}")
    return join(complete_graph(n - p), empty_graph(p))


def gnp(n: int, prob: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, prob), deterministic for a fixed (n, prob, seed).

    Sampling is tiled so graphs with tens of thousands of vertices stay
    cheap: each square tile (a, c) of the upper triangle is drawn in one
    vectorised pass, cut to its strict upper triangle on the diagonal, and
    packed at (a, c) and, transposed, at (c, a); rows then become Python ints.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {prob}")
    rng = np.random.default_rng(seed)
    nbytes = (n + 7) // 8
    packed = np.zeros((n, nbytes), dtype=np.uint8)
    for a in range(0, n, _GNP_TILE):
        b = min(a + _GNP_TILE, n)
        for c in range(a, n, _GNP_TILE):
            d = min(c + _GNP_TILE, n)
            block = rng.random((b - a, d - c)) < prob
            if c == a:
                block = np.triu(block, 1)
            _pack_tile(packed, block, a, c)
            _pack_tile(packed, block.T, c, a)
    rows = [int.from_bytes(packed[i].tobytes(), "little") for i in range(n)]
    return Graph._unchecked(rows)


def _pack_tile(packed: np.ndarray, bits: np.ndarray, r0: int, c0: int) -> None:
    # c0 is a multiple of the tile width, hence byte aligned.  ORed in, so a
    # diagonal tile and its transpose share one place.  A transposed tile is
    # copied to C order first: packbits along its strided rows is 2-4x slower.
    chunk = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    packed[r0 : r0 + bits.shape[0], c0 // 8 : c0 // 8 + chunk.shape[1]] |= chunk


def complement_edge_count(g: Graph) -> int:
    """Number of non-edges of g: C(n, 2) - m."""
    return g.n * (g.n - 1) // 2 - g.m
