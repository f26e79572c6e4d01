"""Upper bounds on the independence number, cheapest to sharpest.

Three bounds are computed, forming the chain

    alpha(G)  <=  p2  <=  p1  <=  p

* ``p``  — counting bound: an independent set of size q forces C(q, 2)
  distinct non-edges, so alpha is at most the largest q with
  q(q-1) <= n^2 - n - 2m: p = floor(1/2 + sqrt(1/4 + n^2 - n - 2m)) for
  n >= 1, evaluated exactly in integers.  Depends only on the order and size.
* ``p1`` — degree-sequence bound: the largest 1-based index i with
  d_i <= n - i over the ascending degree sequence.  Equal to the
  Welsh–Powell chromatic bound of the complement, which depends only on the
  complement's degrees n - 1 - d, so it is computed without building it.
* ``p2`` — neighbourhood-union bound: refines p1 by replacing plain degrees
  with the sizes of unions N(u) ∪ N(v) over non-adjacent pairs: the
  Welsh–Powell max–min taken over each vertex's reach (the highest level it
  satisfies) instead of d + 1.  As |N(u) ∪ N(v)| = d_u + d_v - |N(u) ∩ N(v)|,
  one matrix product of common-neighbour counts and one sort per vertex give
  every reach.

The screen ``neighborhood_union_lower_bound`` gives p2_lb <= p2 from the
ascending degree sequence ds alone, so a caller can skip p2 whenever
p2_lb already exceeds the value it needs.  Vertex v excludes only itself and
its d_v neighbours, and |N(u) ∪ N(v)| <= d_u + d_v, so v's (i+1)-th smallest
union is at most d_v + ds[i + d_v + 1].  That bound on v's reach falls as d_v
rises, so level h >= 2 is reached by the h vertices of lowest degree exactly
when d + h <= n and d + ds[d + h - 1] + h <= n, where d = ds[h - 1]; the
condition is monotone in h, so one binary search finds p2_lb.

p, p1 and the screen are exact integer arithmetic.  p2 is computed in numpy
floating point, but only on integers of magnitude at most n + 1: float32
holds those exactly while n < 2^24, and float64 is used above that.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import InternalError
from .graph import Graph, _row_unpacker

_UNION_BLOCK = 512  # rows of W per block of the common-neighbour product

__all__ = [
    "BoundsReport",
    "nonedge_bound",
    "degree_sequence_bound",
    "welsh_powell_chromatic_bound",
    "neighborhood_union_sequence",
    "neighborhood_union_bound",
    "neighborhood_union_lower_bound",
    "bounds_report",
]


@dataclass(frozen=True)
class BoundsReport:
    """The three independence bounds plus the complement Welsh–Powell value.

    ``p2`` is None when the caller skipped the neighbourhood-union bound,
    which costs one |W| x |W| x n matrix product plus one sort per vertex of
    W, the vertices that have a non-neighbour.  ``wp_complement`` always
    equals ``p1``; it is reported so the identity stays observable.
    """

    p: int
    p1: int
    p2: int | None
    wp_complement: int


def nonedge_bound(g: Graph) -> int:
    """Largest q with q(q-1) <= n^2 - n - 2m; alpha(G) <= q.  n=0 gives 0.

    q qualifies iff 2q - 1 <= sqrt(D), D = 1 + 4(n^2 - n - 2m), that is iff
    2q - 1 <= isqrt(D), so q = (1 + isqrt(D)) // 2 with no rounding at all.
    """
    n, m = g.n, g.m
    return (1 + isqrt(1 + 4 * (n * n - n - 2 * m))) // 2 if n else 0


def degree_sequence_bound(g: Graph) -> int:
    """Largest 1-based i with d_i <= n - i over the ascending degree sequence.

    Any independent set can be ordered by degree, and its i-th vertex has at
    least i - 1 non-neighbours inside the set, so d_i <= n - i must hold.
    n=0 gives 0; otherwise the result lies in 1..n.
    """
    n, ds = g.n, g.degree_sequence()
    # d_i is non-decreasing while n - i falls, so the predicate flips once.
    return bisect_right(range(1, n + 1), False, key=lambda i: ds[i - 1] > n - i)


def welsh_powell_chromatic_bound(g: Graph) -> int:
    """Chromatic upper bound max_i min(i, d_i + 1), degrees sorted descending."""
    return _h_index([d + 1 for d in g.degrees])


def _h_index(values: list[int]) -> int:
    """max_i min(i, v_i), values sorted descending: largest i with i values >= i."""
    desc = sorted(values, reverse=True)
    return max((min(i, v) for i, v in enumerate(desc, 1)), default=0)


def neighborhood_union_sequence(g: Graph, u: int) -> tuple[int, ...]:
    """Sorted |N(u) ∪ N(v)| over all non-neighbours v != u of u.

    The result has length n - 1 - deg(u) and every value lies between
    deg(u) and n - 1 (neither u nor a non-adjacent v appears in the union).
    Conventionally indexed from 2: entry ``k`` of the bound's definition is
    ``seq[k - 2]``, defined for 2 <= k <= n - deg(u).
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    row = g.adjacency[u]
    # One scan of the binary digits of the non-neighbour row, lowest first.
    non_neighbours = bin(((1 << g.n) - 1) & ~row & ~(1 << u))[:1:-1]
    vals = [
        (row | g.adjacency[v]).bit_count()
        for v, bit in enumerate(non_neighbours)
        if bit == "1"
    ]
    vals.sort()
    return tuple(vals)


def neighborhood_union_bound(g: Graph) -> int:
    """Largest k such that at least k vertices v satisfy n_k(v) <= n - k.

    Here n_2(v) <= ... <= n_t(v), t = n - deg(v), is v's sorted
    neighbourhood-union sequence; level 1 holds for every vertex.  n_k(v) + k
    strictly increases with k, so v holds every level from 1 to its reach,
    and the bound is the max–min of the reaches (n=0 gives 0).

    Only the set W of vertices with a non-neighbour is unpacked: every
    non-neighbour of a vertex in W lies in W, and a vertex outside W reaches
    1.  Cost: one |W| x |W| x n matrix product, one sort per row of W, and
    O(_UNION_BLOCK x n) extra memory.
    """
    n = g.n
    w = [v for v, d in enumerate(g.degrees) if d < n - 1]
    size = len(w)
    unpack = _row_unpacker([g.adjacency[v] for v in w], n)
    # Every value below is an integer in -1..n + 1, exact in this dtype.
    dtype = np.float32 if n < 1 << 24 else np.float64
    deg = np.array([g.degrees[v] for v in w], dtype)
    # Level i + 2 holds iff the i-th smallest union is <= n - 2 - i.
    limit = n - 2 - np.arange(size, dtype=dtype)
    reaches = []
    for a in range(0, size, _UNION_BLOCK):
        b = min(a + _UNION_BLOCK, size)
        left = unpack(a, b)
        rows = left.astype(dtype)
        union = np.empty((b - a, size), dtype)
        for c in range(0, size, _UNION_BLOCK):
            d = min(c + _UNION_BLOCK, size)
            right = rows if c == a else unpack(c, d).astype(dtype)
            union[:, c:d] = rows @ right.T  # common neighbours
        # |N(u) ∪ N(v)| = (d_u - common) + d_v; both steps stay in 0..n.
        np.subtract(deg[a:b, None], union, out=union)
        union += deg
        # Push neighbours and v itself past every real union, to the row's end.
        np.putmask(union, left[:, w], n + 1)
        np.fill_diagonal(union[:, a:b], n + 1)
        union.sort(axis=1)
        reaches += (1 + np.count_nonzero(union <= limit, axis=1)).tolist()
    # The vertices outside W reach 1, which decides only when W is empty.
    return _h_index(reaches) or min(n, 1)


def neighborhood_union_lower_bound(g: Graph) -> int:
    """A lower bound on p2 from the degree sequence alone (n=0 gives 0).

    The largest h such that the h vertices of lowest degree each reach level
    h when every union |N(u) ∪ N(v)| is replaced by its upper bound
    d_u + d_v.  Costs one degree sort plus O(log n).
    """
    n = g.n
    if n == 0:
        return 0
    ds = g.degree_sequence()

    def fails(h: int) -> bool:
        d = ds[h - 1]
        return d + h > n or d + ds[d + h - 1] + h > n

    return 1 + bisect_right(range(2, n + 1), False, key=fails)


def bounds_report(g: Graph, with_p2: bool = False) -> BoundsReport:
    """Compute the bounds, check the chain ordering, and return the report."""
    p = nonedge_bound(g)
    p1 = degree_sequence_bound(g)
    wp = _h_index([g.n - d for d in g.degrees])  # complement degree + 1 = n - d
    p2 = neighborhood_union_bound(g) if with_p2 else None
    if g.n > 0:
        if not 1 <= p1 <= p <= g.n:
            raise InternalError(f"bound chain broken: p1={p1}, p={p}, n={g.n}")
        if wp != p1:
            raise InternalError(f"complement Welsh–Powell {wp} != p1={p1}")
        if p2 is not None and not 1 <= p2 <= p1:
            raise InternalError(f"bound chain broken: p2={p2}, p1={p1}")
    return BoundsReport(p=p, p1=p1, p2=p2, wp_complement=wp)
