"""Upper bounds on the independence number, cheapest to sharpest.

Three bounds are computed, forming the chain

    alpha(G)  <=  p2  <=  p1  <=  p

* ``p``  — counting bound: an independent set of size q forces C(q, 2)
  distinct non-edges, so alpha is at most the largest q with
  q(q-1) <= n^2 - n - 2m.  Depends only on the order and size.
* ``p1`` — degree-sequence bound: the largest 1-based index i with
  d_i <= n - i over the ascending degree sequence.  Equal to the
  Welsh–Powell chromatic bound of the complement, which depends only on the
  complement's degrees n - 1 - d, so it is computed without building it.
* ``p2`` — neighbourhood-union bound: refines p1 by replacing plain degrees
  with the sizes of unions N(u) ∪ N(v) over non-adjacent pairs.

Everything is exact integer arithmetic; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InternalError
from .graph import Graph

__all__ = [
    "BoundsReport",
    "nonedge_bound",
    "degree_sequence_bound",
    "welsh_powell_chromatic_bound",
    "neighborhood_union_sequence",
    "neighborhood_union_bound",
    "bounds_report",
]


@dataclass(frozen=True)
class BoundsReport:
    """The three independence bounds plus the complement Welsh–Powell value.

    ``p2`` is None when the caller skipped the (quadratic-per-vertex)
    neighbourhood-union computation.  ``wp_complement`` always equals ``p1``;
    it is reported so the identity stays observable.
    """

    p: int
    p1: int
    p2: int | None
    wp_complement: int


def nonedge_bound(g: Graph) -> int:
    """Largest q with q(q-1) <= n^2 - n - 2m; alpha(G) <= q.  n=0 gives 0.

    Equivalent to floor(1/2 + sqrt(1/4 + n^2 - n - 2m)) but evaluated with
    integer arithmetic so boundary radicands cannot be lost to rounding.
    """
    n, m = g.n, g.m
    if n == 0:
        return 0
    twice_nonedges = n * n - n - 2 * m
    q = (1 + isqrt(1 + 4 * twice_nonedges)) // 2
    while q * (q - 1) > twice_nonedges:
        q -= 1
    while (q + 1) * q <= twice_nonedges:
        q += 1
    return q


def degree_sequence_bound(g: Graph) -> int:
    """Largest 1-based i with d_i <= n - i over the ascending degree sequence.

    Any independent set can be ordered by degree, and its i-th vertex has at
    least i - 1 non-neighbours inside the set, so d_i <= n - i must hold.
    n=0 gives 0; otherwise the result lies in 1..n.
    """
    n = g.n
    if n == 0:
        return 0
    ds = g.degree_sequence()
    # d_i is non-decreasing while n - i falls, so the predicate flips once.
    best = 0
    for i in range(1, n + 1):
        if ds[i - 1] > n - i:
            break
        best = i
    return best


def welsh_powell_chromatic_bound(g: Graph) -> int:
    """Chromatic upper bound max_i min(i, d_i + 1), degrees sorted descending."""
    return _welsh_powell(g.degrees())


def _welsh_powell(degrees: list[int]) -> int:
    desc = sorted(degrees, reverse=True)
    return max((min(i, d + 1) for i, d in enumerate(desc, 1)), default=0)


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
    vals = [
        (row | g.adjacency[v]).bit_count()
        for v in range(g.n)
        if v != u and not (row >> v) & 1
    ]
    vals.sort()
    return tuple(vals)


def neighborhood_union_bound(g: Graph) -> int:
    """Largest k such that at least k vertices v satisfy n_k(v) <= n - k.

    Here n_2(v) <= ... <= n_t(v), t = n - deg(v), is v's sorted
    neighbourhood-union sequence; a vertex only counts toward level k while
    k <= n - deg(v).  Levels are scanned downward from n, so the first hit
    is the maximum.  k = 1 is trivially satisfiable (one vertex is always an
    independent set), hence the bound is at least 1 for n >= 1; n=0 gives 0.
    """
    n = g.n
    if n == 0:
        return 0
    degs = g.degrees()
    seqs = [neighborhood_union_sequence(g, v) for v in range(n)]
    for k in range(n, 1, -1):
        count = 0
        for v in range(n):
            if k <= n - degs[v] and seqs[v][k - 2] <= n - k:
                count += 1
                if count >= k:
                    break
        if count >= k:
            return k
    return 1


def bounds_report(g: Graph, with_p2: bool = False) -> BoundsReport:
    """Compute the bounds, check the chain ordering, and return the report."""
    p = nonedge_bound(g)
    p1 = degree_sequence_bound(g)
    wp = _welsh_powell([g.n - 1 - d for d in g.degrees()])
    p2 = neighborhood_union_bound(g) if with_p2 else None
    if g.n > 0:
        if not 1 <= p1 <= p <= g.n:
            raise InternalError(f"bound chain broken: p1={p1}, p={p}, n={g.n}")
        if wp != p1:
            raise InternalError(f"complement Welsh–Powell {wp} != p1={p1}")
        if p2 is not None and not 1 <= p2 <= p1:
            raise InternalError(f"bound chain broken: p2={p2}, p1={p1}")
    return BoundsReport(p=p, p1=p1, p2=p2, wp_complement=wp)
