"""Brute-force ground truth for small graphs.

Exact independence number and minimum vertex cover by branch and bound,
plus augmenting-set checks.  This module is the correctness instrument the
rest of the package is tested against; it refuses instances above a fixed
size cap (``DEFAULT_CAP`` vertices, 20 for enumeration) rather than
silently taking forever.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import InternalError, ResourceLimitError
from .graph import Graph, _mask_independent, iter_bits

__all__ = [
    "DEFAULT_CAP",
    "exact_alpha",
    "exact_min_vc",
    "alpha_by_enumeration",
    "is_augmenting_set",
    "has_augmenting_set_upto",
]

DEFAULT_CAP = 40
_ENUMERATION_CAP = 20


def exact_alpha(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact alpha(G) with a witness independent set, by branch and bound.

    Branches over the closed neighbourhood of a minimum-degree vertex in the
    candidate pool (every maximal independent set meets that neighbourhood);
    pool-isolated vertices are absorbed without branching.  Deterministic:
    ties break toward the lowest vertex id, so the witness is reproducible.
    """
    n = g.n
    if n > DEFAULT_CAP:
        raise ResourceLimitError(f"exact_alpha refuses n={n} > cap={DEFAULT_CAP}")
    if n == 0:
        return 0, ()
    rows = g.adjacency
    closed = [rows[v] | (1 << v) for v in range(n)]
    best_size = 0
    best_mask = 0

    def search(pool: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + pool.bit_count() <= best_size:
            return
        if pool == 0:
            best_size, best_mask = size, chosen
            return
        iso = 0
        min_v = -1
        min_deg = n + 1
        rest = pool
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            deg = (rows[v] & pool).bit_count()
            if deg == 0:
                iso |= low
            elif deg < min_deg:
                min_deg, min_v = deg, v
        if iso:
            search(pool & ~iso, chosen | iso, size + iso.bit_count())
            return
        # Partition by the first chosen candidate to keep branches disjoint.
        banned = 0
        cands = closed[min_v] & pool
        while cands:
            low = cands & -cands
            u = low.bit_length() - 1
            cands ^= low
            search(pool & ~closed[u] & ~banned, chosen | low, size + 1)
            banned |= low

    search((1 << n) - 1, 0, 0)
    witness = tuple(iter_bits(best_mask))
    if len(witness) != best_size or not g.is_independent_set(witness):
        raise InternalError("oracle produced a dependent or missized witness")
    return best_size, witness


def exact_min_vc(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover size with witness; the complement of exact_alpha's."""
    size, ind = exact_alpha(g)
    chosen = set(ind)
    cover = tuple(v for v in range(g.n) if v not in chosen)
    if not g.is_vertex_cover(cover):
        raise InternalError("oracle produced a non-covering witness")
    return g.n - size, cover


def alpha_by_enumeration(g: Graph) -> tuple[int, tuple[int, ...]]:
    """alpha(G) by checking all 2^n subsets.  The oracle's own cross-check."""
    n = g.n
    if n > _ENUMERATION_CAP:
        raise ResourceLimitError(
            f"alpha_by_enumeration refuses n={n} > cap={_ENUMERATION_CAP}"
        )
    rows = g.adjacency
    best_size, best_mask = 0, 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size > best_size and _mask_independent(rows, mask):
            best_size, best_mask = size, mask
    return best_size, tuple(iter_bits(best_mask))


def is_augmenting_set(g: Graph, i_set: Iterable[int], s_set: Iterable[int]) -> bool:
    """Whether (I \\ N(S)) ∪ S is independent and strictly larger than I.

    ``i_set`` must be independent (ValueError otherwise); ``s_set`` is any
    vertex set.
    """
    imask = g._as_mask(i_set)
    if not _mask_independent(g.adjacency, imask):
        raise ValueError("i_set is not independent")
    smask = g._as_mask(s_set)
    return _augments(g.adjacency, imask, smask)


def _augments(rows: tuple[int, ...], imask: int, smask: int) -> bool:
    nmask = 0
    for v in iter_bits(smask):
        nmask |= rows[v]
    result = (imask & ~nmask) | smask
    if result.bit_count() <= imask.bit_count():
        return False
    return _mask_independent(rows, result)


def has_augmenting_set_upto(g: Graph, i_set: Iterable[int], max_size: int) -> bool:
    """Exhaustively search S ⊆ V \\ I with 1 <= |S| <= max_size for an augmenting set.

    If I is a maximum independent set this is False for every max_size; if
    |I| < alpha(G) an augmenting set of size at most alpha(G) exists.
    """
    imask = g._as_mask(i_set)
    if not _mask_independent(g.adjacency, imask):
        raise ValueError("i_set is not independent")
    outside = [v for v in range(g.n) if not (imask >> v) & 1]
    for size in range(1, max_size + 1):
        if size > len(outside):
            break
        for combo in combinations(outside, size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            if _augments(g.adjacency, imask, smask):
                return True
    return False
