"""Bounded-depth vertex cover search.

Decides "does G have a vertex cover of size <= t?" with a classic two-way
search tree: after exhaustive reductions (drop isolated vertices, take the
neighbour of a degree-1 vertex, force any vertex of degree > t into the
cover), branch on a maximum-degree vertex v — either v joins the cover or
all of N(v) does.  The tree explores at most 2^(t+1) nodes; degree-2
folding and other witness-complicating reductions are deliberately left
out, so a successful search always carries a concrete cover.

The search is deterministic: scans run in increasing vertex id and ties
break toward the lowest id, with the "take v" branch tried before the
"take N(v)" branch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .errors import InternalError, ResourceLimitError
from .graph import Graph, iter_bits

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "VcOutcome",
    "vertex_cover_decide",
    "max_independent_set_at_least",
]

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class VcOutcome:
    """Result of a cover search: decision, witness (when covered), node count."""

    covered: bool
    cover: Optional[tuple[int, ...]]
    nodes_explored: int


def vertex_cover_decide(
    g: Graph, t: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> VcOutcome:
    """Is there a vertex cover of size at most ``t``?

    ``t < 0`` is never coverable (covers have non-negative size, edgeless or
    not).  Raises ResourceLimitError when the search tree exceeds
    ``node_budget`` nodes or nests deeper than the interpreter's recursion
    limit (one frame per branching level).  A returned cover is re-verified
    against every edge before the outcome is produced.
    """
    if t < 0:
        return VcOutcome(False, None, 0)
    n = g.n
    rows = g.adjacency
    nodes = 0

    def search(active: int, budget: int) -> Optional[int]:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"vertex cover search exceeded {node_budget} nodes"
            )
        cover = 0
        while True:
            best_v = -1
            best_deg = 0
            leaf = -1
            for v in iter_bits(active):
                deg = (rows[v] & active).bit_count()
                if deg == 0:
                    active ^= 1 << v  # isolated: irrelevant to any cover
                    continue
                if deg == 1 and leaf < 0:
                    leaf = v
                if deg > best_deg:
                    best_deg, best_v = deg, v
            if best_deg == 0:
                return cover  # edgeless; budget >= 0 throughout
            if budget <= 0:
                return None
            if leaf >= 0:
                # Some optimum takes the neighbour of a degree-1 vertex.
                w = (rows[leaf] & active).bit_length() - 1
                cover |= 1 << w
                active &= ~((1 << w) | (1 << leaf))
                budget -= 1
                continue
            if best_deg > budget:
                # v has more neighbours than budget: v must join the cover.
                cover |= 1 << best_v
                active ^= 1 << best_v
                budget -= 1
                continue
            break
        took_v = search(active & ~(1 << best_v), budget - 1)
        if took_v is not None:
            return cover | (1 << best_v) | took_v
        nv = rows[best_v] & active
        took_nv = search(active & ~(nv | (1 << best_v)), budget - nv.bit_count())
        if took_nv is not None:
            return cover | nv | took_nv
        return None

    try:
        result = search((1 << n) - 1, t)
    except RecursionError:
        raise ResourceLimitError(
            f"vertex cover search nested deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} frames (cover budget {t})"
        ) from None
    if result is None:
        return VcOutcome(False, None, nodes)
    cover = tuple(iter_bits(result))
    if len(cover) > t or not g.is_vertex_cover(cover):
        raise InternalError(f"search result is not a vertex cover of size <= {t}")
    return VcOutcome(True, cover, nodes)


def max_independent_set_at_least(
    g: Graph, s: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[tuple[int, ...]]:
    """An independent set of size >= s, or None if none exists.

    Complementation: an independent set of size s exists iff some vertex
    cover has size n - s.  The returned set (the complement of the found
    cover) may be larger than s and is re-verified before returning.
    """
    if s < 0:
        raise ValueError(f"target size must be non-negative, got {s}")
    outcome = vertex_cover_decide(g, g.n - s, node_budget)
    if not outcome.covered:
        return None
    in_cover = set(outcome.cover)
    ind = tuple(v for v in range(g.n) if v not in in_cover)
    if len(ind) < s or not g.is_independent_set(ind):
        raise InternalError(f"cover complement is not independent or smaller than {s}")
    return ind
