"""Bounded-depth vertex cover search.

Decides "does G have a vertex cover of size <= t?" with a classic two-way
search tree: after exhaustive reductions (drop isolated vertices, take the
neighbour of a degree-1 vertex, force any vertex of degree > t into the
cover), branch on a maximum-degree vertex v — either v joins the cover or
all of N(v) does.  A node is closed without branching when its active
edges exceed budget x maximum degree, since each cover vertex covers at
most that many (Buss's counting argument).  The tree explores at most
2^(t+1) nodes; degree-2 folding and other witness-complicating reductions
are deliberately left out, so a successful search always carries a
concrete cover.

The search is one loop over an explicit stack of open nodes, depth-first
and deterministic: scans run in increasing vertex id and ties break toward
the lowest id, with the "take v" branch tried before the "take N(v)"
branch.
"""

from __future__ import annotations

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
    not).  The search keeps its open nodes on an explicit stack, so its depth
    is limited by memory alone.  A node whose active edges exceed
    ``budget * max_degree`` is closed without branching; such a node holds no
    cover, so the cover found is the same as without the bound and only
    ``nodes_explored`` falls.  Raises ResourceLimitError when the search tree
    exceeds ``node_budget`` nodes.  A returned cover is re-verified against
    every edge before the outcome is produced.
    """
    if t < 0:
        return VcOutcome(False, None, 0)
    rows = g.adjacency
    nodes = 0
    stack = [((1 << g.n) - 1, t, 0)]  # open nodes: (active, budget, cover)
    while stack:
        active, budget, cover = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"vertex cover search exceeded {node_budget} nodes"
            )
        while True:
            best_v = -1
            best_deg = 0
            leaf = -1
            deg_sum = 0
            for v in iter_bits(active):
                deg = (rows[v] & active).bit_count()
                if deg == 0:
                    active ^= 1 << v  # isolated: irrelevant to any cover
                    continue
                deg_sum += deg
                if deg == 1 and leaf < 0:
                    leaf = v
                if deg > best_deg:
                    best_deg, best_v = deg, v
            if best_deg == 0 or budget <= 0:
                break
            if leaf >= 0:
                # Some optimum takes the neighbour of a degree-1 vertex.
                w = (rows[leaf] & active).bit_length() - 1
                cover |= 1 << w
                active &= ~((1 << w) | (1 << leaf))
                budget -= 1
            elif best_deg > budget:
                # v has more neighbours than budget: v must join the cover.
                cover |= 1 << best_v
                active ^= 1 << best_v
                budget -= 1
            else:
                break
        if best_deg == 0:  # edgeless; budget >= 0 throughout
            found = tuple(iter_bits(cover))
            if len(found) > t or not g.is_vertex_cover(found):
                raise InternalError(f"search result is not a vertex cover of size <= {t}")
            return VcOutcome(True, found, nodes)
        # At most ``budget`` cover vertices remain, each covering at most
        # best_deg of the deg_sum / 2 active edges.
        if deg_sum > 2 * budget * best_deg:
            continue
        nv = rows[best_v] & active
        stack.append((active & ~(nv | (1 << best_v)), budget - nv.bit_count(), cover | nv))
        stack.append((active & ~(1 << best_v), budget - 1, cover | (1 << best_v)))
    return VcOutcome(False, None, nodes)


def max_independent_set_at_least(g: Graph, s: int) -> Optional[tuple[int, ...]]:
    """An independent set of size >= s, or None if none exists.

    Complementation: an independent set of size s exists iff some vertex
    cover has size n - s.  The returned set (the complement of the found
    cover) may be larger than s and is re-verified before returning.  The
    search gets ``DEFAULT_NODE_BUDGET`` nodes.
    """
    if s < 0:
        raise ValueError(f"target size must be non-negative, got {s}")
    outcome = vertex_cover_decide(g, g.n - s)
    if not outcome.covered:
        return None
    in_cover = set(outcome.cover)
    ind = tuple(v for v in range(g.n) if v not in in_cover)
    if len(ind) < s or not g.is_independent_set(ind):
        raise InternalError(f"cover complement is not independent or smaller than {s}")
    return ind
