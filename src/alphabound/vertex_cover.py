"""Bounded-depth vertex cover search.

Decides "does G have a vertex cover of size <= t?" with a classic two-way
search tree: after exhaustive reductions (drop isolated vertices, take the
neighbour of a degree-1 vertex, force any vertex of degree > t into the
cover), branch on a maximum-degree vertex v — either v joins the cover or
all of N(v) does.  The reductions run off a worklist: a node scans its
active set once for the degrees, the degree-1 vertices and the edge count,
and each vertex forced into the cover lowers only its neighbours' degrees.
A node is closed without branching when its active edges exceed budget x
maximum degree, since each cover vertex covers at most that many (Buss's
counting argument), or when a greedy partition of its active set into
cliques needs more than budget cover vertices, since a cover takes all but
one vertex of every clique.  So a node costs one scan plus the partition.
The tree explores at most 2^(t+1) nodes; degree-2 folding and other
witness-complicating reductions are deliberately left out, so a successful
search always carries a concrete cover.

The search is one loop over an explicit stack of open nodes, depth-first
and deterministic: scans run in increasing vertex id and ties break toward
the lowest id, with the "take v" branch tried before the "take N(v)"
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InternalError, ParameterError, ResourceLimitError
from .graph import Graph, iter_bits

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "VcOutcome",
    "vertex_cover_decide",
    "max_independent_set_at_least",
]

DEFAULT_NODE_BUDGET = 1_000_000


def _require_node_budget(node_budget: int) -> None:
    """A search always visits its root node, so a budget below 1 admits none."""
    if node_budget < 1:
        raise ParameterError(f"node_budget must be at least 1, got {node_budget}")


@dataclass(frozen=True)
class VcOutcome:
    """Result of a cover search: decision, witness (when covered), node count."""

    covered: bool
    cover: Optional[tuple[int, ...]]
    nodes_explored: int


def _clique_partition(rows: Sequence[int], active: int) -> Iterator[int]:
    """Split ``active`` greedily into cliques of the graph, yielding bitmasks.

    Each clique grows from the lowest-id vertex left.  Its candidates are
    the active vertices adjacent to every member, and it adds the candidate
    with the most neighbours among them (ties to the lowest id) until none
    is left.  A cover of the active graph takes all but one vertex of each
    clique, so the sum of ``|C| - 1`` over the parts is a lower bound on its
    size.
    """
    while active:
        part = active & -active
        cand = rows[part.bit_length() - 1] & active
        while cand:
            best, u = -1, -1
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                c = (rows[w] & cand).bit_count()
                if c > best:
                    best, u = c, w
            part |= 1 << u
            cand &= rows[u]
        active ^= part
        yield part


def vertex_cover_decide(
    g: Graph, t: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> VcOutcome:
    """Is there a vertex cover of size at most ``t``?

    ``t < 0`` is never coverable (covers have non-negative size, edgeless or
    not).  The search keeps its open nodes on an explicit stack, so its depth
    is limited by memory alone.  Each node scans its active set once for the
    degrees, the degree-1 vertices and the edge count; every vertex the
    reductions force into the cover then lowers only its neighbours'
    degrees.  A node is closed without branching when its active edges
    exceed ``budget * max_degree``, or when a greedy partition of its active
    set into cliques needs more than ``budget`` cover vertices (all but one
    of each clique).  A closed node holds no cover, so the cover found is
    the same as without these bounds and only ``nodes_explored`` falls.  A
    node costs one scan, its reductions and the partition.  Raises
    ResourceLimitError when the search tree exceeds ``node_budget`` nodes,
    and ParameterError when ``node_budget`` is below 1.  A returned cover is
    re-verified against every edge before the outcome is produced.
    """
    _require_node_budget(node_budget)
    if t < 0:
        return VcOutcome(False, None, 0)
    n, rows = g.n, g.adjacency
    nodes = 0
    stack = [((1 << n) - 1, t, 0)]  # open nodes: (active, budget, cover)
    while stack:
        active, budget, cover = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(
                f"vertex cover search exceeded {node_budget} nodes"
            )
        # deg[v] is v's degree among the active vertices (0 once v leaves,
        # so max and index give the lowest-id maximum), leaves the degree-1
        # vertices as a bitmask, deg_sum twice the active edges.
        deg = [0] * n
        leaves = 0
        deg_sum = 0
        # The bit walks here are inline: a generator frame per bit would
        # cost more than the step it yields.
        rest = active
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (rows[v] & active).bit_count()
            if d == 0:
                active ^= low  # isolated: irrelevant to any cover
                continue
            deg[v] = d
            deg_sum += d
            if d == 1:
                leaves |= low
        while deg_sum and budget > 0:
            if leaves:
                # Some optimum takes the neighbour of a degree-1 vertex.
                leaf = (leaves & -leaves).bit_length() - 1
                x = (rows[leaf] & active).bit_length() - 1
            else:
                best_deg = max(deg)
                if best_deg <= budget:
                    break
                # The lowest-id vertex of maximum degree has more neighbours
                # than budget: it must join the cover.
                x = deg.index(best_deg)
            bit = 1 << x
            cover |= bit
            active ^= bit
            leaves &= ~bit
            deg_sum -= 2 * deg[x]
            deg[x] = 0
            budget -= 1
            rest = rows[x] & active
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = deg[u] = deg[u] - 1
                if d == 0:  # u was a leaf of x; it leaves both masks
                    active ^= low
                    leaves ^= low
                elif d == 1:
                    leaves |= low
        if not deg_sum:  # edgeless; budget >= 0 throughout
            found = tuple(iter_bits(cover))
            if len(found) > t or not g.is_vertex_cover(found):
                raise InternalError(f"search result is not a vertex cover of size <= {t}")
            return VcOutcome(True, found, nodes)
        # At most ``budget`` cover vertices remain, each covering at most
        # best_deg of the deg_sum / 2 active edges (none when budget is 0).
        if budget == 0 or deg_sum > 2 * budget * best_deg:
            continue
        excess = 0
        for part in _clique_partition(rows, active):
            excess += part.bit_count() - 1
            if excess > budget:
                break
        if excess > budget:
            continue
        best_v = deg.index(best_deg)
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
