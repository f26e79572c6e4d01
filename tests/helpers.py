"""Shared builders, corpora and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

import alphabound as ab

DENSITIES = tuple(d / 10 for d in range(1, 10))


def graph_from_edge_mask(n: int, mask: int) -> ab.Graph:
    """Decode a graph from a bitmask over the C(n, 2) vertex pairs."""
    pairs = list(combinations(range(n), 2))
    return ab.Graph.from_edges(n, (pairs[i] for i in ab.iter_bits(mask)))


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, all 2^C(n, 2) of them."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield ab.Graph.from_edges(n, (pairs[i] for i in ab.iter_bits(mask)))


def reference_induced_rows(g: ab.Graph, kept) -> tuple[int, ...]:
    """Rows of ``g`` induced on the ascending ids ``kept``, one probe per pair."""
    return tuple(
        sum(1 << j for j, v in enumerate(kept) if (g.adjacency[u] >> v) & 1) for u in kept
    )


def petersen() -> ab.Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return ab.Graph.from_edges(10, edges)


def disjoint_cliques(count: int, size: int) -> ab.Graph:
    """``count`` disjoint copies of K_size, vertices numbered clique by clique."""
    return ab.Graph.from_edges(count * size, (
        (size * c + i, size * c + j)
        for c in range(count)
        for i, j in combinations(range(size), 2)
    ))


def er_graph(n: int, prob: float, rng: random.Random) -> ab.Graph:
    """One Erdős–Rényi draw from a shared stdlib Random stream."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < prob]
    return ab.Graph.from_edges(n, edges)


def er_corpus(ns, per_density: int, seed: int, densities=DENSITIES):
    """Seeded corpus: per_density graphs for each (n, density) pair."""
    rng = random.Random(seed)
    out = []
    for n in ns:
        for prob in densities:
            for _ in range(per_density):
                out.append(er_graph(n, prob, rng))
    return out


@st.composite
def graphs(draw, max_n: int = 10, min_n: int = 0) -> ab.Graph:
    """Arbitrary labeled graph with at most max_n vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << npairs) - 1)) if npairs else 0
    return graph_from_edge_mask(n, mask)


def reference_union_sequences(g: ab.Graph) -> list[list[int]]:
    """Per vertex u, sorted |N(u) ∪ N(v)| over every non-adjacent v != u.

    Only the vertices that have a non-neighbour get a neighbour set: each of
    their non-neighbours has one too, and every other sequence is empty.
    """
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices() if g.degrees[v] < g.n - 1}
    seqs: list[list[int]] = [[] for _ in g.vertices()]
    for u, nu in nbrs.items():
        seqs[u] = sorted(len(nu | nbrs[v]) for v in nbrs.keys() - nu - {u})
    return seqs


def reference_union_bound(g: ab.Graph, seqs=None) -> int:
    """The neighbourhood-union bound p2 by its level-scan definition.

    The largest k such that at least k vertices v have k <= n - deg(v) and
    seq_v[k - 2] <= n - k, scanning k downward from n; 1 when no k >= 2
    holds, 0 for n = 0.  ``seqs`` defaults to ``reference_union_sequences(g)``.
    """
    n = g.n
    if n == 0:
        return 0
    degs = g.degrees
    if seqs is None:
        seqs = reference_union_sequences(g)
    for k in range(n, 1, -1):
        count = 0
        for v in range(n):
            if k <= n - degs[v] and seqs[v][k - 2] <= n - k:
                count += 1
        if count >= k:
            return k
    return 1


def reference_union_lower_bound(g: ab.Graph) -> int:
    """The degree-only screen on p2 in its per-vertex form.

    Vertex v's reach is at least 1 + #{i : d_v + ds[i + d_v + 1] + i <= n - 2}
    over the ascending degree sequence ds, counted over every i < n - 1 - d_v;
    the screen is the h-index of those per-vertex bounds, 0 for n = 0.
    """
    n = g.n
    ds = sorted(g.degrees)
    reaches = sorted(
        (
            1 + sum(1 for i in range(n - 1 - d) if d + ds[i + d + 1] + i <= n - 2)
            for d in g.degrees
        ),
        reverse=True,
    )
    return max((min(h, r) for h, r in enumerate(reaches, 1)), default=0)


def reference_vertex_cover_decide(g: ab.Graph, t: int) -> ab.VcOutcome:
    """The cover search as it stood before worklist reductions and clique pruning.

    Each reduction rescans the whole active set; a node is closed only by
    the edge-count bound.  Same depth-first order (lowest-id ties, "take v"
    first), so it finds the same first cover in at least as many nodes.
    """
    if t < 0:
        return ab.VcOutcome(False, None, 0)
    rows = g.adjacency
    nodes = 0
    stack = [((1 << g.n) - 1, t, 0)]
    while stack:
        active, budget, cover = stack.pop()
        nodes += 1
        while True:
            best_v = -1
            best_deg = 0
            leaf = -1
            deg_sum = 0
            for v in ab.iter_bits(active):
                deg = (rows[v] & active).bit_count()
                if deg == 0:
                    active ^= 1 << v
                    continue
                deg_sum += deg
                if deg == 1 and leaf < 0:
                    leaf = v
                if deg > best_deg:
                    best_deg, best_v = deg, v
            if best_deg == 0 or budget <= 0:
                break
            if leaf >= 0:
                w = (rows[leaf] & active).bit_length() - 1
                cover |= 1 << w
                active &= ~((1 << w) | (1 << leaf))
                budget -= 1
            elif best_deg > budget:
                cover |= 1 << best_v
                active ^= 1 << best_v
                budget -= 1
            else:
                break
        if best_deg == 0:
            return ab.VcOutcome(True, tuple(ab.iter_bits(cover)), nodes)
        if deg_sum > 2 * budget * best_deg:
            continue
        nv = rows[best_v] & active
        stack.append((active & ~(nv | (1 << best_v)), budget - nv.bit_count(), cover | nv))
        stack.append((active & ~(1 << best_v), budget - 1, cover | (1 << best_v)))
    return ab.VcOutcome(False, None, nodes)
