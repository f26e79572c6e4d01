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
    """Per vertex u, sorted |N(u) ∪ N(v)| over every non-adjacent v != u."""
    nbrs = [set(g.neighbors(v)) for v in g.vertices()]
    return [
        sorted(len(nbrs[u] | nbrs[v]) for v in g.vertices() if v != u and v not in nbrs[u])
        for u in g.vertices()
    ]


def reference_union_bound(g: ab.Graph) -> int:
    """The neighbourhood-union bound p2 by its level-scan definition.

    The largest k such that at least k vertices v have k <= n - deg(v) and
    seq_v[k - 2] <= n - k, scanning k downward from n; 1 when no k >= 2
    holds, 0 for n = 0.
    """
    n = g.n
    if n == 0:
        return 0
    degs = g.degrees()
    seqs = reference_union_sequences(g)
    for k in range(n, 1, -1):
        count = 0
        for v in range(n):
            if k <= n - degs[v] and seqs[v][k - 2] <= n - k:
                count += 1
        if count >= k:
            return k
    return 1
