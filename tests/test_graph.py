"""Graph core: construction, validation, queries, generators."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alphabound as ab
from helpers import all_labeled_graphs, graphs, petersen, reference_induced_rows


def test_from_edges_basics():
    g = ab.Graph.from_edges(4, [(0, 1), (1, 2), (2, 1)])
    assert (g.n, g.m) == (4, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.degrees == (1, 2, 1, 0)
    assert g.degree_sequence() == (0, 1, 1, 2)
    assert list(g.vertices()) == [0, 1, 2, 3]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        ab.Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        ab.Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        ab.Graph.from_edges(-1, [])


def test_constructor_validates_rows():
    with pytest.raises(ValueError):
        ab.Graph([4, 0])  # bit outside the vertex range
    with pytest.raises(ValueError):
        ab.Graph([1])  # self-loop
    with pytest.raises(ValueError):
        ab.Graph([2, 0])  # odd total popcount
    with pytest.raises(ValueError):
        ab.Graph([2, 0, 2])  # asymmetric with even popcount


@pytest.mark.parametrize(
    "n, u, columns",
    [
        (3, 0, range(3)),
        (600, 599, range(600)),  # inside the single diagonal block
        (4100, 4099, range(4096)),  # off-diagonal block past row 4,096
        (4100, 7, range(4096, 4100)),  # its mirror, past column 4,096
        (8200, 5000, range(4096, 8192)),  # the diagonal pair of row block 2
    ],
)
def test_constructor_rejects_one_way_arcs(n, u, columns):
    g = ab.gnp(n, 0.01, seed=n)
    rows = list(g.adjacency)
    assert ab.Graph(rows) == g
    v, w = [c for c in columns if c != u and not (rows[u] >> c) & 1][:2]
    # Two one-way arcs: the fewest that keep the total popcount even.
    rows[u] |= (1 << v) | (1 << w)
    with pytest.raises(ValueError, match="adjacency not symmetric"):
        ab.Graph(rows)


def test_generators():
    assert (ab.empty_graph(5).n, ab.empty_graph(5).m) == (5, 0)
    k4 = ab.complete_graph(4)
    assert (k4.n, k4.m) == (4, 6)
    c6 = ab.cycle_graph(6)
    assert (c6.n, c6.m) == (6, 6)
    p4 = ab.path_graph(4)
    assert (p4.n, p4.m) == (4, 3)
    assert ab.path_graph(0).n == 0 and ab.path_graph(1).m == 0
    with pytest.raises(ValueError):
        ab.cycle_graph(2)
    for build in (ab.empty_graph, ab.complete_graph, ab.path_graph):
        with pytest.raises(ValueError, match="non-negative"):
            build(-1)


def test_join_and_disjoint_union():
    a, b = ab.complete_graph(2), ab.empty_graph(3)
    j = ab.join(a, b)
    assert (j.n, j.m) == (5, 7)
    assert j.has_edge(0, 1) and j.has_edge(0, 4) and not j.has_edge(2, 3)
    u = ab.disjoint_union(a, b)
    assert (u.n, u.m) == (5, 1)
    assert u.has_edge(0, 1) and not u.has_edge(1, 2)


def test_clique_join_instance_shape():
    g = ab.h_np(10, 4)
    assert (g.n, g.m) == (10, 39)
    assert g.degree_sequence() == (6, 6, 6, 6, 9, 9, 9, 9, 9, 9)
    with pytest.raises(ab.ParameterError):
        ab.h_np(4, 4)
    with pytest.raises(ab.ParameterError):
        ab.h_np(3, 1)


def test_complement():
    cc = ab.cycle_graph(5).complement()
    assert (cc.n, cc.m) == (5, 5)
    assert cc.has_edge(0, 2) and not cc.has_edge(0, 1)
    assert ab.complement_edge_count(ab.cycle_graph(5)) == 5


def test_induced_subgraph():
    g = petersen()
    sub, mapping = g.induced_subgraph([0, 1, 2, 5, 7])
    assert mapping == (0, 1, 2, 5, 7)
    assert sub.n == 5
    for i, u in enumerate(mapping):
        for j, v in enumerate(mapping):
            if i != j:
                assert sub.has_edge(i, j) == g.has_edge(u, v)
    same, ident = g.induced_subgraph(range(10))
    assert same is g and ident == tuple(range(10))
    dedup, dmap = g.induced_subgraph([1, 0, 0])
    assert dedup.n == 2 and dmap == (0, 1)
    with pytest.raises(ValueError):
        g.induced_subgraph([0, 99])


def _assert_induces_like_the_pair_probe(g, kept):
    sub, mapping = g.induced_subgraph(kept)
    assert mapping == tuple(kept)
    assert sub.adjacency == reference_induced_rows(g, kept)
    assert sub.degrees == tuple(row.bit_count() for row in sub.adjacency)


def test_induced_subgraph_matches_the_pair_probe_on_small_graphs():
    # Every labelled graph on at most 6 vertices.  Below 6 every vertex
    # subset is induced; at 6 (32,768 graphs, 2.1M subsets in all) each graph
    # takes four subsets, rotated so every subset meets 2,048 graphs.
    for n in range(7):
        subsets = [[v for v in range(n) if (bits >> v) & 1] for bits in range(1 << n)]
        for i, g in enumerate(all_labeled_graphs(n)):
            chosen = subsets if n < 6 else [subsets[(i + 16 * r) % 64] for r in range(4)]
            for kept in chosen:
                _assert_induces_like_the_pair_probe(g, kept)


@pytest.mark.parametrize(
    "n, prob, seed", [(60, 0.5, 1), (300, 0.05, 2), (1100, 0.3, 3), (2100, 0.01, 4)]
)
def test_induced_subgraph_matches_the_pair_probe_on_seeded_gnp(n, prob, seed):
    g = ab.gnp(n, prob, seed)
    rng = random.Random(seed)
    for share in (0.1, 0.5, 0.9):
        _assert_induces_like_the_pair_probe(g, sorted(rng.sample(range(n), int(n * share))))
    _assert_induces_like_the_pair_probe(g, list(range(n - 1)))


def test_numpy_ids_act_as_ints():
    # 1 << np.int64(64) is 0, so numpy ids must become ints before any shift.
    g = ab.complete_graph(100)
    for ids in ([64, 65], [3, 99], [70]):
        arr = np.array(ids, dtype=np.int64)
        assert g.is_independent_set(arr) == g.is_independent_set(ids) == (len(ids) == 1)
        cover = np.array([v for v in range(100) if v not in ids], dtype=np.int64)
        assert g.is_vertex_cover(cover) == g.is_vertex_cover(cover.tolist())
    sub, mapping = g.induced_subgraph(np.array([1, 5, 70, 99]))
    assert (sub, mapping) == g.induced_subgraph([1, 5, 70, 99])
    assert sub == ab.complete_graph(4) and all(type(v) is int for v in mapping)
    same, ident = g.induced_subgraph(np.arange(100))
    assert same is g and ident == tuple(range(100))
    for query in (lambda: g.is_independent_set([1.0]), lambda: g.induced_subgraph([2.5])):
        with pytest.raises(TypeError):
            query()


def test_set_predicates():
    c5 = ab.cycle_graph(5)
    assert c5.is_independent_set([0, 2])
    assert not c5.is_independent_set([0, 1])
    assert c5.is_vertex_cover([0, 2, 3])
    assert not c5.is_vertex_cover([0, 1])
    assert c5.is_independent_set([])
    assert not c5.is_vertex_cover([])
    assert ab.empty_graph(3).is_vertex_cover([])
    with pytest.raises(ValueError):
        c5.is_independent_set([9])
    with pytest.raises(ValueError):
        c5.is_vertex_cover([-1])
    for query in (lambda: c5.degree(5), lambda: c5.has_edge(0, 5),
                  lambda: c5.has_edge(-1, 0), lambda: c5.neighbors(-1)):
        with pytest.raises(ValueError, match="out of range"):
            query()


def test_set_predicates_exhaustively():
    # Every graph on at most 5 vertices and every vertex subset S: S covers
    # exactly when V - S is independent, and both match the edge list.
    for n in range(6):
        for g in all_labeled_graphs(n):
            edges = list(g.edges())
            for bits in range(1 << n):
                s = [v for v in range(n) if (bits >> v) & 1]
                rest = [v for v in range(n) if not (bits >> v) & 1]
                independent = not any((bits >> u) & 1 and (bits >> v) & 1 for u, v in edges)
                covers = all((bits >> u) & 1 or (bits >> v) & 1 for u, v in edges)
                assert g.is_independent_set(s) == independent
                assert g.is_vertex_cover(s) == covers == g.is_independent_set(rest)


@pytest.mark.parametrize(
    "n, prob, seed, digest",
    [
        (1030, 0.01, 9, "cd75e3b88a3590e7ee151d1fff75f2f06c23c78f09583ab58e87a4acc996c731"),
        (2100, 0.3, 4, "c3d23384f1020323d9ff0d05a3c5a878b76553080e0aab2e5c52475ccf6cfb4a"),
        (1, 0.5, 1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    ],
)
def test_gnp_output_is_pinned(n, prob, seed, digest):
    # sha256 of the rows, each as ceil(n/8) little-endian bytes.  The second
    # case spans a 3 x 3 grid of tiles.
    g = ab.gnp(n, prob, seed)
    nbytes = (n + 7) // 8
    rows = b"".join(row.to_bytes(nbytes, "little") for row in g.adjacency)
    assert hashlib.sha256(rows).hexdigest() == digest


def test_gnp_deterministic_and_extremes():
    a = ab.gnp(50, 0.4, seed=1)
    assert a == ab.gnp(50, 0.4, seed=1)
    assert a != ab.gnp(50, 0.4, seed=2)
    assert ab.gnp(30, 0.0, seed=3) == ab.empty_graph(30)
    assert ab.gnp(30, 1.0, seed=4) == ab.complete_graph(30)
    assert ab.gnp(0, 0.5, seed=5).n == 0
    with pytest.raises(ValueError):
        ab.gnp(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        ab.gnp(-1, 0.5, seed=0)


def test_gnp_across_tile_boundary():
    g = ab.gnp(1030, 0.01, seed=9)
    assert g.n == 1030
    assert sum(g.degrees) == 2 * g.m


def test_iter_bits():
    assert list(ab.iter_bits(0)) == []
    assert list(ab.iter_bits(0b101001)) == [0, 3, 5]
    with pytest.raises(ValueError, match="negative"):
        next(ab.iter_bits(-1))


def test_equality_and_hash():
    a = ab.Graph.from_edges(3, [(0, 1)])
    b = ab.Graph.from_edges(3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != ab.Graph.from_edges(3, [(0, 2)])
    assert a != "not a graph"


def assert_revalidates(h):
    """Built unchecked, ``h`` must pass the full ``Graph(rows)`` validation."""
    again = ab.Graph(h.adjacency)
    assert again == h and again.m == h.m
    assert again.degrees == h.degrees == tuple(row.bit_count() for row in h.adjacency)


@given(graphs(max_n=9))
def test_complement_involution(g):
    assert_revalidates(g)
    assert_revalidates(g.complement())
    assert g.complement().complement() == g
    assert g.m + g.complement().m == g.n * (g.n - 1) // 2


@given(graphs(max_n=9))
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.m
    assert ab.complement_edge_count(g) == g.n * (g.n - 1) // 2 - g.m


@given(graphs(max_n=9), st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_induced_subgraph_preserves_adjacency(g, bits):
    keep = [v for v in range(g.n) if (bits >> v) & 1]
    sub, mapping = g.induced_subgraph(keep)
    assert_revalidates(sub)
    assert sub.n == len(keep)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(mapping[i], mapping[j])


@given(
    graphs(max_n=7),
    graphs(max_n=7),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_unchecked_builders_pass_validation(a, b, n, prob, seed):
    assert_revalidates(ab.join(a, b))
    assert_revalidates(ab.disjoint_union(a, b))
    assert_revalidates(ab.gnp(n, prob, seed))
    assert_revalidates(ab.empty_graph(n))
    assert_revalidates(ab.complete_graph(n))
