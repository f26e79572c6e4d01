"""Bounded-budget vertex-cover search."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import alphabound as ab
from alphabound.vertex_cover import _clique_partition
from helpers import (
    all_labeled_graphs,
    disjoint_cliques,
    er_corpus,
    graphs,
    petersen,
    reference_vertex_cover_decide,
)


def test_basic_outcomes():
    c5 = ab.cycle_graph(5)
    out = ab.vertex_cover_decide(c5, 3)
    assert out.covered and len(out.cover) <= 3 and c5.is_vertex_cover(out.cover)
    out = ab.vertex_cover_decide(c5, 2)
    assert not out.covered and out.cover is None
    assert ab.vertex_cover_decide(c5, -1) == ab.VcOutcome(False, None, 0)
    out = ab.vertex_cover_decide(ab.empty_graph(4), 0)
    assert out.covered and out.cover == ()


def test_deterministic():
    g = petersen()
    assert ab.vertex_cover_decide(g, 6) == ab.vertex_cover_decide(g, 6)


def test_cycles_need_half_the_vertices():
    for n in range(3, 12):
        need = (n + 1) // 2
        g = ab.cycle_graph(n)
        assert ab.vertex_cover_decide(g, need).covered
        assert not ab.vertex_cover_decide(g, need - 1).covered


def test_node_budget_enforced():
    # C9 has 9 edges and 4 vertices of degree 2 cover at most 8: the root
    # closes without branching, so one node fits the budget.
    assert ab.vertex_cover_decide(ab.cycle_graph(9), 4, node_budget=1) == ab.VcOutcome(
        False, None, 1
    )
    # Petersen at t = 5 (15 edges <= 5 x 3, clique excess 5 <= 5) branches
    # and explores 5 nodes.
    assert ab.vertex_cover_decide(petersen(), 5) == ab.VcOutcome(False, None, 5)
    with pytest.raises(ab.ResourceLimitError, match="exceeded 1 nodes"):
        ab.vertex_cover_decide(petersen(), 5, node_budget=1)


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_below_one_is_refused(budget):
    # Refused before any work, even where the answer needs no search node.
    message = f"node_budget must be at least 1, got {budget}"
    for t in (-1, 4):
        with pytest.raises(ab.ParameterError, match=message):
            ab.vertex_cover_decide(ab.cycle_graph(9), t, node_budget=budget)


# Covers found by the search before it became an explicit-stack loop with an
# edge-count bound, with the nodes it explored then: (n, prob, seed) of a
# ``gnp`` graph -> {t: (cover or None, nodes)}.  They pin the depth-first
# order (lowest-id ties, "take v" first); the bound may only lower the nodes.
FROZEN_COVERS = {
    (12, 0.3, 0): {5: (None, 5), 6: ((0, 3, 4, 6, 8, 9), 5), 8: ((0, 1, 5, 7, 8, 10, 11), 3)},
    (16, 0.25, 1): {
        8: (None, 7),
        9: ((2, 3, 5, 6, 9, 11, 12, 14, 15), 10),
        11: ((1, 2, 3, 6, 7, 8, 9, 11, 13, 14), 5),
    },
    (20, 0.2, 2): {11: (None, 11), 12: ((0, 4, 5, 6, 8, 9, 11, 15, 16, 17, 18, 19), 5)},
    (24, 0.3, 4): {
        14: (None, 11),
        15: ((3, 4, 5, 7, 9, 10, 11, 12, 14, 15, 18, 20, 21, 22, 23), 7),
    },
    (30, 0.2, 6): {
        18: (None, 37),
        19: ((0, 1, 3, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 17, 18, 19, 21, 23, 25), 10),
    },
    (30, 0.4, 7): {
        22: (None, 47),
        23: ((1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 14, 15, 16, 17, 18, 20, 21, 23, 24, 25,
              26, 27, 29), 18),
    },
}


# The nodes each FROZEN_COVERS search explores, pinned exactly: computed with
# the worklist search and clique-partition bound as they stood before their
# set-bit walks were inlined.  A rewrite of the per-node loop that changes the
# tree, and not only its speed, moves these counts.
FROZEN_NODES = {
    (12, 0.3, 0): {5: 3, 6: 3, 8: 3},
    (16, 0.25, 1): {8: 5, 9: 6, 11: 5},
    (20, 0.2, 2): {11: 9, 12: 5},
    (24, 0.3, 4): {14: 11, 15: 7},
    (30, 0.2, 6): {18: 17, 19: 10},
    (30, 0.4, 7): {22: 27, 23: 18},
}


@pytest.mark.parametrize("spec", sorted(FROZEN_COVERS))
def test_frozen_covers(spec):
    g = ab.gnp(*spec[:2], seed=spec[2])
    for t, (cover, nodes) in FROZEN_COVERS[spec].items():
        out = ab.vertex_cover_decide(g, t)
        assert (out.covered, out.cover) == (cover is not None, cover)
        assert out.nodes_explored <= nodes
        assert out.nodes_explored == FROZEN_NODES[spec][t]


def _same_search(g, t):
    out = ab.vertex_cover_decide(g, t)
    ref = reference_vertex_cover_decide(g, t)
    assert (out.covered, out.cover) == (ref.covered, ref.cover), (g.adjacency, t)
    assert out.nodes_explored <= ref.nodes_explored, (g.adjacency, t)
    return out


def test_matches_the_rescanning_search_on_every_small_graph():
    for n in range(6):
        for g in all_labeled_graphs(n):
            for t in range(-1, n + 1):
                _same_search(g, t)


def test_matches_the_rescanning_search_on_seeded_gnp():
    # Every t up to the smallest that covers, and two past it.
    densities = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
    specs = [(n, prob) for n in range(8, 41, 4) for prob in densities for _ in range(2)]
    for seed, (n, prob) in enumerate(specs):
        g = ab.gnp(n, prob, seed=seed)
        t = 0
        while not _same_search(g, t).covered:
            t += 1
        _same_search(g, t + 1)
        _same_search(g, t + 2)


def test_long_path_takes_its_odd_vertices_at_the_root():
    # Leaf reductions alone: each taken vertex lowers only its two neighbours.
    out = ab.vertex_cover_decide(ab.path_graph(3001), 1500)
    assert out == ab.VcOutcome(True, tuple(range(1, 3001, 2)), 1)


def _partition(g):
    return list(_clique_partition(g.adjacency, (1 << g.n) - 1))


def _excess(parts):
    return sum(part.bit_count() - 1 for part in parts)


def test_clique_partition_covers_the_active_set_with_cliques():
    rng = random.Random(3)
    for g in er_corpus((0, 1, 4, 8, 12, 16, 20), per_density=1, seed=5):
        for active in ((1 << g.n) - 1, rng.getrandbits(g.n)):
            parts = list(_clique_partition(g.adjacency, active))
            assert all(parts), "an empty part"
            union = 0
            for part in parts:
                assert not union & part, "parts overlap"
                union |= part
                for v in ab.iter_bits(part):
                    assert part & ~(1 << v) & ~g.adjacency[v] == 0, "not a clique"
            assert union == active
        assert _excess(_partition(g)) <= ab.exact_min_vc(g)[0]


def test_clique_partition_excess_values():
    for n in range(9):
        assert _excess(_partition(ab.complete_graph(n))) == max(n - 1, 0)
    quads = _partition(disjoint_cliques(5, 4))
    assert quads == [0b1111 << (4 * c) for c in range(5)]
    assert _excess(quads) == 15
    # Petersen is triangle-free: the parts are a perfect matching.
    assert _excess(_partition(petersen())) == 5


@given(graphs(max_n=8), st.integers(min_value=-1, max_value=9))
def test_agrees_with_exact_oracle(g, t):
    vc_size = ab.exact_min_vc(g)[0]
    out = ab.vertex_cover_decide(g, t)
    assert out.covered == (t >= 0 and vc_size <= t)
    if out.covered:
        assert len(out.cover) <= t
        assert g.is_vertex_cover(out.cover)
    if t >= 0:
        assert out.nodes_explored <= 2 ** (t + 1)
    else:
        assert out.nodes_explored == 0


def test_max_independent_set_at_least():
    pet = petersen()
    got = ab.max_independent_set_at_least(pet, 4)
    assert got is not None and len(got) >= 4 and pet.is_independent_set(got)
    assert ab.max_independent_set_at_least(pet, 5) is None
    trivial = ab.max_independent_set_at_least(pet, 0)
    assert trivial is not None and pet.is_independent_set(trivial)
    with pytest.raises(ValueError):
        ab.max_independent_set_at_least(pet, -1)
