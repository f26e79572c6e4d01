"""Independence-number bounds: counting, degree-sequence, neighborhood-union."""

import pytest
from hypothesis import given

import alphabound as ab
from helpers import (
    all_labeled_graphs,
    graphs,
    petersen,
    reference_union_bound,
    reference_union_sequences,
)


def _union_bound_corpus():
    """Every 6-vertex graph, seeded gnp at densities 0..1, padded tight cores."""
    yield from all_labeled_graphs(6)
    for n in (*range(12), 20, 40, 80):
        for prob in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for seed in (1, 2):
                yield ab.gnp(n, prob, seed)
    for i, tag in enumerate(ab.FAMILY_TAGS):
        k = int(tag[1])
        core = ab.generate_extremal(tag, ab.MIN_P[k] + 2, "random", i)
        for c in (0, 1, 5, 40):
            yield ab.join(ab.complete_graph(c), core)


def test_nonedge_bound_values():
    assert ab.nonedge_bound(ab.empty_graph(0)) == 0
    assert ab.nonedge_bound(ab.empty_graph(1)) == 1
    assert ab.nonedge_bound(ab.empty_graph(6)) == 6
    assert ab.nonedge_bound(ab.complete_graph(5)) == 1
    assert ab.nonedge_bound(ab.cycle_graph(5)) == 3
    assert ab.nonedge_bound(petersen()) == 8
    assert ab.nonedge_bound(ab.h_np(10, 4)) == 4


def test_nonedge_bound_matches_definition_exhaustively():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            budget = n * n - n - 2 * g.m
            expect = max(q for q in range(1, n + 1) if q * (q - 1) <= budget)
            assert ab.nonedge_bound(g) == expect


def test_degree_sequence_bound_values():
    assert ab.degree_sequence_bound(ab.cycle_graph(5)) == 3
    assert ab.degree_sequence_bound(ab.complete_graph(5)) == 1
    assert ab.degree_sequence_bound(ab.empty_graph(6)) == 6
    assert ab.degree_sequence_bound(petersen()) == 7
    assert ab.degree_sequence_bound(ab.h_np(10, 4)) == 4


def test_welsh_powell_values():
    assert ab.welsh_powell_chromatic_bound(ab.complete_graph(4)) == 4
    assert ab.welsh_powell_chromatic_bound(ab.empty_graph(4)) == 1
    assert ab.welsh_powell_chromatic_bound(ab.cycle_graph(5)) == 3
    assert ab.welsh_powell_chromatic_bound(ab.empty_graph(0)) == 0


@given(graphs(max_n=10))
def test_degree_bound_equals_complement_welsh_powell(g):
    assert ab.degree_sequence_bound(g) == ab.welsh_powell_chromatic_bound(g.complement())


def test_neighborhood_union_sequence():
    c5 = ab.cycle_graph(5)
    assert ab.neighborhood_union_sequence(c5, 0) == (3, 3)
    assert ab.neighborhood_union_sequence(ab.complete_graph(4), 0) == ()
    with pytest.raises(ValueError):
        ab.neighborhood_union_sequence(c5, 5)


def test_neighborhood_union_bound_values():
    assert ab.neighborhood_union_bound(ab.cycle_graph(5)) == 2
    assert ab.neighborhood_union_bound(ab.empty_graph(6)) == 6
    assert ab.neighborhood_union_bound(ab.complete_graph(5)) == 1
    assert ab.neighborhood_union_bound(ab.h_np(10, 4)) == 4
    assert ab.neighborhood_union_bound(petersen()) == 5


def test_neighborhood_union_bound_and_sequences_are_exact():
    checked = 0
    for g in _union_bound_corpus():
        assert ab.neighborhood_union_bound(g) == reference_union_bound(g)
        expected = reference_union_sequences(g)
        assert [list(ab.neighborhood_union_sequence(g, u)) for u in g.vertices()] == expected
        checked += 1
    assert checked > 32_768


@given(graphs(max_n=9))
def test_bound_chain_against_oracle(g):
    if g.n == 0:
        assert ab.nonedge_bound(g) == 0
        return
    alpha, _ = ab.exact_alpha(g)
    rep = ab.bounds_report(g, with_p2=True)
    assert alpha <= rep.p2 <= rep.p1 <= rep.p <= g.n
    assert rep.wp_complement == rep.p1


def test_bounds_report_without_p2():
    rep = ab.bounds_report(ab.cycle_graph(5))
    assert rep.p2 is None
    assert (rep.p, rep.p1, rep.wp_complement) == (3, 3, 3)
