"""Independence-number bounds: counting, degree-sequence, neighborhood-union."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given

import alphabound as ab
from alphabound.bounds import _h_index
from helpers import (
    all_labeled_graphs,
    graphs,
    petersen,
    reference_union_bound,
    reference_union_lower_bound,
    reference_union_sequences,
)


def _union_bound_corpus():
    """Every 6-vertex graph, seeded gnp at densities 0..1, padded tight cores.

    The cores joined to K_300 and K_1000 are where the degree-only screen on
    p2 returns 1: each core vertex's degree exceeds half of n.
    """
    yield from all_labeled_graphs(6)
    for n in (*range(12), 20, 40, 80):
        for prob in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for seed in (1, 2):
                yield ab.gnp(n, prob, seed)
    for i, tag in enumerate(ab.FAMILY_TAGS):
        k = int(tag[1])
        core = ab.generate_extremal(tag, ab.MIN_P[k] + 2, "random", i)
        for c in (0, 1, 5, 40, 300, 1000):
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
    # nonedge_bound reads only n and m, so a stand-in reaches every (n, m).
    for n in range(1, 121):
        q = 1
        for m in range(n * (n - 1) // 2, -1, -1):  # the budget T rises by 2
            budget = n * n - n - 2 * m
            while (q + 1) * q <= budget:
                q += 1
            assert ab.nonedge_bound(SimpleNamespace(n=n, m=m)) == q, (n, m)
    # T = n^2 - n - 2m is even, so q(q - 1) - 2 is the largest T below the
    # boundary q(q - 1); n is q and q + 5.
    for q in (10**6, 10**12 + 7, 2**64, 10**40 + 3, 3 * 10**50 + 1):
        for n in (q, q + 5):
            m = (n * n - n - q * (q - 1)) // 2
            assert ab.nonedge_bound(SimpleNamespace(n=n, m=m)) == q
            assert ab.nonedge_bound(SimpleNamespace(n=n, m=m + 1)) == q - 1


def _linear_p1(g):
    """p1 by the definition's scan: the largest i with d_i <= n - i."""
    ds, best = g.degree_sequence(), 0
    for i in range(1, g.n + 1):
        if ds[i - 1] > g.n - i:
            break
        best = i
    return best


def test_degree_sequence_bound_matches_a_linear_scan():
    corpus = [g for n in range(7) for g in all_labeled_graphs(n)]
    corpus += [ab.gnp(n, prob, seed) for n in (7, 10, 20, 40, 80, 120)
               for prob in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0) for seed in (1, 2)]
    for g in corpus:
        assert ab.degree_sequence_bound(g) == _linear_p1(g), g


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


def test_h_index_stops_at_the_max_min():
    # Every tuple of length <= 5 over 0..7, in every order the sort must undo.
    for length in range(6):
        for values in product(range(8), repeat=length):
            desc = sorted(values, reverse=True)
            expected = max((min(i, v) for i, v in enumerate(desc, 1)), default=0)
            assert _h_index(list(values)) == expected


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


@pytest.fixture(scope="module")
def union_bound_references():
    """Each corpus graph with its reference union sequences and p2, computed once."""
    out = []
    for g in _union_bound_corpus():
        seqs = reference_union_sequences(g)
        out.append((g, seqs, reference_union_bound(g, seqs)))
    return out


def test_neighborhood_union_bound_and_sequences_are_exact(union_bound_references):
    checked = 0
    for g, expected, expected_p2 in union_bound_references:
        assert [list(ab.neighborhood_union_sequence(g, u)) for u in g.vertices()] == expected
        p2 = ab.neighborhood_union_bound(g)
        assert p2 == expected_p2
        screen = ab.neighborhood_union_lower_bound(g)
        assert screen <= p2
        assert screen == reference_union_lower_bound(g)
        if g.n > 300:
            assert screen == 1
        checked += 1
    assert checked > 32_768


def test_neighborhood_union_bound_is_exact_across_blocks(monkeypatch, union_bound_references):
    """A 3-row block puts block boundaries inside every graph with |W| > 3."""
    monkeypatch.setattr(ab.bounds, "_UNION_BLOCK", 3)
    checked = 0
    for g, _, expected_p2 in union_bound_references:
        assert ab.neighborhood_union_bound(g) == expected_p2
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
