"""Exact solvers and augmenting-set checks used as ground truth elsewhere."""

import pytest
from hypothesis import given

import alphabound as ab
from helpers import graphs, petersen


def test_exact_alpha_values():
    assert ab.exact_alpha(ab.empty_graph(0)) == (0, ())
    assert ab.exact_alpha(ab.empty_graph(6))[0] == 6
    assert ab.exact_alpha(ab.complete_graph(5))[0] == 1
    assert ab.exact_alpha(ab.cycle_graph(5))[0] == 2
    assert ab.exact_alpha(ab.cycle_graph(6))[0] == 3
    assert ab.exact_alpha(petersen())[0] == 4
    assert ab.exact_alpha(ab.h_np(10, 4))[0] == 4


def test_exact_alpha_witness_and_determinism():
    g = petersen()
    size, witness = ab.exact_alpha(g)
    assert len(witness) == size
    assert list(witness) == sorted(witness)
    assert g.is_independent_set(witness)
    assert ab.exact_alpha(g) == ab.exact_alpha(g)


@given(graphs(max_n=5))
def test_exact_alpha_matches_enumeration(g):
    assert ab.exact_alpha(g)[0] == ab.alpha_by_enumeration(g)[0]


def test_size_caps():
    with pytest.raises(ab.ResourceLimitError):
        ab.exact_alpha(ab.empty_graph(41))
    with pytest.raises(ab.ResourceLimitError):
        ab.alpha_by_enumeration(ab.empty_graph(21))


def test_exact_min_vc():
    c5 = ab.cycle_graph(5)
    size, cover = ab.exact_min_vc(c5)
    assert size == 3 and c5.is_vertex_cover(cover)
    assert ab.exact_min_vc(ab.empty_graph(4)) == (0, ())
    assert ab.exact_min_vc(petersen())[0] == 6


@given(graphs(max_n=8))
def test_alpha_plus_vc_is_n(g):
    assert ab.exact_alpha(g)[0] + ab.exact_min_vc(g)[0] == g.n


def test_is_augmenting_set():
    c6 = ab.cycle_graph(6)
    assert ab.is_augmenting_set(c6, [0, 2], [4])
    assert not ab.is_augmenting_set(c6, [0, 2], [1])
    with pytest.raises(ValueError):
        ab.is_augmenting_set(c6, [0, 1], [3])


def test_has_augmenting_set_upto():
    c6 = ab.cycle_graph(6)
    assert ab.has_augmenting_set_upto(c6, [0, 2], 1)
    assert not ab.has_augmenting_set_upto(c6, [0, 3], 1)
    assert ab.has_augmenting_set_upto(c6, [0, 3], 2)
    with pytest.raises(ValueError, match="not independent"):
        ab.has_augmenting_set_upto(c6, [0, 1], 1)


@given(graphs(max_n=8))
def test_maximum_witness_never_augments(g):
    size, witness = ab.exact_alpha(g)
    assert not ab.has_augmenting_set_upto(g, witness, min(3, g.n))


@given(graphs(max_n=8))
def test_below_maximum_always_augments(g):
    alpha, _ = ab.exact_alpha(g)
    if alpha > 0:
        assert ab.has_augmenting_set_upto(g, [], alpha)
