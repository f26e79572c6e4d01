"""High-degree peeling kernel and its size guarantees."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

import alphabound as ab
from helpers import graphs, reference_induced_rows


def test_clique_join_kernel():
    g = ab.h_np(10, 4)
    kr = ab.kernelize(g, 1)
    assert (kr.p, kr.k) == (4, 1)
    assert kr.removed == (0, 1, 2, 3, 4, 5)
    assert kr.mapping == (6, 7, 8, 9)
    assert kr.n0 == 4 and kr.kernel.m == 0
    assert kr.budget_t == 0
    assert not kr.trivially_yes


def test_parameter_errors():
    with pytest.raises(ab.ParameterError):
        ab.kernelize(ab.cycle_graph(5), -1)
    with pytest.raises(ab.ParameterError):
        ab.kernelize(ab.complete_graph(9), 1)
    with pytest.raises(ab.ParameterError):
        ab.kernel_size_bound(4, 2)
    with pytest.raises(ab.ParameterError):
        ab.kernel_size_bound_scaled(10, 3, 1)
    with pytest.raises(ab.ParameterError):
        ab.kernel_size_bound_scaled(5, 2, 3)
    with pytest.raises(ab.ParameterError, match="non-negative"):
        ab.kernel_size_bound_scaled(10, -1, 2)
    for k in (0.5, 1.0, Fraction(1)):
        with pytest.raises(ab.ParameterError, match="an integer k"):
            ab.kernel_size_bound_scaled(10, k, 2)
    scaled = ab.kernel_size_bound_scaled(10, np.int64(3), 2)
    assert scaled == Fraction(18) and isinstance(scaled, Fraction)


def test_size_bound_values():
    assert ab.kernel_size_bound(4, 1) == 7
    assert ab.kernel_size_bound(3, 1) == 6
    assert ab.kernel_size_bound_scaled(10, 3, 2) == Fraction(18)
    assert ab.kernel_size_bound_scaled(10, 3, 3) == Fraction(16)
    assert ab.kernel_size_bound_scaled(9, 3, 3) == Fraction(15)
    assert isinstance(ab.kernel_size_bound_scaled(10, 3, 2), Fraction)


def test_trivially_yes_iff_negative_budget():
    g = ab.gnp(40, 0.6, seed=2)
    kr = ab.kernelize(g, 1)
    assert kr.trivially_yes == (kr.budget_t < 0) == (kr.n0 <= kr.p - kr.k)


@given(graphs(max_n=12))
def test_kernel_invariants(g):
    p = ab.nonedge_bound(g)
    for k in range((p - 1) // 2 + 1):
        kr = ab.kernelize(g, k)
        assert kr.n0 <= ab.kernel_size_bound(p, k)
        assert kr.n0 * (p - k) < p * (p + 1)
        assert kr.trivially_yes == (kr.budget_t < 0)
        assert sorted(kr.mapping + kr.removed) == list(range(g.n))
        alpha_g = ab.exact_alpha(g)[0]
        alpha_k = ab.exact_alpha(kr.kernel)[0]
        assert (alpha_g <= p - k) == (alpha_k <= p - k)


def test_sparse_kernel_is_the_pair_probe_induce():
    # n0 = 676 of 10,000: the kernel keeps sparse rows of a large host.
    g = ab.gnp(10_000, 0.001, 1)
    kr = ab.kernelize(g, 0)
    assert kr.n0 == 676
    assert tuple(sorted(kr.mapping + kr.removed)) == tuple(range(g.n))
    assert kr.kernel.adjacency == reference_induced_rows(g, kr.mapping)
    threshold = g.n - kr.p + kr.k
    assert all(g.degrees[v] < threshold for v in kr.mapping)
    assert all(g.degrees[v] >= threshold for v in kr.removed)


def test_precondition_has_one_message():
    g = ab.h_np(10, 4)  # p = 4
    yes = ab.decide(g, 0)
    # k must be an integer: at k = 0.5 the target p - k = 3.5 is no size.
    for k in (-1, 2, 0.5, 1.0, Fraction(1)):
        messages = set()
        for call in (
            lambda: ab.decide(g, k),
            lambda: ab.kernelize(g, k),
            lambda: ab.kernel_size_bound(4, k),
        ):
            with pytest.raises(ab.ParameterError) as e:
                call()
            messages.add(str(e.value))
        assert messages == {
            f"peeling needs an integer k >= 0 and p >= 2k + 1, got p=4, k={k}"
        }
        assert not ab.verify_decision(g, k, yes)


def test_integral_k_of_any_type_is_accepted():
    g = ab.h_np(10, 4)  # p = 4
    for k in (np.int64(1), True):
        d = ab.decide(g, k)
        assert d == ab.decide(g, 1) and ab.verify_decision(g, k, d)
        assert ab.kernelize(g, k) == ab.kernelize(g, 1)
        assert ab.kernel_size_bound(4, k) == 7
