"""Tight families: budgets, rest-size ranges, generation, classification."""

import os
import subprocess
import sys

import pytest

import alphabound as ab
from alphabound import extremal


def test_tag_table():
    assert ab.FAMILY_TAGS == (
        "k1_a", "k1_b",
        "k2_a", "k2_b", "k2_c1", "k2_c2",
        "k3_a", "k3_b", "k3_c1", "k3_c2", "k3_d1", "k3_d2", "k3_d3",
    )
    assert ab.MIN_P == {1: 3, 2: 8, 3: 15}
    # Every mandatory edge joins two distinct roles, at least one in the
    # rest r0..r{r-1}; the I-roles lie in i0..i2.
    for _, r, pattern in extremal._FAMILY_SHAPES.values():
        rest_roles = {f"r{j}" for j in range(r)}
        for a, b in pattern:
            assert a != b and rest_roles & {a, b}
            assert {a, b} <= rest_roles | {"i0", "i1", "i2"}


def test_residual_nonedge_budget_values():
    assert ab.residual_nonedge_budget(5, 1) == 4
    assert ab.residual_nonedge_budget(5, 2) == 8
    assert ab.residual_nonedge_budget(10, 3) == 26
    for p in range(3, 20):
        assert ab.residual_nonedge_budget(p, 1) == p - 1
    for p in range(8, 20):
        assert ab.residual_nonedge_budget(p, 2) == 2 * p - 2
    for p in range(15, 25):
        assert ab.residual_nonedge_budget(p, 3) == 3 * p - 4
    with pytest.raises(ab.ParameterError):
        ab.residual_nonedge_budget(3, 0)
    with pytest.raises(ab.ParameterError):
        ab.residual_nonedge_budget(1, 2)


def test_rest_size_range_thresholds():
    assert ab.rest_size_range(3, 1) == (0, 1)
    assert ab.rest_size_range(8, 2) == (0, 2)
    assert ab.rest_size_range(15, 3) == (0, 3)
    assert ab.rest_size_range(2, 1)[1] > 1
    assert ab.rest_size_range(7, 2)[1] > 2
    assert ab.rest_size_range(14, 3)[1] > 3


@pytest.mark.parametrize("p, k", [(1, 1), (3, 2), (2, 2), (5, 3)])
def test_rest_size_range_rejects_an_unbounded_scan(p, k):
    with pytest.raises(ab.ParameterError):
        ab.rest_size_range(p, k)


# Run under ``python -O``, which strips plain asserts: the scan at k = p,
# where every rest size fits the budget, must still stop.
UNBOUNDED_SCAN_SCRIPT = """
import sys
import alphabound as ab

if not sys.flags.optimize:
    raise SystemExit(10)
try:
    ab.rest_size_range(2, 2)
except ab.ParameterError:
    raise SystemExit(0)
raise SystemExit(11)
"""


def test_rest_size_range_stops_under_optimize():
    src_root = os.path.dirname(os.path.dirname(ab.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src_root + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNBOUNDED_SCAN_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_residual_floor_strictly_increases():
    for p, k in ((3, 1), (8, 2), (15, 3), (20, 3)):
        vals = [ab.residual_nonedge_floor(p, k, r) for r in range(p - k + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0


def test_retained_nonedge_count_growth():
    for p, k in ((3, 1), (5, 1), (8, 2), (10, 2), (15, 3), (30, 3)):
        vals = [r * (p - k) - r * (r - 1) // 2 for r in range(1, p - k + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_generate_lower_members():
    g = ab.generate_extremal("k1_a", 4)
    assert (g.n, g.m) == (4, 0)
    g = ab.generate_extremal("k1_b", 4)
    assert (g.n, g.m) == (5, 1)
    g = ab.generate_extremal("k2_c2", 8)
    assert (g.n, g.m) == (9, 2)
    assert g.degree_sequence() == (0, 0, 0, 0, 0, 1, 1, 1, 1)
    g = ab.generate_extremal("k3_d3", 15)
    assert (g.n, g.m) == (16, 3)


def test_generate_upper_members():
    star = ab.generate_extremal("k1_b", 4, "upper")
    assert (star.n, star.m) == (5, 4)
    g = ab.generate_extremal("k3_d1", 15, "upper")
    assert (g.n, g.m) == (16, 3 + 3 * 13)


def test_generate_random_is_seeded_and_sandwiched():
    a = ab.generate_extremal("k2_c1", 8, "random", seed=5)
    b = ab.generate_extremal("k2_c1", 8, "random", seed=5)
    c = ab.generate_extremal("k2_c1", 8, "random", seed=6)
    assert a == b and a.n == c.n
    lower = set(ab.generate_extremal("k2_c1", 8, "lower").edges())
    upper = set(ab.generate_extremal("k2_c1", 8, "upper").edges())
    assert lower <= set(a.edges()) <= upper


# One seeded random member per k.  A random member draws once per optional
# pair, in lexicographic order, so a seed names one member; these pins hold
# that order fixed.
RANDOM_MEMBER_PINS = [
    ("k1_b", 6, 11, [(0, 6), (1, 6), (4, 6)]),
    ("k2_c1", 10, 12, [(0, 9), (0, 10), (1, 9), (2, 10), (3, 9), (3, 10), (4, 9),
                       (7, 9), (7, 10), (8, 9), (9, 10)]),
    ("k3_d2", 17, 13, [(0, 15), (0, 16), (0, 17), (1, 17), (2, 16), (2, 17), (3, 15),
                       (3, 16), (4, 15), (4, 17), (5, 15), (5, 16), (6, 16), (6, 17),
                       (7, 15), (9, 17), (10, 16), (11, 16), (11, 17), (12, 15),
                       (12, 16), (12, 17), (15, 16), (15, 17)]),
]


@pytest.mark.parametrize("tag, p, seed, pin", RANDOM_MEMBER_PINS,
                         ids=[case[0] for case in RANDOM_MEMBER_PINS])
def test_random_members_are_pinned(tag, p, seed, pin):
    assert list(ab.generate_extremal(tag, p, "random", seed).edges()) == pin


def test_pattern_edge_inside_i_fails_the_sandwich(monkeypatch):
    # A mandatory edge inside I cannot be emitted, so the member misses it.
    shapes = dict(extremal._FAMILY_SHAPES, k1_b=(1, 1, (("i0", "r0"), ("i0", "i1"))))
    monkeypatch.setattr(extremal, "_FAMILY_SHAPES", shapes)
    with pytest.raises(ab.InternalError, match="k1_b member violates its sandwich"):
        ab.generate_extremal("k1_b", 4, "upper")


def test_generate_errors():
    with pytest.raises(ab.ParameterError):
        ab.generate_extremal("k9_z", 8)
    with pytest.raises(ab.ParameterError):
        ab.generate_extremal("k2_c1", 7)
    with pytest.raises(ab.ParameterError):
        ab.generate_extremal("k1_a", 3, "random")
    with pytest.raises(ab.ParameterError):
        ab.generate_extremal("k1_a", 3, "middle")


def test_classify_known_instances():
    a = ab.classify_extremal(ab.empty_graph(4), 4, 1)
    assert (a.family_tag, a.rest_size, a.residual_nonedges) == ("k1_a", 0, 0)

    g = ab.disjoint_union(ab.complete_graph(2), ab.empty_graph(3))
    b = ab.classify_extremal(g, 4, 1)
    assert (b.family_tag, b.rest_size, b.residual_nonedges) == ("k1_b", 1, 3)
    assert b.residual_nonedges == ab.residual_nonedge_budget(4, 1)

    g = ab.disjoint_union(ab.complete_graph(3), ab.empty_graph(6))
    c = ab.classify_extremal(g, 8, 2)
    assert (c.family_tag, c.rest_size, c.residual_nonedges) == ("k2_c1", 2, 12)


def test_classify_rejects_wrong_alpha():
    g = ab.disjoint_union(ab.complete_graph(3), ab.empty_graph(7))
    with pytest.raises(ValueError):
        ab.classify_extremal(g, 8, 2)


def test_classify_parameter_errors():
    with pytest.raises(ab.ParameterError):
        ab.classify_extremal(ab.empty_graph(4), 4, 4)
    with pytest.raises(ab.ParameterError):
        ab.classify_extremal(ab.empty_graph(7), 7, 2)


def test_classify_unmatched_when_rest_exceeds_range():
    g = ab.disjoint_union(
        ab.disjoint_union(ab.complete_graph(3), ab.complete_graph(2)),
        ab.empty_graph(5),
    )
    a = ab.classify_extremal(g, 8, 2)
    assert a.family_tag == ab.UNMATCHED
    assert a.rest_size == 3


def test_classify_distinguishes_the_three_rest3_families():
    for tag in ("k3_d1", "k3_d2", "k3_d3"):
        g = ab.generate_extremal(tag, 15, "lower")
        assert ab.classify_extremal(g, 15, 3).family_tag == tag


def test_identical_upper_members_take_the_first_tag():
    u1 = ab.generate_extremal("k2_c1", 8, "upper")
    u2 = ab.generate_extremal("k2_c2", 8, "upper")
    assert u1 == u2
    assert ab.classify_extremal(u1, 8, 2).family_tag == "k2_c1"


def test_is_self_kernel():
    g = ab.disjoint_union(ab.complete_graph(2), ab.empty_graph(3))
    assert ab.is_self_kernel(g, 4, 1)
    star = ab.generate_extremal("k1_b", 4, "upper")
    assert not ab.is_self_kernel(star, 4, 1)
    assert not ab.is_self_kernel(g, 5, 1)  # g's counting bound is 4
    for k in (2, 0.5):  # refused by the gate of kernelize
        with pytest.raises(ab.ParameterError, match="integer k >= 0"):
            ab.is_self_kernel(g, 4, k)


def test_census_smallest_case_and_errors():
    assert ab.enumerate_k1_extremal(3) == {"k1_a": 1, "k1_b": 6}
    with pytest.raises(ab.ParameterError):
        ab.enumerate_k1_extremal(2)
    with pytest.raises(ab.ParameterError):
        ab.enumerate_k1_extremal(6)
