"""Staged decision procedure: bounds, kernel, bounded search."""

import pytest
from hypothesis import given

import alphabound as ab
from helpers import disjoint_cliques, er_corpus, graphs, petersen


def test_clique_join_decision():
    g = ab.h_np(10, 4)
    d = ab.decide(g, 1)
    assert (d.answer, d.resolved_at) == ("NO", "VC_SEARCH")
    assert d.certificate == {
        "type": "independent_set",
        "vertices": [6, 7, 8, 9],
        "size": 4,
    }
    assert ab.verify_decision(g, 1, d)


def test_decide_many_clique_join():
    g = ab.h_np(10, 4)
    results = ab.decide_many(g)
    assert [(k, d.answer) for k, d in results] == [(0, "YES"), (1, "NO")]


def test_bound_stages_on_five_cycle():
    c5 = ab.cycle_graph(5)
    d0 = ab.decide(c5, 0)
    assert (d0.answer, d0.resolved_at) == ("YES", "P1_BOUND")
    assert d0.certificate == {"type": "bound", "bound": "p1", "value": 3}
    d1 = ab.decide(c5, 1)
    assert (d1.answer, d1.resolved_at) == ("YES", "P2_BOUND")
    assert d1.certificate == {"type": "bound", "bound": "p2", "value": 2}
    assert ab.verify_decision(c5, 0, d0) and ab.verify_decision(c5, 1, d1)


def test_kernel_trivial_stage():
    c5 = ab.cycle_graph(5)
    d = ab.decide(c5, 0, skip_bound_steps=True)
    assert (d.answer, d.resolved_at) == ("YES", "KERNEL_TRIVIAL")
    assert ab.verify_decision(c5, 0, d)


def test_search_exhausted_yes():
    pet = petersen()
    d = ab.decide(pet, 3, skip_bound_steps=True)
    assert (d.answer, d.resolved_at) == ("YES", "VC_SEARCH")
    assert d.certificate["type"] == "search_exhausted"
    assert d.certificate["cover_budget"] == 4
    assert d.certificate["nodes_explored"] >= 1
    assert ab.verify_decision(pet, 3, d)


def test_no_certificate_via_skip_path():
    g = ab.h_np(10, 4)
    d = ab.decide(g, 1, skip_bound_steps=True)
    assert d.answer == "NO"
    assert d.certificate["vertices"] == [6, 7, 8, 9]


def test_parameter_errors():
    with pytest.raises(ab.ParameterError):
        ab.decide(ab.cycle_graph(5), -1)
    with pytest.raises(ab.ParameterError):
        ab.decide(ab.complete_graph(9), 1)


def test_verify_rejects_tampered_certificate():
    g = ab.h_np(10, 4)
    d = ab.decide(g, 1)
    bad = ab.Decision(
        answer=d.answer,
        resolved_at=d.resolved_at,
        certificate={**d.certificate, "vertices": [0, 1, 2, 3]},
        bounds=d.bounds,
        kernel=d.kernel,
    )
    assert not ab.verify_decision(g, 1, bad)


@given(graphs(max_n=10))
def test_skipping_bounds_never_changes_the_answer(g):
    p = ab.nonedge_bound(g)
    for k in range((p - 1) // 2 + 1):
        a = ab.decide(g, k)
        b = ab.decide(g, k, skip_bound_steps=True)
        assert a.answer == b.answer
        assert ab.verify_decision(g, k, a)
        assert ab.verify_decision(g, k, b)


@given(graphs(max_n=10))
def test_decide_matches_oracle(g):
    if g.n == 0:
        return
    alpha, _ = ab.exact_alpha(g)
    p = ab.nonedge_bound(g)
    for k in range((p - 1) // 2 + 1):
        d = ab.decide(g, k)
        assert (d.answer == "YES") == (alpha <= p - k)


def test_decide_many_yes_prefix():
    g = ab.gnp(15, 0.3, seed=6)
    results = ab.decide_many(g)
    answers = [d.answer for _, d in results]
    if "NO" in answers:
        first = answers.index("NO")
        assert all(a == "NO" for a in answers[first:])


def test_decision_path_never_builds_the_complement(monkeypatch):
    def refuse(self):
        raise RuntimeError("complement built on the decision path")

    monkeypatch.setattr(ab.Graph, "complement", refuse)
    corpus = [ab.cycle_graph(5), petersen(), ab.h_np(10, 4)]
    corpus += er_corpus((8,), per_density=1, seed=11)
    reached = set()
    for g in corpus:
        alpha, _ = ab.exact_alpha(g)
        rep = ab.bounds_report(g, with_p2=True)
        assert alpha <= rep.p2 <= rep.p1 == rep.wp_complement <= rep.p
        for k, swept in ab.decide_many(g):
            for d in (swept, ab.decide(g, k), ab.decide(g, k, skip_bound_steps=True)):
                assert (d.answer == "YES") == (alpha <= rep.p - k)
                assert ab.verify_decision(g, k, d)
                reached.add((d.resolved_at, d.answer))
    assert reached == {
        ("P1_BOUND", "YES"),
        ("P2_BOUND", "YES"),
        ("KERNEL_TRIVIAL", "YES"),
        ("VC_SEARCH", "YES"),
        ("VC_SEARCH", "NO"),
    }


def test_deep_search_is_a_resource_limit_not_a_recursion_error():
    # 1,000 disjoint K4 (p = 3,998) at k = 1,500: the kernel is the whole
    # graph with a cover budget of 1,501, and each branching level of the
    # search is one frame, so it nests past the default limit of 1,000.
    g = disjoint_cliques(1000, 4)
    with pytest.raises(ab.ResourceLimitError, match="recursion limit"):
        ab.decide(g, 1500, skip_bound_steps=True)
