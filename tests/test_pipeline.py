"""Staged decision procedure: bounds, kernel, bounded search."""

import random
from dataclasses import replace

import pytest
from hypothesis import given

import alphabound as ab
from alphabound import pipeline
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


@pytest.mark.parametrize("skip", [False, True])
def test_node_budget_below_one_is_refused(skip):
    # C9 at k = 1 answers at P2 without a search node, yet the budget is
    # checked first.
    with pytest.raises(ab.ParameterError, match="node_budget must be at least 1, got 0"):
        ab.decide(ab.cycle_graph(9), 1, skip_bound_steps=skip, node_budget=0)


def _seeded_graphs(count, seed):
    """``count`` seeded gnp graphs with n in 3..40 at densities 0.05..0.95."""
    rng = random.Random(seed)
    return [ab.gnp(rng.randint(3, 40), rng.uniform(0.05, 0.95), seed=i) for i in range(count)]


def test_decide_many_computes_bounds_once_per_graph(monkeypatch):
    calls = {"bounds_report": 0, "neighborhood_union_lower_bound": 0,
             "neighborhood_union_bound": 0}

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    corpus = _seeded_graphs(60, seed=3) + [ab.h_np(10, 4), ab.h_np(30, 12)]
    swept = 0
    for g in corpus:
        for name in calls:
            calls[name] = 0
        swept += len(ab.decide_many(g)) > 1
        assert calls["bounds_report"] == 1
        assert calls["neighborhood_union_lower_bound"] <= 1
        assert calls["neighborhood_union_bound"] <= 1
        # The graph keeps its bounds: a second sweep computes none of them.
        for name in calls:
            calls[name] = 0
        ab.decide_many(g)
        assert set(calls.values()) == {0}
    assert swept > 40


def test_decisions_equal_those_of_a_fresh_copy():
    hidden = 0
    rng = random.Random(11)
    for g in _seeded_graphs(150, seed=5) + [ab.h_np(10, 4), ab.cycle_graph(5), petersen()]:
        swept = ab.decide_many(g)
        fresh = [(k, ab.decide(ab.Graph(g.adjacency), k)) for k, _ in swept]
        assert swept == fresh
        # Visited from the largest k down, p2 is found early and kept on the
        # graph, yet each decision shows it only where a fresh call does:
        # past P1, where the screen rules p2 out, the report stays without it.
        h = ab.Graph(g.adjacency)
        backwards = [(k, ab.decide(h, k)) for k, _ in reversed(swept)]
        assert backwards[::-1] == fresh
        # Any order of k fills the memo slots in another order, to the same end.
        shuffled = ab.Graph(g.adjacency)
        order = [k for k, _ in swept]
        rng.shuffle(order)
        assert sorted((k, ab.decide(shuffled, k)) for k in order) == fresh
        hidden += sum(
            h._p2 is not None and d.resolved_at != "P1_BOUND" and d.bounds.p2 is None
            for _, d in fresh
        )
    assert hidden > 100


def test_verify_decision_does_not_trust_the_memo():
    c5 = ab.cycle_graph(5)
    assert ab.decide(c5, 1).resolved_at == "P2_BOUND"
    assert (c5._bounds.p1, c5._p2.p2) == (3, 2)
    c5._p2 = replace(c5._p2, p2=1)
    d = ab.decide(c5, 1)
    assert (d.resolved_at, d.certificate["value"]) == ("P2_BOUND", 1)
    assert not ab.verify_decision(c5, 1, d)
    c5._bounds = replace(c5._bounds, p1=2)
    d = ab.decide(c5, 1)
    assert (d.resolved_at, d.certificate["value"]) == ("P1_BOUND", 2)
    assert not ab.verify_decision(c5, 1, d)
    # A screen set too high skips p2, which bounds cannot make wrong: the
    # later stages still give an answer that the re-check accepts.
    c9 = ab.cycle_graph(9)
    c9._p2_lb = c9.n + 1
    d = ab.decide(c9, 1)
    assert d.resolved_at != "P2_BOUND" and ab.verify_decision(c9, 1, d)


def test_screen_never_hides_a_p2_answer():
    pairs = 0
    for g in _seeded_graphs(400, seed=9):
        rep = ab.bounds_report(g, with_p2=True)
        for k, swept in ab.decide_many(g):
            d = ab.decide(g, k)
            target = rep.p - k
            assert (d.resolved_at == "P2_BOUND") == (rep.p1 > target >= rep.p2)
            assert (swept.answer, swept.resolved_at, swept.certificate) == (
                d.answer, d.resolved_at, d.certificate,
            )
            pairs += 1
    assert pairs > 2_000


STAGES = ("P1_BOUND", "P2_BOUND", "KERNEL_TRIVIAL", "VC_SEARCH")
CERTIFICATE_TYPES = ("bound", "kernel_trivial", "search_exhausted", "independent_set")


def _five_outcome_corpus():
    """Small graphs whose decisions, with and without skipping the bound
    steps, reach all five (resolved_at, answer) outcomes."""
    corpus = [ab.cycle_graph(5), petersen(), ab.h_np(10, 4)]
    return corpus + er_corpus((8,), per_density=1, seed=11)


def _tampered(d):
    """(name, decision) for each single change to ``d`` that must not verify."""
    cert = d.certificate

    def recert(**fields):
        return replace(d, certificate={**cert, **fields})

    yield "answer MAYBE", replace(d, answer="MAYBE")
    yield "answer yes", replace(d, answer="yes")
    for bad in (None, [], "x"):
        yield f"certificate {bad!r}", replace(d, certificate=bad)
    for stage in STAGES:
        if stage != d.resolved_at:
            yield f"resolved_at {stage}", replace(d, resolved_at=stage)
    yield "resolved_at as a list", replace(d, resolved_at=[d.resolved_at])
    yield "resolved_at as a dict", replace(d, resolved_at={})
    yield "key added", recert(note=0)
    for key in cert:
        dropped = {f: v for f, v in cert.items() if f != key}
        yield f"{key} dropped", replace(d, certificate=dropped)
    for kind in CERTIFICATE_TYPES:
        if kind != cert["type"]:
            yield f"type {kind}", recert(type=kind)
    if "bound" in cert:
        yield "bound swapped", recert(bound={"p1": "p2", "p2": "p1"}[cert["bound"]])
    for key in ("value", "n0", "cover_budget", "nodes_explored", "size"):
        if key in cert:
            yield f"{key} -1", recert(**{key: cert[key] - 1})
            yield f"{key} +1", recert(**{key: cert[key] + 1})
    if "nodes_explored" in cert:
        for bad in (0, "1", True):
            yield f"nodes_explored {bad!r}", recert(nodes_explored=bad)
    if "vertices" in cert:
        vertices = cert["vertices"]
        yield "duplicate vertex", recert(vertices=vertices[:-1] + vertices[:1])
        yield "vertex as text", recert(vertices=vertices[:-1] + [str(vertices[-1])])
        yield "vertices in lists", recert(vertices=[[v] for v in vertices])


def test_verify_rejects_tampered_certificate():
    g = ab.h_np(10, 4)
    d = ab.decide(g, 1)
    bad = replace(d, certificate={**d.certificate, "vertices": [0, 1, 2, 3]})
    assert not ab.verify_decision(g, 1, bad)
    reached, tampered = set(), 0
    for g in _five_outcome_corpus():
        p = ab.nonedge_bound(g)
        refused_ks = (-1, (p - 1) // 2 + 1)  # k < 0, and the least k with p < 2k + 1
        for k in range((p - 1) // 2 + 1):
            for d in (ab.decide(g, k), ab.decide(g, k, skip_bound_steps=True)):
                assert ab.verify_decision(g, k, d)
                reached.add((d.resolved_at, d.answer))
                for bad_k in refused_ks:
                    assert not ab.verify_decision(g, bad_k, d), bad_k
                for name, bad in _tampered(d):
                    assert not ab.verify_decision(g, k, bad), (name, d)
                    tampered += 1
    assert len(reached) == 5
    assert tampered > 900


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
    reached = set()
    for g in _five_outcome_corpus():
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


def test_deep_search_answers_yes_at_the_root():
    # 1,000 disjoint K4 (p = 3,998) at k = 1,500: the kernel is the whole
    # graph with a cover budget of 1,501.  Its 6,000 edges exceed 1,501 x 3,
    # the most that many vertices of degree 3 can cover, so the search
    # closes at its root instead of branching 1,500 levels deep.
    g = disjoint_cliques(1000, 4)
    d = ab.decide(g, 1500, skip_bound_steps=True)
    assert (d.answer, d.resolved_at) == ("YES", "VC_SEARCH")
    assert d.certificate == {
        "type": "search_exhausted",
        "cover_budget": 1501,
        "nodes_explored": 1,
    }
    assert ab.verify_decision(g, 1500, d)
