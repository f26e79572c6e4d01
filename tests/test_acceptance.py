"""Acceptance gate: ten end-to-end checks, one test per criterion, and a
second scaling check beside AC10 on a host whose kernel is large.

Each test prints a single ``ACn PASS`` line with the measured statistics;
pytest -v shows one PASSED/FAILED row per criterion.  Corpora are seeded and
shared across criteria through module-level caches.
"""

import random
import time
from functools import lru_cache
from math import comb

import alphabound as ab
from helpers import DENSITIES, all_labeled_graphs, er_corpus, er_graph


@lru_cache(maxsize=None)
def _n6_graphs():
    return tuple(all_labeled_graphs(6))


@lru_cache(maxsize=None)
def _small_random_corpus():
    return tuple(er_corpus((7, 8, 9), per_density=56, seed=101))


@lru_cache(maxsize=None)
def _kernel_records():
    """1,000 seeded graphs with, per k, the kernel and its exact alpha."""
    rng = random.Random(202)
    records = []
    for i in range(1000):
        n = rng.randint(1, 30)
        g = er_graph(n, DENSITIES[i % len(DENSITIES)], rng)
        p = ab.nonedge_bound(g)
        alpha_g = ab.exact_alpha(g)[0]
        per_k = []
        for k in range((p - 1) // 2 + 1):
            kr = ab.kernelize(g, k)
            per_k.append((k, kr, ab.exact_alpha(kr.kernel)[0]))
        records.append((g, p, alpha_g, tuple(per_k)))
    return records


@lru_cache(maxsize=None)
def _decide_corpus():
    rng = random.Random(303)
    out = []
    for i in range(500):
        n = rng.randint(1, 25)
        out.append(er_graph(n, DENSITIES[i % len(DENSITIES)], rng))
    return tuple(out)


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_ac01_bound_chain_on_exhaustive_and_random_corpora():
    t0 = time.perf_counter()
    count = 0
    for g in _n6_graphs():
        alpha = ab.exact_alpha(g)[0]
        rep = ab.bounds_report(g, with_p2=True)
        assert alpha <= rep.p2 <= rep.p1 <= rep.p
        count += 1
    for g in _small_random_corpus():
        alpha = ab.exact_alpha(g)[0]
        rep = ab.bounds_report(g, with_p2=True)
        assert alpha <= rep.p2 <= rep.p1 <= rep.p
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 2 ** 15 + 3 * 9 * 56
    assert elapsed < 120.0
    print(f"AC1 PASS: alpha <= p2 <= p1 <= p held on {count} graphs ({elapsed:.1f}s)")


def test_ac02_degree_bound_equals_complement_welsh_powell():
    count = 0
    for g in _n6_graphs():
        assert ab.degree_sequence_bound(g) == ab.welsh_powell_chromatic_bound(g.complement())
        count += 1
    for g in _small_random_corpus():
        assert ab.degree_sequence_bound(g) == ab.welsh_powell_chromatic_bound(g.complement())
        count += 1
    print(f"AC2 PASS: degree bound == complement Welsh-Powell on {count} graphs")


def test_ac03_kernel_preserves_answers_within_size_bounds():
    t0 = time.perf_counter()
    pairs = 0
    for g, p, alpha_g, per_k in _kernel_records():
        for k, kr, alpha_k in per_k:
            assert (alpha_g <= p - k) == (alpha_k <= p - k)
            assert kr.n0 <= p + 2 * k + 1
            assert kr.n0 * (p - k) < p * (p + 1)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"AC3 PASS: kernel equivalence and size bounds on {pairs} (graph, k) pairs ({elapsed:.1f}s)")


def test_ac04_search_budget_at_most_3k_on_tight_kernels():
    hits = 0
    for g, p, alpha_g, per_k in _kernel_records():
        for k, kr, alpha_k in per_k:
            if alpha_k == p - k + 1:
                assert kr.budget_t == kr.n0 - (p - k + 1)
                assert kr.budget_t <= 3 * k
                hits += 1
    assert hits > 0
    print(f"AC4 PASS: cover budget <= 3k on {hits} tight (graph, k) pairs")


def test_ac05_scaled_size_bound_is_strict():
    checked = 0
    for g, p, alpha_g, per_k in _kernel_records():
        for k, kr, alpha_k in per_k:
            for c in (2, 3, 5):
                if p >= c * k:
                    assert kr.n0 < ab.kernel_size_bound_scaled(p, k, c)
                    checked += 1
    assert checked > 0
    print(f"AC5 PASS: n0 < scaled ceiling on {checked} (graph, k, c) triples")


def test_ac06_pipeline_matches_oracle_with_verified_certificates():
    t0 = time.perf_counter()
    decisions = 0
    for g in _decide_corpus():
        alpha = ab.exact_alpha(g)[0]
        p = ab.nonedge_bound(g)
        for k in range((p - 1) // 2 + 1):
            d = ab.decide(g, k)
            assert (d.answer == "YES") == (alpha <= p - k)
            assert ab.verify_decision(g, k, d)
            if d.answer == "NO":
                vs = d.certificate["vertices"]
                assert len(vs) == p - k + 1
                assert g.is_independent_set(vs)
            decisions += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"AC6 PASS: decide agreed with the oracle on {decisions} decisions ({elapsed:.1f}s)")


def test_ac07_clique_join_instances_are_tight_everywhere():
    checked = 0
    for n in range(3, 15):
        for p in range(2, n):
            g = ab.h_np(n, p)
            rep = ab.bounds_report(g, with_p2=True)
            assert ab.exact_alpha(g)[0] == rep.p2 == rep.p1 == rep.p == p
            checked += 1
    assert checked == 78
    print(f"AC7 PASS: alpha = p2 = p1 = p on {checked} clique-join instances")


def test_ac08_cover_search_agrees_with_oracle_within_node_bound():
    t0 = time.perf_counter()
    checked = 0
    for n in range(0, 7):
        pool = _n6_graphs() if n == 6 else all_labeled_graphs(n)
        for g in pool:
            vc = ab.exact_min_vc(g)[0]
            for t in range(n + 1):
                out = ab.vertex_cover_decide(g, t)
                assert out.covered == (vc <= t)
                if out.covered:
                    assert len(out.cover) <= t
                    assert g.is_vertex_cover(out.cover)
                assert out.nodes_explored <= 2 ** (t + 1)
                checked += 1
    elapsed = time.perf_counter() - t0
    print(f"AC8 PASS: cover search exact on {checked} (graph, t) pairs ({elapsed:.1f}s)")


def test_ac09_extremal_census_and_family_members():
    for p in (3, 4, 5):
        counts = ab.enumerate_k1_extremal(p)
        assert counts == {"k1_a": 1, "k1_b": comb(p + 1, 2)}
        assert ab.UNMATCHED not in counts

    members = 0
    for tag in ab.FAMILY_TAGS:
        k = int(tag[1])
        p = ab.MIN_P[k]
        for choice, seed in (
            ("lower", None),
            ("upper", None),
            ("random", 1),
            ("random", 2),
            ("random", 3),
        ):
            g = ab.generate_extremal(tag, p, choice, seed)
            analysis = ab.classify_extremal(g, p, k)
            assert analysis.family_tag != ab.UNMATCHED
            if choice == "lower":
                assert analysis.family_tag == tag
            alpha, witness = ab.exact_alpha(g)
            assert alpha == p - k + 1
            assert not ab.has_augmenting_set_upto(g, witness, analysis.rest_size)
            assert analysis.residual_nonedges <= ab.residual_nonedge_budget(p, k)
            lo, hi = ab.rest_size_range(p, k)
            assert lo <= analysis.rest_size <= hi
            if ab.is_self_kernel(g, p, k):
                floor = ab.residual_nonedge_floor(p, k, analysis.rest_size)
                assert analysis.residual_nonedges >= floor
            members += 1
    assert members == 13 * 5
    print(f"AC9 PASS: census counts match closed forms; {members} family members verified")


def test_ac10_kernelization_scales_near_linearly():
    g_small = ab.gnp(10_000, 0.5, seed=404)
    g_large = ab.gnp(20_000, 0.5, seed=404)
    t_small = _best_time(lambda: ab.kernelize(g_small, 3))
    t_large = _best_time(lambda: ab.kernelize(g_large, 3))
    assert t_small < 10.0
    # Doubling ratio is meaningful only above a 10 ms noise floor.
    floor = 0.010
    ratio = t_large / max(t_small, floor)
    assert ratio <= 5.0 or t_large <= floor
    print(
        f"AC10 PASS: kernelize n=10000 in {t_small * 1000:.1f} ms; "
        f"doubling ratio {ratio:.2f} <= 5.0"
    )


def _cycle_plus_hub(n):
    """C_(n-1) plus a hub joined to every (n // 10)-th cycle vertex."""
    c = n - 1
    edges = [(v, (v + 1) % c) for v in range(c)]
    edges += [(v, c) for v in range(0, c, n // 10)]
    return ab.Graph.from_edges(n, edges)


def test_ac10_kernel_build_scales_when_the_kernel_keeps_the_cycle():
    # Beside AC10, whose dense host keeps no vertex: here kernelize at k = 2
    # peels only the hub, so the induced build carries the whole cost.
    times = []
    for n in (2001, 4001, 8001):
        g = _cycle_plus_hub(n)
        assert ab.kernelize(g, 2).n0 == n - 1
        times.append(_best_time(lambda: ab.kernelize(g, 2)))
    floor = 0.010  # AC10's noise floor and ratio bound, per doubling
    for t_small, t_large in zip(times, times[1:]):
        ratio = t_large / max(t_small, floor)
        assert ratio <= 5.0 or t_large <= floor, times
    print("AC10 hub PASS: kernelize n=2001/4001/8001 in "
          + "/".join(f"{t * 1000:.1f}" for t in times) + " ms")
