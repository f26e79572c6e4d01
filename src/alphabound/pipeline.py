"""The staged decision procedure for "alpha(G) <= p - k?".

Stages, cheapest first; the first conclusive stage answers:

1. compute the counting bound p and the degree-sequence bound p1;
2. p1 <= p - k            -> YES            (resolved_at P1_BOUND)
3. compute the neighbourhood-union bound p2;
4. p2 <= p - k            -> YES            (resolved_at P2_BOUND)
5. peel to the kernel; if it cannot hold p - k + 1 independent vertices
   the answer is YES      (resolved_at KERNEL_TRIVIAL); otherwise run the
   bounded cover search on the kernel: a found independent set of size
   p - k + 1 is a NO-certificate (mapped back to input ids), an exhausted
   search is a YES        (resolved_at VC_SEARCH, both cases).

Bounds can only ever produce YES; every NO carries a witness that is
re-checked against the input graph before the decision is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .bounds import (
    BoundsReport,
    bounds_report,
    degree_sequence_bound,
    neighborhood_union_bound,
    nonedge_bound,
)
from .errors import InternalError
from .kernel import KernelResult, _require_headroom, kernelize
from .vertex_cover import DEFAULT_NODE_BUDGET, vertex_cover_decide

__all__ = ["Decision", "decide", "decide_many", "verify_decision"]

YES = "YES"
NO = "NO"


@dataclass(frozen=True)
class Decision:
    """Answer plus provenance: which stage resolved it and on what evidence.

    ``certificate`` is a JSON-shaped dict.  Shapes by case:

    * bound YES:      {"type": "bound", "bound": "p1"|"p2", "value": int}
    * trivial kernel: {"type": "kernel_trivial", "n0": int}
    * exhausted search YES:
                      {"type": "search_exhausted", "cover_budget": int,
                       "nodes_explored": int}
    * NO:             {"type": "independent_set", "vertices": [int, ...],
                       "size": int}   (vertices in input ids, exactly
                       p - k + 1 of them, independent — re-verified)

    ``bounds.p2`` is None when stage 2 already answered or stages 2-4 were
    skipped.  ``kernel`` is None unless stage 5 ran.
    """

    answer: str
    resolved_at: str
    certificate: dict
    bounds: BoundsReport
    kernel: Optional[KernelResult]


def decide(
    g,
    k: int,
    skip_bound_steps: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Decision:
    """Decide alpha(G) <= p - k.  Requires k >= 0 and p >= 2k + 1.

    ``skip_bound_steps`` is a diagnostic switch that jumps straight to the
    kernel stage; it never changes the answer, only ``resolved_at``.
    """
    report = bounds_report(g)
    p, p1 = report.p, report.p1
    _require_headroom(p, k)
    target = p - k

    if not skip_bound_steps:
        if p1 <= target:
            return Decision(
                answer=YES,
                resolved_at="P1_BOUND",
                certificate={"type": "bound", "bound": "p1", "value": p1},
                bounds=report,
                kernel=None,
            )
        p2 = neighborhood_union_bound(g)
        if p2 > p1:
            raise InternalError(f"bound chain broken: p2={p2}, p1={p1}")
        report = replace(report, p2=p2)
        if p2 <= target:
            return Decision(
                answer=YES,
                resolved_at="P2_BOUND",
                certificate={"type": "bound", "bound": "p2", "value": p2},
                bounds=report,
                kernel=None,
            )

    kr = kernelize(g, k)
    if kr.trivially_yes:
        return Decision(
            answer=YES,
            resolved_at="KERNEL_TRIVIAL",
            certificate={"type": "kernel_trivial", "n0": kr.n0},
            bounds=report,
            kernel=kr,
        )
    # An independent set of size target + 1 in the kernel exists iff some
    # vertex cover fits the budget n0 - (target + 1) = budget_t.
    outcome = vertex_cover_decide(kr.kernel, kr.budget_t, node_budget)
    if not outcome.covered:
        return Decision(
            answer=YES,
            resolved_at="VC_SEARCH",
            certificate={
                "type": "search_exhausted",
                "cover_budget": kr.budget_t,
                "nodes_explored": outcome.nodes_explored,
            },
            bounds=report,
            kernel=kr,
        )
    in_cover = set(outcome.cover)
    kernel_ind = [v for v in range(kr.n0) if v not in in_cover]
    original = sorted(kr.mapping[v] for v in kernel_ind)[: target + 1]
    if len(original) != target + 1 or not g.is_independent_set(original):
        raise InternalError("kernel witness broke under mapping")
    return Decision(
        answer=NO,
        resolved_at="VC_SEARCH",
        certificate={
            "type": "independent_set",
            "vertices": list(original),
            "size": target + 1,
        },
        bounds=report,
        kernel=kr,
    )


def decide_many(g) -> list[tuple[int, Decision]]:
    """Run decide for every valid k (0..(p-1)//2) and check answer monotonicity.

    A YES at k asserts alpha <= p - k, which implies YES at every smaller k,
    so the answers must form a YES-prefix; that is checked before returning.
    Each search gets ``DEFAULT_NODE_BUDGET``; call :func:`decide` per k for
    another cap.
    """
    p = nonedge_bound(g)
    results: list[tuple[int, Decision]] = []
    for k in range((p - 1) // 2 + 1):
        results.append((k, decide(g, k)))
    seen_no = False
    for k, decision in results:
        if decision.answer == NO:
            seen_no = True
        elif seen_no:
            raise InternalError(f"non-monotone answers: YES at k={k} after a NO")
    return results


def verify_decision(g, k: int, decision: Decision) -> bool:
    """Re-check a decision's certificate against the input graph.

    NO-certificates are verified fully (independence, size, range).  Bound
    and trivial-kernel YES certificates are recomputed.  An exhausted-search
    YES is an attestation, not a checkable object; it verifies structurally
    (budget bookkeeping) only.
    """
    p = nonedge_bound(g)
    target = p - k
    cert = decision.certificate
    if decision.answer == NO:
        if cert.get("type") != "independent_set":
            return False
        vertices = cert.get("vertices", [])
        return (
            len(vertices) == len(set(vertices)) == target + 1
            and cert.get("size") == target + 1
            and all(0 <= v < g.n for v in vertices)
            and g.is_independent_set(vertices)
        )
    if decision.resolved_at == "P1_BOUND":
        return cert.get("value") == degree_sequence_bound(g) <= target
    if decision.resolved_at == "P2_BOUND":
        return cert.get("value") == neighborhood_union_bound(g) <= target
    if decision.resolved_at == "KERNEL_TRIVIAL":
        kr = kernelize(g, k)
        return kr.trivially_yes and cert.get("n0") == kr.n0
    if decision.resolved_at == "VC_SEARCH":
        kr = kernelize(g, k)
        return (
            cert.get("type") == "search_exhausted"
            and cert.get("cover_budget") == kr.budget_t
        )
    return False
