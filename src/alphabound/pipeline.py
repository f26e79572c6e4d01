"""The staged decision procedure for "alpha(G) <= p - k?".

Stages, cheapest first; the first conclusive stage answers:

1. compute the counting bound p and the degree-sequence bound p1;
2. p1 <= p - k            -> YES            (resolved_at P1_BOUND)
3. compute the neighbourhood-union bound p2, unless the degree-only screen
   p2_lb <= p2 already exceeds p - k;
4. p2 <= p - k            -> YES            (resolved_at P2_BOUND)
5. peel to the kernel; if it cannot hold p - k + 1 independent vertices
   the answer is YES      (resolved_at KERNEL_TRIVIAL); otherwise run the
   bounded cover search on the kernel: a found independent set of size
   p - k + 1 is a NO-certificate (mapped back to input ids), an exhausted
   search is a YES        (resolved_at VC_SEARCH, both cases).

Bounds can only ever produce YES; every NO carries a witness that is
re-checked against the input graph before the decision is returned.

p, p1 and p2 are facts of the graph alone; only the target p - k depends on
k.  So ``decide`` keeps them on the graph object, in its private ``_bounds``
(the report without p2) and ``_p2`` slots, and a later call on the same
object reuses them.  Nothing else reads these slots: ``verify_decision``
re-derives each certificate from the graph alone and compares it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .bounds import (
    BoundsReport,
    bounds_report,
    degree_sequence_bound,
    neighborhood_union_bound,
    neighborhood_union_lower_bound,
    nonedge_bound,
)
from .errors import InternalError, ResourceLimitError
from .kernel import KernelResult, _headroom_ok, _require_headroom, kernelize
from .vertex_cover import DEFAULT_NODE_BUDGET, _require_node_budget, vertex_cover_decide

__all__ = ["Decision", "decide", "decide_many", "verify_decision"]

YES = "YES"
NO = "NO"
_BOUND_NAMES = {"P1_BOUND": "p1", "P2_BOUND": "p2"}


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

    :func:`verify_decision` accepts each shape only at its own stage, and every
    field only as the graph gives it afresh (``nodes_explored`` by replaying
    the deterministic search).

    ``bounds.p2`` is None when stage 2 already answered, when stages 2-4
    were skipped, or when the screen showed p2 > p - k without computing it,
    even if an earlier call on the same graph computed p2.  So a decision
    equals the one a fresh copy of the graph gives.  ``kernel`` is None
    unless stage 5 ran.
    """

    answer: str
    resolved_at: str
    certificate: dict
    bounds: BoundsReport
    kernel: Optional[KernelResult]


def _yes_certificate(stage: str, value: int, nodes: Optional[int] = None) -> dict:
    """The YES certificate of ``stage``: its bound, its n0 or its cover budget."""
    if stage in _BOUND_NAMES:
        return {"type": "bound", "bound": _BOUND_NAMES[stage], "value": value}
    if stage == "KERNEL_TRIVIAL":
        return {"type": "kernel_trivial", "n0": value}
    return {"type": "search_exhausted", "cover_budget": value, "nodes_explored": nodes}


def _no_certificate(vertices: list[int], size: int) -> dict:
    return {"type": "independent_set", "vertices": vertices, "size": size}


def decide(
    g,
    k: int,
    skip_bound_steps: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Decision:
    """Decide alpha(G) <= p - k.  Requires an integer k >= 0 and p >= 2k + 1.

    ``skip_bound_steps`` is a diagnostic switch that jumps straight to the
    kernel stage; it never changes the answer, only ``resolved_at``.
    The bounds report is computed on the first call on ``g`` and p2 the
    first time the screen lets it answer; both are kept on ``g`` for later
    calls.  ParameterError, before any work, when ``node_budget`` is below 1.
    """
    _require_node_budget(node_budget)
    if g._bounds is None:
        g._bounds = bounds_report(g)
    report = g._bounds
    p, p1 = report.p, report.p1
    _require_headroom(p, k)
    target = p - k

    def yes(stage, value, kernel=None, nodes=None):  # ``report`` as of the call
        return Decision(YES, stage, _yes_certificate(stage, value, nodes), report, kernel)

    if not skip_bound_steps:
        if p1 <= target:
            return yes("P1_BOUND", p1)
        if neighborhood_union_lower_bound(g) <= target:
            if g._p2 is None:
                p2 = neighborhood_union_bound(g)
                if p2 > p1:
                    raise InternalError(f"bound chain broken: p2={p2}, p1={p1}")
                g._p2 = p2
            report = replace(report, p2=g._p2)
            if g._p2 <= target:
                return yes("P2_BOUND", g._p2)

    kr = kernelize(g, k)
    if kr.trivially_yes:
        return yes("KERNEL_TRIVIAL", kr.n0, kr)
    # An independent set of size target + 1 in the kernel exists iff some
    # vertex cover fits the budget n0 - (target + 1) = budget_t.
    outcome = vertex_cover_decide(kr.kernel, kr.budget_t, node_budget)
    if not outcome.covered:
        return yes("VC_SEARCH", kr.budget_t, kr, outcome.nodes_explored)
    in_cover = set(outcome.cover)
    # Kernel ids and their mapping both ascend, so the witness is sorted.
    original = [u for v, u in enumerate(kr.mapping) if v not in in_cover][: target + 1]
    if len(original) != target + 1 or not g.is_independent_set(original):
        raise InternalError("kernel witness broke under mapping")
    return Decision(NO, "VC_SEARCH", _no_certificate(original, target + 1), report, kr)


def decide_many(g) -> list[tuple[int, Decision]]:
    """Run decide for every valid k (0..(p-1)//2) and check answer monotonicity.

    A YES at k asserts alpha <= p - k, which implies YES at every smaller k,
    so the answers must form a YES-prefix; that is checked before returning.
    Each search gets ``DEFAULT_NODE_BUDGET``; call :func:`decide` per k for
    another cap.  Each entry is ``decide(g, k)``, so ``g`` keeps its bounds
    across the sweep: they are computed once and p2 at most once per graph.
    """
    results = [(k, decide(g, k)) for k in range((nonedge_bound(g) - 1) // 2 + 1)]
    seen_no = False
    for k, decision in results:
        if decision.answer == NO:
            seen_no = True
        elif seen_no:
            raise InternalError(f"non-monotone answers: YES at k={k} after a NO")
    return results


def verify_decision(g, k: int, decision: Decision) -> bool:
    """Re-check a decision against the input graph, never its kept bounds.

    False, never ParameterError, where the gate of ``decide`` refuses k (as
    for 0.5, 1.0 or Fraction(1)) and for an answer other than YES or NO.  A
    YES certificate is re-derived for its stage and compared whole: p1 or p2
    (at most p - k), the n0 of a trivial kernel, or the cover budget of a
    non-trivial one, whose ``nodes_explored`` must be the count a replay of
    the search exhausts at.  A NO is accepted only at VC_SEARCH, with
    p - k + 1 distinct int vertices of g, independent in it.  A stage that
    is not a str, or a certificate that is not a dict, is False.
    """
    p = nonedge_bound(g)
    if (not _headroom_ok(p, k) or decision.answer not in (YES, NO)
            or not isinstance(decision.resolved_at, str)
            or not isinstance(decision.certificate, dict)):
        return False
    target = p - k
    stage, cert = decision.resolved_at, decision.certificate
    if decision.answer == NO:
        vertices = cert.get("vertices")
        return (stage == "VC_SEARCH" and isinstance(vertices, list)
                and cert == _no_certificate(vertices, target + 1)
                and all(type(v) is int and 0 <= v < g.n for v in vertices)
                and len(vertices) == len(set(vertices)) == target + 1
                and g.is_independent_set(vertices))
    if stage in _BOUND_NAMES:
        bound = degree_sequence_bound if stage == "P1_BOUND" else neighborhood_union_bound
        value = bound(g)
        return value <= target and cert == _yes_certificate(stage, value)
    kr = kernelize(g, k)
    if stage == "KERNEL_TRIVIAL":
        return kr.trivially_yes and cert == _yes_certificate(stage, kr.n0)
    nodes = cert.get("nodes_explored")
    if not (stage == "VC_SEARCH" and not kr.trivially_yes and type(nodes) is int
            and nodes >= 1 and cert == _yes_certificate(stage, kr.budget_t, nodes)):
        return False
    # The search is deterministic: replayed under the claimed count as its
    # cap, it must exhaust at exactly that count.  Over the cap means too low.
    try:
        outcome = vertex_cover_decide(kr.kernel, kr.budget_t, node_budget=nodes)
    except ResourceLimitError:
        return False
    return not outcome.covered and outcome.nodes_explored == nodes
