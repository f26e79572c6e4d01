"""High-degree peeling: shrink "alpha(G) <= p - k?" to a bounded-size graph.

Let p be the counting bound of ``bounds.nonedge_bound``.  Any independent
set of size p - k + 1 consists of vertices with degree at most
n - (p - k + 1), so deleting every vertex of degree >= n - p + k (degrees
measured in the input graph, all deletions simultaneous) preserves the
answer exactly: alpha(G) <= p - k iff the peeled graph has no independent
set of size p - k + 1.

For p >= 2k + 1 the peeled graph has at most p + 2k + 1 vertices and,
strictly, fewer than p(p+1)/(p-k); the follow-up cover search therefore
needs budget at most n0 - (p - k + 1) <= 3k.  Below p = 2k + 1, or for a
k that is no integer >= 0, the routine refuses instead of answering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .bounds import nonedge_bound
from .errors import ParameterError
from .graph import Graph

__all__ = [
    "KernelResult",
    "kernelize",
    "kernel_size_bound",
    "kernel_size_bound_scaled",
]


@dataclass(frozen=True)
class KernelResult:
    """Outcome of peeling: the reduced graph plus the bookkeeping around it.

    ``mapping[new_id] = original_id`` for the kernel's vertices;
    ``removed`` lists the peeled original ids ascending.  ``budget_t`` is
    the vertex-cover budget n0 - (p - k + 1) for the follow-up search; it
    may be negative, in which case (as with ``trivially_yes``) the kernel
    is already too small to hold an independent set of size p - k + 1.
    """

    kernel: Graph
    removed: tuple[int, ...]
    mapping: tuple[int, ...]
    n0: int
    p: int
    k: int
    budget_t: int
    trivially_yes: bool


def _is_integer(k) -> bool:
    """The integer test on k; a plain int skips the slower ABC check."""
    return type(k) is int or isinstance(k, Integral)


def _headroom_ok(p: int, k) -> bool:
    """The one (p, k) gate of peeling, its bound and ``decide``: an integer
    k >= 0 with p >= 2k + 1."""
    return _is_integer(k) and 0 <= k and 2 * k + 1 <= p


def _require_headroom(p: int, k) -> None:
    """ParameterError, with the one message, where :func:`_headroom_ok` refuses."""
    if not _headroom_ok(p, k):
        raise ParameterError(
            f"peeling needs an integer k >= 0 and p >= 2k + 1, got p={p}, k={k}"
        )


def kernelize(g: Graph, k: int) -> KernelResult:
    """Peel every vertex of degree >= n - p + k in one simultaneous pass.

    Requires an integer k >= 0 and p >= 2k + 1 (ParameterError otherwise;
    the answer-preservation argument needs the headroom).  Work is one
    degree pass plus the induced subgraph build, which walks the set bits of
    each kept row: O(n + n0 + kept edges) bit steps.
    """
    p = nonedge_bound(g)
    _require_headroom(p, k)
    threshold = g.n - p + k
    keep, removed = [], []
    for v, d in enumerate(g.degrees):
        (keep if d < threshold else removed).append(v)
    kernel, mapping = g.induced_subgraph(keep)
    n0 = kernel.n
    return KernelResult(
        kernel=kernel,
        removed=tuple(removed),
        mapping=mapping,
        n0=n0,
        p=p,
        k=k,
        budget_t=n0 - (p - k + 1),
        trivially_yes=n0 <= p - k,
    )


def kernel_size_bound(p: int, k: int) -> int:
    """The guaranteed kernel-order ceiling p + 2k + 1, valid for p >= 2k + 1."""
    _require_headroom(p, k)
    return p + 2 * k + 1


def kernel_size_bound_scaled(p: int, k: int, c) -> Fraction:
    """Kernel-order ceiling p + c/(c-1) * (k+1) under the scaling p >= c*k, c > 1.

    ``c`` may be any rational (int, Fraction, or float taken at exact
    value); k must be an integer, as for every other (p, k) check.  Exact
    rational arithmetic; the caller decides how to round.
    """
    if not _is_integer(k):
        raise ParameterError(f"scaled bound needs an integer k, got k={k}")
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    c = Fraction(c)
    if c <= 1:
        raise ParameterError(f"scale must exceed 1, got {c}")
    if p < c * k:
        raise ParameterError(f"scaled bound needs p >= c*k, got p={p}, c={c}, k={k}")
    return Fraction(p) + c / (c - 1) * (k + 1)
