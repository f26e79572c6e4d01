"""Tight instances: kernel-shaped graphs whose independence number is p - k + 1.

For k in {1, 2, 3} and p large enough (p >= 3, 8, 15 respectively) the
graphs that can survive the degree peeling *and* still hold p - k + 1
independent vertices fall into a short list of families.  Each family is a
sandwich described by the split into a maximum independent set I of size
p - k + 1 and the remaining "rest" vertices R (at most k of them):

* a small mandatory edge pattern touching I and R (the lower member), and
* every pair that meets R (the upper member): R a clique joined to all of I.

Any graph between the two (I kept independent) has independence number
exactly p - k + 1: the upper member pins it from below, the lower member
from above, and adding edges never increases it.  A seeded random member
draws once per optional pair, in lexicographic order.

Two counting facts drive the completeness of the list.  A host graph with
counting bound p has at most C(p+1, 2) - 1 non-edges, and the kernel
inherits a subset of them; after setting aside the C(p-k+1, 2) non-edges
inside I, the rest of the complement (edges of the complement meeting R)
must fit in ``residual_nonedge_budget(p, k)``.  On the other hand every
rest vertex of a kernel-shaped graph has complement degree at least p - k,
which forces at least ``residual_nonedge_floor(p, k, r)`` such non-edges.
Floor exceeds budget as soon as r > k (for p at or above the thresholds),
which is why ``rest_size_range`` tops out at exactly k there.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb

from .bounds import nonedge_bound
from .errors import InternalError, ParameterError
from .graph import Graph, complement_edge_count, iter_bits
from .kernel import kernelize
from .oracle import exact_alpha

__all__ = [
    "FAMILY_TAGS",
    "UNMATCHED",
    "MIN_P",
    "ExtremalAnalysis",
    "residual_nonedge_budget",
    "residual_nonedge_floor",
    "rest_size_range",
    "generate_extremal",
    "classify_extremal",
    "enumerate_k1_extremal",
    "is_self_kernel",
]

UNMATCHED = "UNMATCHED"

# Smallest p at which the family list below is complete for each k.  Below
# these values rest sets larger than k squeeze under the budget and the
# enumeration no longer applies.
MIN_P = {1: 3, 2: 8, 3: 15}

# Family shapes: tag -> (k, rest size, mandatory edges).  Mandatory edges
# name vertices by role: "i0".."i2" are members of the maximum independent
# set, "r0".."r2" are rest vertices.  Dict order is the tie-break order of
# the classifier (a graph matching several shapes gets the first).
_FAMILY_SHAPES: dict[str, tuple[int, int, tuple[tuple[str, str], ...]]] = {
    # k = 1: the empty kernel, or a single edge into I.
    "k1_a": (1, 0, ()),
    "k1_b": (1, 1, (("i0", "r0"),)),
    # k = 2: as above, or two rest vertices forming a triangle with a
    # common I-neighbour, or matched to two distinct I vertices.
    "k2_a": (2, 0, ()),
    "k2_b": (2, 1, (("i0", "r0"),)),
    "k2_c1": (2, 2, (("r0", "r1"), ("i0", "r0"), ("i0", "r1"))),
    "k2_c2": (2, 2, (("i0", "r0"), ("i1", "r1"))),
    # k = 3: the patterns above, plus three-vertex rests: a rest triangle
    # with a common I-neighbour (a K4), a rest edge with a common
    # I-neighbour plus a third rest vertex matched elsewhere (K3 + K2),
    # or a perfect matching of the rest into I (3 K2).
    "k3_a": (3, 0, ()),
    "k3_b": (3, 1, (("i0", "r0"),)),
    "k3_c1": (3, 2, (("r0", "r1"), ("i0", "r0"), ("i0", "r1"))),
    "k3_c2": (3, 2, (("i0", "r0"), ("i1", "r1"))),
    "k3_d1": (3, 3, (("r0", "r1"), ("r0", "r2"), ("r1", "r2"),
                     ("i0", "r0"), ("i0", "r1"), ("i0", "r2"))),
    "k3_d2": (3, 3, (("r0", "r1"), ("i0", "r0"), ("i0", "r1"),
                     ("i1", "r2"))),
    "k3_d3": (3, 3, (("i0", "r0"), ("i1", "r1"), ("i2", "r2"))),
}

FAMILY_TAGS = tuple(_FAMILY_SHAPES)

_EDGE_CHOICES = ("lower", "upper", "random")
_ORACLE_VERIFY_MAX_N = 20


@dataclass(frozen=True)
class ExtremalAnalysis:
    """Decomposition of a tight instance around a maximum independent set.

    ``residual_nonedges`` counts the complement edges not inside the
    independent set, i.e. C(n, 2) - m - C(|I|, 2).
    """

    independent_set: tuple[int, ...]
    rest: tuple[int, ...]
    rest_size: int
    residual_nonedges: int
    family_tag: str


def residual_nonedge_budget(p: int, k: int) -> int:
    """Most complement edges outside the independent-set block a tight
    kernel can carry: C(p+1, 2) - 1 - C(p-k+1, 2)."""
    if k < 1 or p < k:
        raise ParameterError(f"budget needs p >= k >= 1, got p={p}, k={k}")
    return comb(p + 1, 2) - 1 - comb(p - k + 1, 2)


def residual_nonedge_floor(p: int, k: int, r: int) -> int:
    """Fewest complement edges r rest vertices force in a kernel-shaped graph.

    Each rest vertex has complement degree >= p - k; summing and correcting
    for double counts inside the rest gives
    max(r(p-k) - C(r, 2), ceil(r(p-k) / 2)).
    """
    if r < 0:
        raise ParameterError(f"rest size must be non-negative, got {r}")
    s = r * (p - k)
    return max(s - comb(r, 2), -(-s // 2))


def rest_size_range(p: int, k: int) -> tuple[int, int]:
    """Feasible rest sizes (inclusive) for a tight kernel at (p, k).

    A rest of size r is feasible while its non-edge floor fits the budget.
    The floor is non-decreasing in r over the feasible range, so the range
    is an interval [0, r_max]; at p >= MIN_P[k] it is exactly [0, k].
    Raises ParameterError when a rest of more than p vertices fits the budget.
    """
    budget = residual_nonedge_budget(p, k)
    r = 0
    while residual_nonedge_floor(p, k, r + 1) <= budget:
        r += 1
        if r > p:
            raise ParameterError(
                f"rest size scan passed p at p={p}, k={k}: the budget bounds nothing"
            )
    if p >= MIN_P.get(k, p + 1) and r != k:
        raise InternalError(f"feasible rest sizes [0, {r}] != [0, k] at p={p}, k={k}")
    return (0, r)


def generate_extremal(
    tag: str,
    p: int,
    edge_choice: str = "lower",
    seed: int | None = None,
) -> Graph:
    """Build a member of a tight family at parameter p.

    Layout: vertices 0 .. p-k are the independent set I, the rest follow.
    ``edge_choice`` picks the lower member (mandatory edges only), the
    upper member (every pair that meets the rest), or a seeded random
    member in between, which draws once per optional pair in lexicographic
    order.  Every member has independence number exactly p - k + 1; for
    small instances that is re-checked against the exact solver.
    """
    if tag not in _FAMILY_SHAPES:
        raise ParameterError(f"unknown family tag {tag!r}")
    k, r, pattern = _FAMILY_SHAPES[tag]
    if p < MIN_P[k]:
        raise ParameterError(f"family {tag} needs p >= {MIN_P[k]}, got p={p}")
    if edge_choice not in _EDGE_CHOICES:
        raise ParameterError(
            f"edge_choice must be one of {_EDGE_CHOICES}, got {edge_choice!r}"
        )
    if edge_choice == "random" and seed is None:
        raise ParameterError("edge_choice 'random' needs a seed")
    isize = p - k + 1
    n0 = isize + r
    # Role "i<j>" is vertex j, role "r<j>" is vertex isize + j.
    required = {
        tuple(sorted(int(x[1:]) + (isize if x[0] == "r" else 0) for x in e))
        for e in pattern
    }
    every = edge_choice == "upper"
    rng = random.Random(seed) if edge_choice == "random" else None
    g = Graph.from_edges(n0, [
        (u, v)
        for u in range(n0)
        for v in range(max(u + 1, isize), n0)
        if (u, v) in required or every or (rng is not None and rng.random() < 0.5)
    ])
    # The upper member is every pair that meets the rest, so a graph lies in
    # the sandwich iff it holds every mandatory edge and keeps I independent.
    if not (all(g.has_edge(u, v) for u, v in required)
            and g.is_independent_set(range(isize))):
        raise InternalError(f"{tag} member violates its sandwich")
    if n0 <= _ORACLE_VERIFY_MAX_N:
        alpha, _ = exact_alpha(g)
        if alpha != p - k + 1:
            raise InternalError(f"{tag} member has alpha={alpha}")
    return g


def _contains_pattern(g: Graph, i_set, rest, pattern) -> bool:
    """Does g realise the mandatory edges under some role assignment?"""
    roles = sorted({x for e in pattern for x in e})  # "i*" sort before "r*"
    n_i = sum(x[0] == "i" for x in roles)
    for i_perm, r_perm in product(permutations(i_set, n_i),
                                  permutations(rest, len(roles) - n_i)):
        vmap = dict(zip(roles, i_perm + r_perm))
        if all(g.has_edge(vmap[a], vmap[b]) for a, b in pattern):
            return True
    return False


def classify_extremal(g: Graph, p: int, k: int) -> ExtremalAnalysis:
    """Decompose a tight instance and name its family.

    Requires k in {1, 2, 3} and p at or above the completeness threshold;
    the graph must have independence number exactly p - k + 1 (ValueError
    otherwise).  The decomposition uses the exact solver's witness as I.
    Graphs matching no family shape are tagged UNMATCHED.
    """
    if k not in MIN_P:
        raise ParameterError(f"classification covers k in 1..3, got k={k}")
    if p < MIN_P[k]:
        raise ParameterError(
            f"classification at k={k} needs p >= {MIN_P[k]}, got p={p}"
        )
    isize = p - k + 1
    alpha, witness = exact_alpha(g)
    if alpha != isize:
        raise ValueError(
            f"not a tight instance: alpha={alpha}, expected {isize}"
        )
    inside = set(witness)
    rest = tuple(v for v in g.vertices() if v not in inside)
    residual = complement_edge_count(g) - comb(isize, 2)
    if residual < 0:
        raise InternalError(f"negative residual non-edge count {residual}")
    tag = UNMATCHED
    if len(rest) <= rest_size_range(p, k)[1]:
        for cand in FAMILY_TAGS:
            fk, fr, pattern = _FAMILY_SHAPES[cand]
            if fk == k and fr == len(rest) and _contains_pattern(
                g, witness, rest, pattern
            ):
                tag = cand
                break
    return ExtremalAnalysis(
        independent_set=tuple(witness),
        rest=rest,
        rest_size=len(rest),
        residual_nonedges=residual,
        family_tag=tag,
    )


def is_self_kernel(g: Graph, p: int, k: int) -> bool:
    """True when g is its own kernel at (p, k): its counting bound is p and
    ``kernelize`` peels nothing.  At that p, ParameterError where the gate
    of ``kernelize`` refuses k."""
    return nonedge_bound(g) == p and not kernelize(g, k).removed


def enumerate_k1_extremal(p: int) -> dict[str, int]:
    """Census of k=1 tight kernels: classify every candidate, count by tag.

    Scans all labeled graphs on p and p + 1 vertices (rest sizes beyond 1
    are infeasible per rest_size_range), keeps those that are kernel-shaped
    — degrees below n - p + 1, residual non-edges within budget — with
    independence number exactly p, and classifies each.  Exhaustive, so
    practical only for small p; capped at p <= 5 (2^C(6,2) graphs).
    """
    if not MIN_P[1] <= p <= 5:
        raise ParameterError(f"census supports 3 <= p <= 5, got p={p}")
    if rest_size_range(p, 1) != (0, 1):
        raise InternalError(f"k=1 rest sizes at p={p} are not [0, 1]")
    max_nonedges = comb(p + 1, 2) - 1
    counts: Counter[str] = Counter()
    for n0 in (p, p + 1):
        pairs = list(combinations(range(n0), 2))
        incidence = [0] * n0
        for idx, (u, v) in enumerate(pairs):
            incidence[u] |= 1 << idx
            incidence[v] |= 1 << idx
        degree_cap = n0 - p + 1
        for mask in range(1 << len(pairs)):
            if any(
                (mask & incidence[v]).bit_count() >= degree_cap
                for v in range(n0)
            ):
                continue
            if comb(n0, 2) - mask.bit_count() > max_nonedges:
                continue
            g = Graph.from_edges(n0, (pairs[i] for i in iter_bits(mask)))
            alpha, _ = exact_alpha(g)
            if alpha != p:
                continue
            counts[classify_extremal(g, p, 1).family_tag] += 1
    return dict(counts)
