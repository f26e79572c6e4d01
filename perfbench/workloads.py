"""The two seeded workloads: inputs, the op list, and a check for every op.

Each workload joins two op groups, built from seeds drawn from the
workload seed: ``bulk_peel_cli`` is the large peel hosts plus the CLI on
files, ``sweep_past_bounds`` is the small-graph sweep plus the instances
that get past both bounds.  Each builder takes a seed and a scratch
directory, builds its inputs (its run time is the benchmark's set-up time)
and returns the op list.  An op is one public call: ``decide``,
``decide_many``, ``bounds_report``, ``kernelize`` or an in-process
``cli.main``.  Ops look the package functions up at call time
(``ab.decide``, ``cli.main``) so that a traced run sees them through the
tracer's wrappers.

Checks run outside the timed span.  Reference values they need (exact
alpha, degree lists, reference kernels) are computed on first use and
cached, so they never count as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Callable

import alphabound as ab
from alphabound import cli


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class CliRun:
    code: int
    out: str
    err: str


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _tag_k(tag: str) -> int:
    return int(tag[1])  # family tags are named k<k>_<shape>


def counting_bound(g) -> int:
    """p, computed independently of the package: max q with q(q-1) <= 2 * non-edges."""
    twice = g.n * g.n - g.n - 2 * g.m
    q = (1 + isqrt(1 + 4 * twice)) // 2
    while q * (q - 1) > twice:
        q -= 1
    return q


def matching_bound(g) -> int:
    """n - |M| for a greedy maximal matching M, an upper bound on alpha:
    an independent set holds at most one end of each matched edge."""
    used = matched = 0
    for v, row in enumerate(g.adjacency):
        free = row & ~used
        if not used >> v & 1 and free:
            used |= (1 << v) | (free & -free)
            matched += 1
    return g.n - matched


def decision_ok(g, k, decision, expected=None) -> bool:
    if not ab.verify_decision(g, k, decision):
        return False
    return expected is None or decision.answer == expected


def kernel_ok(g, k, kr, degrees) -> bool:
    """Re-derive the peel from the degree list: same split, sizes and budget."""
    p = counting_bound(g)
    threshold = g.n - p + k
    kept = tuple(v for v, d in enumerate(degrees) if d < threshold)
    removed = tuple(v for v, d in enumerate(degrees) if d >= threshold)
    return (kr.p == p and kr.mapping == kept and kr.removed == removed
            and kr.n0 == kr.kernel.n == len(kept)
            and kr.budget_t == len(kept) - (p - k + 1)
            and kr.trivially_yes == (len(kept) <= p - k))


# -- bulk_peel ---------------------------------------------------------------

BULK_DENSITIES = (0.05, 0.5, 0.9)


def bulk_peel(seed: int, workdir: str) -> list[Op]:
    """Large hosts that resolve at P1 (bounds on) or KERNEL_TRIVIAL (skipped)."""
    rng = random.Random(seed)
    # No n=20,000 host: it takes 3.6 s to build and 2 s a decide, which
    # leaves too few passes in a run for a steady best time.
    # The n=5,000 hosts run two more k values than the others, so that
    # their decides (about 120 ms each) are more than a tenth of the
    # workload's ops and op_ms.p90 lies inside that cluster of op costs.
    shapes = [(5000, d, (1, 2, 3, 4, 5)) for d in BULK_DENSITIES]
    shapes += [(2000, d, (1, 2, 3)) for d in BULK_DENSITIES for _ in range(3)]
    ops = []
    for n, d, ks in shapes:
        g = ab.gnp(n, d, _seed(rng))
        degrees = cache(lambda g=g: [row.bit_count() for row in g.adjacency])
        answers: dict[int, str] = {}
        for k in ks:
            for skip in (False, True):
                ops.append(Op(
                    f"decide gnp({n},{d}) k={k}" + (" skip" if skip else ""),
                    lambda g=g, k=k, skip=skip: ab.decide(g, k, skip_bound_steps=skip),
                    # Whichever of the pair runs first sets the answer the other must give.
                    lambda r, g=g, k=k, answers=answers: decision_ok(
                        g, k, r, answers.setdefault(k, r.answer)),
                ))
            ops.append(Op(
                f"kernelize gnp({n},{d}) k={k}",
                lambda g=g, k=k: ab.kernelize(g, k),
                lambda r, g=g, k=k, degrees=degrees: kernel_ok(g, k, r, degrees()),
            ))
    return ops


# -- sweep_small -------------------------------------------------------------

# A fixed grid of shapes, so that the seed changes the graphs but not the
# mix of sizes and densities.
SMALL_ORDERS = (10, 16, 22, 28, 34, 40)
SMALL_DENSITIES = (0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 0.95)


def _many_ok(g, results, alpha) -> bool:
    p = counting_bound(g)
    if [k for k, _ in results] != list(range((p - 1) // 2 + 1)):
        return False
    return all(decision_ok(g, k, d, "YES" if alpha <= p - k else "NO")
               for k, d in results)


def sweep_small(seed: int, workdir: str) -> list[Op]:
    """decide_many over n <= 40 graphs, every answer checked by the exact oracle."""
    rng = random.Random(seed)
    corpus = [(f"gnp({n},{d})#{i}", ab.gnp(n, d, _seed(rng)))
              for n in SMALL_ORDERS for d in SMALL_DENSITIES for i in range(4)]
    for n in range(6, 41, 2):
        p = min(n - 1, 2 + n % 11)
        corpus.append((f"h_np({n},{p})", ab.h_np(n, p)))
    for tag in ab.FAMILY_TAGS:
        p = ab.MIN_P[_tag_k(tag)] + 6
        for i in range(2):
            corpus.append((f"{tag}({p})#{i}",
                           ab.generate_extremal(tag, p, "random", _seed(rng))))
    return [
        Op(f"decide_many {label}",
           lambda g=g: ab.decide_many(g),
           lambda r, g=g, alpha=cache(lambda g=g: ab.exact_alpha(g)[0]):
               _many_ok(g, r, alpha()))
        for label, g in corpus
    ]


# -- past_bounds -------------------------------------------------------------

# (density, host count, k values).  Node counts vary from host to host,
# so several hosts share each k.  Beyond k=50 one search can take seconds
# and its cost varies 2x (d=.1) or 40x (d=.02) between seeds, enough to
# set a run's throughput alone.
SEARCH_HOSTS = ((0.1, 4, (40, 50)), (0.02, 4, (40, 50)))
# join(K_c, member of a tight family at p) has alpha = p - k + 1 while its
# counting bound is at most p, so the answer is NO at every c.  Every
# family is padded lightly and three more heavily.  The c = 300 ops (about
# 10 ms each) are the cluster that op_ms.p90 of sweep_past_bounds falls
# in.  At c = 2,000 one decide or p2 takes about a second, which leaves
# too few passes in a run for a steady best time.
PADDED_SMALL = (50, 150, 300)
PADDED_LARGE = (("k1_b", 12, 500), ("k2_c2", 13, 1000), ("k3_d3", 17, 500))


def _bounds_ok(g, report, alpha) -> bool:
    return (report.p == counting_bound(g) and report.wp_complement == report.p1
            and alpha <= report.p2 <= report.p1 <= report.p)


def _padded_ops(core, tag, p, c) -> list[Op]:
    k = _tag_k(tag)
    g = ab.join(ab.complete_graph(c), core)
    label = f"join(K{c},{tag}({p}))"
    ops = [Op(f"decide {label} k={k}" + (" skip" if skip else ""),
              lambda g=g, skip=skip: ab.decide(g, k, skip_bound_steps=skip),
              lambda r, g=g: decision_ok(g, k, r, "NO"))
           for skip in (False, True)]
    ops.append(Op(f"bounds_report {label} p2",
                  lambda g=g: ab.bounds_report(g, with_p2=True),
                  lambda r, g=g: _bounds_ok(g, r, p - k + 1)))
    return ops


def past_bounds(seed: int, workdir: str) -> list[Op]:
    """Instances that get past p1 and p2: long searches and padded NO instances."""
    rng = random.Random(seed)
    ops = []
    for d, hosts, ks in SEARCH_HOSTS:
        for i in range(hosts):
            g = ab.gnp(200, d, _seed(rng))
            # The matching bound proves YES with a margin of 20 or more at
            # every seed tried (1-200); a host where it does not is a failed op.
            alpha_at_most = cache(lambda g=g: matching_bound(g))
            for k in ks:
                ops.append(Op(
                    f"decide gnp(200,{d})#{i} k={k}",
                    lambda g=g, k=k: ab.decide(g, k),
                    lambda r, g=g, k=k, bound=alpha_at_most: decision_ok(
                        g, k, r, "YES" if bound() <= counting_bound(g) - k else "unproven")))
    for tag in ab.FAMILY_TAGS:
        p = ab.MIN_P[_tag_k(tag)] + 4
        core = ab.generate_extremal(tag, p, "random", _seed(rng))
        for c in PADDED_SMALL:
            ops += _padded_ops(core, tag, p, c)
    for tag, p, c in PADDED_LARGE:
        ops += _padded_ops(ab.generate_extremal(tag, p, "random", _seed(rng)), tag, p, c)
    return ops


# -- cli_files ---------------------------------------------------------------

# Each host op reads the whole file; a 2,000-vertex host (100k edges)
# costs about 250 ms an op, too few passes in a run for a steady best time.
CLI_HOSTS = ((1000, 0.05), (1500, 0.04))
# Padded instances form one cluster of op costs per c; with three sizes
# the median op lies inside the middle cluster, not on the step between two.
CLI_PADS = (20, 40, 60)


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def _report(run: CliRun, code: int) -> dict:
    if run.code != code or run.err:
        raise ValueError(f"exit {run.code}, stderr {run.err!r}")
    return json.loads(run.out)["result"]


def _cli_decide_ok(run, g, ids, k, expected) -> bool:
    result = _report(run, 0 if expected == "YES" else 1)
    cert = dict(result["certificate"])
    if "vertices" in cert:
        index = {label: v for v, label in enumerate(ids)}
        cert["vertices"] = [index[label] for label in cert["vertices"]]
    decision = ab.Decision(result["answer"], result["resolved_at"], cert,
                           ab.BoundsReport(**result["bounds"]), None)
    return decision_ok(g, k, decision, expected)


def _cli_kernel_ok(run, ids, path, reference) -> bool:
    result = _report(run, 0)
    kr = reference()
    kept = [ids[v] for v in kr.mapping]
    emitted, labels = ab.read_graph(path, "edgelist")
    return (result["n0"] == kr.n0 and result["p"] == kr.p
            and result["kept"] == kept and emitted == kr.kernel
            and list(labels) == kept)


def _cli_bounds_ok(run, g, reference, alpha=None) -> bool:
    result = _report(run, 0)
    ref = reference()
    return (all(result[f] == getattr(ref, f) for f in ("p", "p1", "p2", "wp_complement"))
            and ref.p == counting_bound(g)
            and (alpha is None or alpha <= ref.p2))


def _cli_same_file_ok(run, written, reference_path) -> bool:
    _report(run, 0)
    with open(written, "rb") as a, open(reference_path, "rb") as b:
        return a.read() == b.read()


def _write(g, path: str, labelled: bool) -> tuple[int, ...]:
    """Write g; edge lists get sparse labels so certificates must be mapped."""
    if labelled:
        ids = tuple(range(7, 7 + 3 * g.n, 3))
        ab.write_graph(g, path, external_ids=ids)
        return ids
    ab.write_graph(g, path)
    return tuple(range(1, g.n + 1))


def cli_files(seed: int, workdir: str) -> list[Op]:
    """In-process CLI on DIMACS and edge-list files written during set-up."""
    rng = random.Random(seed)
    at = lambda name: os.path.join(workdir, name)  # noqa: E731
    ops = []
    for n, d in CLI_HOSTS:
        s = _seed(rng)
        g = ab.gnp(n, d, s)
        col, edges = at(f"host{n}.col"), at(f"host{n}.edges")
        col_ids, edge_ids = _write(g, col, False), _write(g, edges, True)
        emit, gen = at(f"host{n}-kernel.edges"), at(f"gen{n}.col")
        kernel_ref = cache(lambda g=g: ab.kernelize(g, 1))
        bounds_ref = cache(lambda g=g: ab.bounds_report(g))
        ops += [
            Op(f"cli decide host{n}.col k=1",
               lambda col=col: run_cli(["decide", col, "--k", "1"]),
               lambda r, g=g, ids=col_ids: _cli_decide_ok(r, g, ids, 1, "YES")),
            Op(f"cli decide host{n}.edges k=2",
               lambda edges=edges: run_cli(["decide", edges, "--k", "2"]),
               lambda r, g=g, ids=edge_ids: _cli_decide_ok(r, g, ids, 2, "YES")),
            Op(f"cli decide host{n}.col k=3 skip",
               lambda col=col: run_cli(["decide", col, "--k", "3", "--skip-bound-steps"]),
               lambda r, g=g, ids=col_ids: _cli_decide_ok(r, g, ids, 3, "YES")),
            Op(f"cli kernel host{n}.edges k=1 --emit",
               lambda edges=edges, emit=emit: run_cli(
                   ["kernel", edges, "--k", "1", "--emit", emit]),
               lambda r, ids=edge_ids, emit=emit, ref=kernel_ref:
                   _cli_kernel_ok(r, ids, emit, ref)),
            Op(f"cli bounds host{n}.col",
               lambda col=col: run_cli(["bounds", col]),
               lambda r, g=g, ref=bounds_ref: _cli_bounds_ok(r, g, ref)),
            Op(f"cli gen gnp {n} {d}",
               lambda n=n, d=d, s=s, gen=gen: run_cli(
                   ["gen", "gnp", str(n), str(d), "--seed", str(s), "--out", gen]),
               lambda r, gen=gen, col=col: _cli_same_file_ok(r, gen, col)),
        ]
    for tag in ab.FAMILY_TAGS:
        k, s = _tag_k(tag), _seed(rng)
        p = ab.MIN_P[k] + 5
        core = ab.generate_extremal(tag, p, "random", s)
        core_path, gen = at(f"{tag}.edges"), at(f"gen-{tag}.edges")
        ab.write_graph(core, core_path)
        ops.append(Op(
            f"cli extremal generate {tag} {p}",
            lambda tag=tag, p=p, s=s, gen=gen: run_cli(
                ["extremal", "generate", tag, str(p), "--edge-choice", "random",
                 "--seed", str(s), "--out", gen]),
            lambda r, gen=gen, ref=core_path: _cli_same_file_ok(r, gen, ref)))
        for c in CLI_PADS:
            g = ab.join(ab.complete_graph(c), core)
            labelled = c != CLI_PADS[0]
            path = at(f"pad{c}-{tag}." + ("edges" if labelled else "col"))
            ids = _write(g, path, labelled)
            emit = at(f"pad{c}-{tag}-kernel.edges")
            kernel_ref = cache(lambda g=g, k=k: ab.kernelize(g, k))
            bounds_ref = cache(lambda g=g: ab.bounds_report(g, with_p2=True))
            ops += [
                Op(f"cli decide pad{c}-{tag} k={k}",
                   lambda path=path, k=k: run_cli(["decide", path, "--k", str(k)]),
                   lambda r, g=g, ids=ids, k=k: _cli_decide_ok(r, g, ids, k, "NO")),
                Op(f"cli bounds pad{c}-{tag} --p2",
                   lambda path=path: run_cli(["bounds", path, "--p2"]),
                   lambda r, g=g, ref=bounds_ref, a=p - k + 1:
                       _cli_bounds_ok(r, g, ref, a)),
                Op(f"cli kernel pad{c}-{tag} k={k} --emit",
                   lambda path=path, k=k, emit=emit: run_cli(
                       ["kernel", path, "--k", str(k), "--emit", emit]),
                   lambda r, ids=ids, emit=emit, ref=kernel_ref:
                       _cli_kernel_ok(r, ids, emit, ref)),
            ]
    return ops


def _joined(*groups):
    def build(seed: int, workdir: str) -> list[Op]:
        rng = random.Random(seed)
        return [op for group in groups for op in group(_seed(rng), workdir)]
    return build


WORKLOADS = {
    "bulk_peel_cli": _joined(bulk_peel, cli_files),
    "sweep_past_bounds": _joined(sweep_small, past_bounds),
}
