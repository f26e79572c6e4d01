"""Command-line front end.

Subcommands::

    bounds PATH                 independence-number upper bounds
    decide PATH -k K            is alpha <= p - k?  (exit 0 yes, 1 no)
    kernel PATH -k K            peel to the low-degree kernel
    oracle PATH                 exact alpha by branch and bound (small n)
    gen FAMILY ...              construct a named graph, write or print it
    extremal generate TAG P     build a tight-family member
    extremal classify PATH ...  decompose a tight instance
    extremal enumerate P        k=1 census of tight kernels

Every command that produces a report prints one JSON object to stdout (see
``RunReport``); errors go to stderr as JSON with exit code 2, or 3 for an
``InternalError`` (a result that failed its own re-check: a bug).
``decide`` exits 0 for YES and 1 for NO so scripts can branch on the answer.
Vertex ids in reports are the input file's own labels.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .bounds import bounds_report
from .errors import InternalError, ParameterError, ParseError, ResourceLimitError
from .extremal import (
    FAMILY_TAGS,
    classify_extremal,
    enumerate_k1_extremal,
    generate_extremal,
    residual_nonedge_budget,
    rest_size_range,
)
from .formats import (
    FORMATS,
    format_graph,
    guess_format,
    read_graph_with_format,
    write_graph,
)
from .graph import Graph, complete_graph, cycle_graph, empty_graph, gnp, h_np, path_graph
from .kernel import kernel_size_bound, kernelize
from .oracle import exact_alpha, exact_min_vc
from .pipeline import decide
from .vertex_cover import DEFAULT_NODE_BUDGET

__all__ = ["RunReport", "build_parser", "main"]


@dataclass(frozen=True)
class RunReport:
    """The JSON document a CLI run prints: what ran, on what, and the result."""

    command: str
    input: Optional[dict]
    parameters: dict
    result: dict
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            command=data["command"],
            input=data["input"],
            parameters=data["parameters"],
            result=data["result"],
            wall_ms=data["wall_ms"],
        )


class _JsonParser(argparse.ArgumentParser):
    """argparse parser whose usage errors are JSON on stderr, exit code 2."""

    def error(self, message: str):
        json.dump({"error": {"type": "usage", "message": message}}, sys.stderr)
        sys.stderr.write("\n")
        raise SystemExit(2)


def _load(args) -> tuple[Graph, tuple[int, ...], dict]:
    g, external, fmt = read_graph_with_format(args.path, args.format)
    info = {"path": args.path, "format": fmt, "n": g.n, "m": g.m}
    return g, external, info


def _ext(vertices, external) -> list:
    return [external[v] for v in vertices]


def _cmd_bounds(args):
    g, _, info = _load(args)
    report = bounds_report(g, with_p2=args.with_p2)
    return asdict(report), 0, info, {"with_p2": args.with_p2}


def _cmd_decide(args):
    g, external, info = _load(args)
    decision = decide(
        g, args.k,
        skip_bound_steps=args.skip_bound_steps,
        node_budget=args.node_budget,
    )
    certificate = dict(decision.certificate)
    if certificate.get("type") == "independent_set":
        certificate["vertices"] = _ext(certificate["vertices"], external)
    kernel_info = None
    if decision.kernel is not None:
        kernel_info = {
            "n0": decision.kernel.n0,
            "budget": decision.kernel.budget_t,
            "trivially_yes": decision.kernel.trivially_yes,
            "removed_count": len(decision.kernel.removed),
        }
    result = {
        "answer": decision.answer,
        "resolved_at": decision.resolved_at,
        "certificate": certificate,
        "bounds": asdict(decision.bounds),
        "kernel": kernel_info,
    }
    params = {
        "k": args.k,
        "skip_bound_steps": args.skip_bound_steps,
        "node_budget": args.node_budget,
    }
    return result, (0 if decision.answer == "YES" else 1), info, params


def _cmd_kernel(args):
    g, external, info = _load(args)
    kr = kernelize(g, args.k)
    kept = _ext((kr.mapping[i] for i in range(kr.n0)), external)
    if args.emit:
        write_graph(kr.kernel, args.emit, "edgelist", external_ids=kept)
    result = {
        "p": kr.p,
        "k": kr.k,
        "n0": kr.n0,
        "budget": kr.budget_t,
        "trivially_yes": kr.trivially_yes,
        "size_bound": kernel_size_bound(kr.p, kr.k),
        "removed_count": len(kr.removed),
        "kept": kept,
    }
    if args.emit:
        result["emitted_to"] = args.emit
    return result, 0, info, {"k": args.k}


def _cmd_oracle(args):
    g, external, info = _load(args)
    if args.vc:
        size, cover = exact_min_vc(g)
        result = {"vc_size": size, "witness": _ext(cover, external)}
    else:
        alpha, witness = exact_alpha(g)
        result = {"alpha": alpha, "witness": _ext(witness, external)}
    return result, 0, info, {"what": "vc" if args.vc else "alpha"}


_GEN_BUILDERS = {
    "empty": lambda a: empty_graph(a.n),
    "complete": lambda a: complete_graph(a.n),
    "cycle": lambda a: cycle_graph(a.n),
    "path": lambda a: path_graph(a.n),
    "h_np": lambda a: h_np(a.n, a.p),
    "gnp": lambda a: gnp(a.n, a.prob, a.seed),
}


def _emit_graph(g: Graph, args, params: dict, **tag):
    """Write the graph to --out and report it, or print it raw."""
    if not args.out:
        sys.stdout.write(format_graph(g, args.format or "edgelist"))
        return None, 0, None, params
    fmt = args.format or guess_format(args.out)
    write_graph(g, args.out, fmt)
    return {"n": g.n, "m": g.m, "path": args.out, "format": fmt, **tag}, 0, None, params


def _cmd_gen(args):
    g = _GEN_BUILDERS[args.family](args)
    params = {
        key: getattr(args, key)
        for key in ("n", "p", "prob", "seed")
        if hasattr(args, key)
    }
    return _emit_graph(g, args, params, family=args.family)


def _cmd_extremal_generate(args):
    g = generate_extremal(args.tag, args.p, args.edge_choice, args.seed)
    params = {
        "tag": args.tag,
        "p": args.p,
        "edge_choice": args.edge_choice,
        "seed": args.seed,
    }
    return _emit_graph(g, args, params, tag=args.tag)


def _cmd_extremal_classify(args):
    g, external, info = _load(args)
    analysis = classify_extremal(g, args.p, args.k)
    result = {
        "family_tag": analysis.family_tag,
        "independent_set": _ext(analysis.independent_set, external),
        "rest": _ext(analysis.rest, external),
        "rest_size": analysis.rest_size,
        "residual_nonedges": analysis.residual_nonedges,
        "residual_budget": residual_nonedge_budget(args.p, args.k),
        "rest_size_range": list(rest_size_range(args.p, args.k)),
    }
    return result, 0, info, {"p": args.p, "k": args.k}


def _cmd_extremal_enumerate(args):
    counts = enumerate_k1_extremal(args.p)
    return {"p": args.p, "counts": counts}, 0, None, {"p": args.p}


def _add_input_args(parser):
    parser.add_argument("path", help="graph file to read")
    parser.add_argument(
        "--format", choices=FORMATS, default=None,
        help="input format (default: guess from extension/content)",
    )


def _add_output_args(parser):
    parser.add_argument(
        "--out", default=None,
        help="write the graph to this file instead of stdout",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None,
        help="output format (default: guess from --out, else edgelist)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonParser(
        prog="alphabound",
        description="Bounds, kernels and exact search for independence "
        "numbers near the counting bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_JsonParser)

    bounds = sub.add_parser("bounds", help="independence-number upper bounds")
    _add_input_args(bounds)
    bounds.add_argument(
        "--p2", action="store_true", dest="with_p2",
        help="also compute the neighbourhood-union bound (quadratic)",
    )
    bounds.set_defaults(handler=_cmd_bounds, command_name="bounds")

    dec = sub.add_parser("decide", help="decide alpha <= p - k (exit 0/1)")
    _add_input_args(dec)
    dec.add_argument("--k", "-k", type=int, required=True, help="gap below p")
    dec.add_argument(
        "--skip-bound-steps", action="store_true", dest="skip_bound_steps",
        help="diagnostic: jump straight to the kernel stage",
    )
    dec.add_argument(
        "--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
        help="search-node cap for the cover search",
    )
    dec.set_defaults(handler=_cmd_decide, command_name="decide")

    ker = sub.add_parser("kernel", help="peel to the low-degree kernel")
    _add_input_args(ker)
    ker.add_argument("--k", "-k", type=int, required=True, help="gap below p")
    ker.add_argument(
        "--emit", default=None,
        help="also write the kernel graph here (edgelist format)",
    )
    ker.set_defaults(handler=_cmd_kernel, command_name="kernel")

    orc = sub.add_parser("oracle", help="exact alpha / minimum cover (small n)")
    _add_input_args(orc)
    what = orc.add_mutually_exclusive_group()
    what.add_argument(
        "--alpha", action="store_true",
        help="report the independence number (default)",
    )
    what.add_argument(
        "--vc", action="store_true",
        help="report a minimum vertex cover instead",
    )
    orc.set_defaults(handler=_cmd_oracle, command_name="oracle")

    gen = sub.add_parser("gen", help="construct a named graph")
    gsub = gen.add_subparsers(dest="family", required=True,
                              parser_class=_JsonParser)
    for family in ("empty", "complete", "cycle", "path"):
        fam = gsub.add_parser(family)
        fam.add_argument("n", type=int)
        _add_output_args(fam)
        fam.set_defaults(handler=_cmd_gen, command_name="gen")
    hnp = gsub.add_parser(
        "h_np", help="clique on n-p vertices joined to one of p independents"
    )
    hnp.add_argument("n", type=int)
    hnp.add_argument("p", type=int)
    _add_output_args(hnp)
    hnp.set_defaults(handler=_cmd_gen, command_name="gen")
    rnd = gsub.add_parser("gnp", help="Erdos-Renyi G(n, prob)")
    rnd.add_argument("n", type=int)
    rnd.add_argument("prob", type=float)
    rnd.add_argument("--seed", type=int, required=True)
    _add_output_args(rnd)
    rnd.set_defaults(handler=_cmd_gen, command_name="gen")

    ext = sub.add_parser("extremal", help="tight-instance tooling")
    esub = ext.add_subparsers(dest="action", required=True,
                              parser_class=_JsonParser)
    egen = esub.add_parser("generate", help="build a tight-family member")
    egen.add_argument("tag", choices=FAMILY_TAGS)
    egen.add_argument("p", type=int)
    egen.add_argument(
        "--edge-choice", choices=("lower", "upper", "random"),
        default="lower", dest="edge_choice",
    )
    egen.add_argument("--seed", type=int, default=None,
                      help="required for --edge-choice random")
    _add_output_args(egen)
    egen.set_defaults(handler=_cmd_extremal_generate,
                      command_name="extremal generate")
    ecls = esub.add_parser("classify", help="decompose a tight instance")
    _add_input_args(ecls)
    ecls.add_argument("-p", type=int, required=True)
    ecls.add_argument("-k", type=int, required=True)
    ecls.set_defaults(handler=_cmd_extremal_classify,
                      command_name="extremal classify")
    eenum = esub.add_parser("enumerate", help="k=1 census of tight kernels")
    eenum.add_argument("p", type=int)
    eenum.set_defaults(handler=_cmd_extremal_enumerate,
                       command_name="extremal enumerate")

    return parser


# Built once: a parse keeps no state in the parser, and building one takes
# about fifty times as long as a parse.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        result, code, input_info, params = args.handler(args)
    except (ParameterError, ParseError, ResourceLimitError, ValueError,
            OSError, MemoryError, InternalError) as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 3 if isinstance(exc, InternalError) else 2
    if result is None:
        return code
    report = RunReport(
        command=args.command_name,
        input=input_info,
        parameters=params,
        result=result,
        wall_ms=round((time.perf_counter() - start) * 1000.0, 3),
    )
    print(report.to_json())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
