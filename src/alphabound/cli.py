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
``RunReport``).  Its ``input`` block names the file read (None for commands
that read none), and its ``parameters`` hold every option of the subcommand
except the input and output ones (``path``, ``--format``, ``--out``,
``--emit``).  A report exits 1 when its answer is NO (``decide``), else 0,
so scripts can branch on the answer.  Errors go to stderr as JSON with exit
code 2, or 3 for an ``InternalError`` (a result that failed its own
re-check: a bug).  Vertex ids in reports are the input file's own labels.
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
    _EDGE_CHOICES,
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
        return cls(**json.loads(text))


# Namespace entries that route a command or name its input and output files;
# every other entry is one of the command's ``parameters``.
_NOT_PARAMETERS = {"command", "family", "action", "handler", "command_name",
                   "path", "format", "out", "emit"}


def _fail(kind: str, message: str, code: int) -> int:
    """Write one JSON error line to stderr and return ``code``."""
    json.dump({"error": {"type": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")
    return code


class _JsonParser(argparse.ArgumentParser):
    """argparse parser whose usage errors are JSON on stderr, exit code 2."""

    def error(self, message: str):
        raise SystemExit(_fail("usage", message, 2))


def _ext(vertices, external) -> list:
    return [external[v] for v in vertices]


def _cmd_bounds(args, g, external):
    return asdict(bounds_report(g, with_p2=args.with_p2))


def _cmd_decide(args, g, external):
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
    return {
        "answer": decision.answer,
        "resolved_at": decision.resolved_at,
        "certificate": certificate,
        "bounds": asdict(decision.bounds),
        "kernel": kernel_info,
    }


def _cmd_kernel(args, g, external):
    kr = kernelize(g, args.k)
    kept = _ext(kr.mapping, external)
    if args.emit:
        write_graph(kr.kernel, args.emit, external_ids=kept)
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
    return result


def _cmd_oracle(args, g, external):
    if args.what == "vc":
        size, cover = exact_min_vc(g)
        return {"vc_size": size, "witness": _ext(cover, external)}
    alpha, witness = exact_alpha(g)
    return {"alpha": alpha, "witness": _ext(witness, external)}


_GEN_BUILDERS = {
    "empty": lambda a: empty_graph(a.n),
    "complete": lambda a: complete_graph(a.n),
    "cycle": lambda a: cycle_graph(a.n),
    "path": lambda a: path_graph(a.n),
    "h_np": lambda a: h_np(a.n, a.p),
    "gnp": lambda a: gnp(a.n, a.prob, a.seed),
}


def _emit_graph(g: Graph, args, **tag) -> Optional[dict]:
    """Write the graph to --out and report it, or print it raw."""
    if not args.out:
        sys.stdout.write(format_graph(g, args.format or "edgelist"))
        return None
    fmt = args.format or guess_format(args.out)
    write_graph(g, args.out, fmt)
    return {"n": g.n, "m": g.m, "path": args.out, "format": fmt, **tag}


def _cmd_gen(args):
    return _emit_graph(_GEN_BUILDERS[args.family](args), args, family=args.family)


def _cmd_extremal_generate(args):
    g = generate_extremal(args.tag, args.p, args.edge_choice, args.seed)
    return _emit_graph(g, args, tag=args.tag)


def _cmd_extremal_classify(args, g, external):
    analysis = classify_extremal(g, args.p, args.k)
    return {
        "family_tag": analysis.family_tag,
        "independent_set": _ext(analysis.independent_set, external),
        "rest": _ext(analysis.rest, external),
        "rest_size": analysis.rest_size,
        "residual_nonedges": analysis.residual_nonedges,
        "residual_budget": residual_nonedge_budget(args.p, args.k),
        "rest_size_range": list(rest_size_range(args.p, args.k)),
    }


def _cmd_extremal_enumerate(args):
    return {"p": args.p, "counts": enumerate_k1_extremal(args.p)}


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
        help="also write the kernel graph here, in the format its extension names "
             "(edge-list only: the kernel keeps the input's vertex labels)",
    )
    ker.set_defaults(handler=_cmd_kernel, command_name="kernel")

    orc = sub.add_parser("oracle", help="exact alpha / minimum cover (small n)")
    _add_input_args(orc)
    what = orc.add_mutually_exclusive_group()
    what.add_argument(
        "--alpha", action="store_const", dest="what", const="alpha", default="alpha",
        help="report the independence number (default)",
    )
    what.add_argument(
        "--vc", action="store_const", dest="what", const="vc",
        help="report a minimum vertex cover instead",
    )
    orc.set_defaults(handler=_cmd_oracle, command_name="oracle")

    gen = sub.add_parser("gen", help="construct a named graph")
    gen.set_defaults(handler=_cmd_gen, command_name="gen")
    gsub = gen.add_subparsers(dest="family", required=True,
                              parser_class=_JsonParser)
    for family in ("empty", "complete", "cycle", "path"):
        fam = gsub.add_parser(family)
        fam.add_argument("n", type=int)
        _add_output_args(fam)
    hnp = gsub.add_parser(
        "h_np", help="clique on n-p vertices joined to one of p independents"
    )
    hnp.add_argument("n", type=int)
    hnp.add_argument("p", type=int)
    _add_output_args(hnp)
    rnd = gsub.add_parser("gnp", help="Erdos-Renyi G(n, prob)")
    rnd.add_argument("n", type=int)
    rnd.add_argument("prob", type=float)
    rnd.add_argument("--seed", type=int, required=True)
    _add_output_args(rnd)

    ext = sub.add_parser("extremal", help="tight-instance tooling")
    esub = ext.add_subparsers(dest="action", required=True,
                              parser_class=_JsonParser)
    egen = esub.add_parser("generate", help="build a tight-family member")
    egen.add_argument("tag", choices=FAMILY_TAGS)
    egen.add_argument("p", type=int)
    egen.add_argument(
        "--edge-choice", choices=_EDGE_CHOICES,
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
        if "path" in vars(args):
            g, external, fmt = read_graph_with_format(args.path, args.format)
            source = {"path": args.path, "format": fmt, "n": g.n, "m": g.m}
            result = args.handler(args, g, external)
        else:
            source, result = None, args.handler(args)
    except (ParameterError, ParseError, ResourceLimitError, ValueError,
            OSError, MemoryError, OverflowError, InternalError) as exc:
        return _fail(type(exc).__name__, str(exc), 3 if isinstance(exc, InternalError) else 2)
    if result is None:
        return 0
    report = RunReport(
        command=args.command_name,
        input=source,
        parameters={key: value for key, value in vars(args).items()
                    if key not in _NOT_PARAMETERS},
        result=result,
        wall_ms=round((time.perf_counter() - start) * 1000.0, 3),
    )
    print(report.to_json())
    return 1 if result.get("answer") == "NO" else 0


if __name__ == "__main__":
    raise SystemExit(main())
