"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces every public function of each layer module with a
wrapper that records a span around the call.  Because ``pipeline`` and
``cli`` import names directly (``from .bounds import ...``), one function is
bound under several module attributes; every binding in every loaded
``alphabound`` module is replaced, so no call path escapes the trace.

Spans are folded into per-name totals as they close: call count, inclusive
time and self time (inclusive time minus the time of child spans).  A few
return values feed counters (search nodes, kernel sizes, resolution
outcomes, parsed edges, written bytes).  Everything is read back by name, so
a function that a later version deletes or stops calling reads as 0.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import sys
import time
from collections import Counter

LAYERS = ("graph", "bounds", "kernel", "vertex_cover", "pipeline", "formats",
          "cli", "extremal")
# Graph methods traced as graph-layer spans; the other methods are cheap
# queries whose cost stays in the caller's self time.
GRAPH_METHODS = ("__init__", "complement", "induced_subgraph")
# While answers are being checked only these spans are recorded, and their
# children are not: checking must not inflate the layers it re-runs.
RECORDED_WHILE_CHECKING = frozenset({"pipeline.verify_decision"})
P2 = "bounds.neighborhood_union_bound"


def _on_decide(tracer, args, kwargs, result):
    resolved = getattr(result, "resolved_at", "?")
    if resolved == "VC_SEARCH":
        resolved += "_" + getattr(result, "answer", "?")
    tracer.counts["resolved." + resolved.lower()] += 1


def _on_kernelize(tracer, args, kwargs, result):
    tracer.counts["kernel.n0_sum"] += getattr(result, "n0", 0)
    tracer.counts["kernel.trivial"] += bool(getattr(result, "trivially_yes", False))


def _on_vertex_cover(tracer, args, kwargs, result):
    tracer.counts["vertex_cover.nodes"] += getattr(result, "nodes_explored", 0)


def _on_parse(tracer, args, kwargs, result):
    tracer.counts["formats.edges_parsed"] += getattr(result[0], "m", 0)


def _on_write(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        tracer.counts["formats.bytes_written"] += os.path.getsize(path)


def _on_cli_main(tracer, args, kwargs, result):
    # The benchmark gives every in-process CLI call a fresh StringIO stdout.
    if isinstance(sys.stdout, io.StringIO):
        tracer.counts["cli.json_bytes"] += len(sys.stdout.getvalue())


_ON_RETURN = {
    "cli.main": _on_cli_main,
    "pipeline.decide": _on_decide,
    "kernel.kernelize": _on_kernelize,
    "vertex_cover.vertex_cover_decide": _on_vertex_cover,
    "formats.parse_dimacs": _on_parse,
    "formats.parse_edgelist": _on_parse,
    "formats.write_graph": _on_write,
}


class Tracer:
    """Span totals for one traced phase; install, run, uninstall."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds spent in children]
        self._checking = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        on_return = _ON_RETURN.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._checking and name not in RECORDED_WHILE_CHECKING:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if name == P2 and parent == "pipeline.decide":
                    self.counts["bounds.p2_by_decide"] += 1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def checking(self):
        """Run answer checks without charging their work to the layers."""
        self._checking = True
        try:
            yield
        finally:
            self._checking = False

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("alphabound." + layer)
            except ImportError:
                continue
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "alphabound"
                                        or key.startswith("alphabound."))]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        graph_cls = getattr(sys.modules.get("alphabound.graph"), "Graph", None)
        for attr in GRAPH_METHODS if graph_cls is not None else ():
            raw = graph_cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._patch(graph_cls, attr, classmethod(
                    self._wrap(f"graph.Graph.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(graph_cls, attr, self._wrap(f"graph.Graph.{attr}", raw))
        return self

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- reading ---------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls, total, own, counts = self.calls, self.total_s, self.self_s, self.counts
        kernel_calls = calls["kernel.kernelize"]
        nodes = counts["vertex_cover.nodes"]
        search_s = total["vertex_cover.vertex_cover_decide"]
        parse_s = total["formats.parse_dimacs"] + total["formats.parse_edgelist"]
        edges = counts["formats.edges_parsed"]
        out = {
            "graph.init_s": (total["graph.Graph.__init__"], "s"),
            "graph.init_calls": (calls["graph.Graph.__init__"], "count"),
            "graph.complement_s": (total["graph.Graph.complement"], "s"),
            "graph.complement_calls": (calls["graph.Graph.complement"], "count"),
            "graph.induced_s": (total["graph.Graph.induced_subgraph"], "s"),
            "graph.gnp_s": (total["graph.gnp"], "s"),
            "graph.join_s": (total["graph.join"], "s"),
            "bounds.nonedge_s": (total["bounds.nonedge_bound"], "s"),
            "bounds.p1_s": (total["bounds.degree_sequence_bound"], "s"),
            "bounds.wp_s": (total["bounds.welsh_powell_chromatic_bound"], "s"),
            "bounds.report_s": (total["bounds.bounds_report"], "s"),
            "bounds.p2_s": (total[P2], "s"),
            "bounds.p2_calls": (calls[P2], "count"),
            "bounds.p2_useful_frac": (
                _ratio(counts["resolved.p2_bound"], counts["bounds.p2_by_decide"]), "frac"),
            "kernel.kernelize_s": (total["kernel.kernelize"], "s"),
            "kernel.calls": (kernel_calls, "count"),
            "kernel.n0_sum": (counts["kernel.n0_sum"], "count"),
            "kernel.trivial_frac": (_ratio(counts["kernel.trivial"], kernel_calls), "frac"),
            "vertex_cover.search_s": (search_s, "s"),
            "vertex_cover.calls": (calls["vertex_cover.vertex_cover_decide"], "count"),
            "vertex_cover.nodes": (nodes, "count"),
            "vertex_cover.us_per_node": (_ratio(search_s * 1e6, nodes), "us"),
            "pipeline.decide_self_s": (own["pipeline.decide"], "s"),
            "pipeline.verify_s": (total["pipeline.verify_decision"], "s"),
            "formats.parse_s": (parse_s, "s"),
            "formats.edges_parsed": (edges, "count"),
            "formats.edges_per_s": (_ratio(edges, parse_s), "edges/s"),
            "formats.write_s": (total["formats.write_graph"], "s"),
            "formats.bytes_written": (counts["formats.bytes_written"], "B"),
            "cli.self_s": (own["cli.main"], "s"),
            "cli.json_bytes": (counts["cli.json_bytes"], "B"),
            "extremal.generate_s": (total["extremal.generate_extremal"], "s"),
            "trace.overhead_frac": (overhead_frac, "frac"),
        }
        for outcome in ("p1_bound", "p2_bound", "kernel_trivial",
                        "vc_search_yes", "vc_search_no"):
            out["pipeline.resolved." + outcome] = (counts["resolved." + outcome], "count")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
