"""Reading and writing graphs: DIMACS and plain edge-list files.

Two formats are supported:

* ``dimacs`` — the classic clique/colouring exchange format: optional
  ``c`` comment lines, one ``p edge N M`` header, then M lines ``e u v``
  with 1-based endpoints.  Parsing is strict: unknown line types, repeated
  headers, out-of-range endpoints, self-loops, duplicate edges, and edge
  counts that disagree with the header are all rejected, with the line
  number in the error.

* ``edgelist`` — whitespace-separated vertex pairs, one edge per line,
  ``#`` starting a comment that runs to end of line.  Vertex ids are
  arbitrary non-negative integers; they are sorted and densely renumbered,
  and the original labels are returned alongside the graph.  A line with a
  single token declares an isolated vertex, so graphs with degree-0
  vertices survive a write/read round trip.

Readers return ``(graph, external_ids)`` where ``external_ids[i]`` is the
label the input used for internal vertex ``i`` (for DIMACS that is always
``i + 1``).  Witnesses reported to users should be mapped through it.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from .errors import ParameterError, ParseError
from .graph import Graph

__all__ = [
    "FORMATS",
    "guess_format",
    "parse_dimacs",
    "parse_edgelist",
    "format_dimacs",
    "format_edgelist",
    "read_graph",
    "write_graph",
]

# Parser by format name.  Each entry looks its parser up when called, so a
# wrapper later bound to ``parse_dimacs``/``parse_edgelist`` (a profiler or
# tracer) sees every parse, the ones made through this table included.
_PARSERS = {
    "dimacs": lambda text: parse_dimacs(text),
    "edgelist": lambda text: parse_edgelist(text),
}
FORMATS = tuple(_PARSERS)

_DIMACS_EXTENSIONS = {".col", ".dimacs", ".clq"}
_EDGELIST_EXTENSIONS = {".edgelist", ".edges", ".txt"}


def guess_format(path: str, text: Optional[str] = None) -> str:
    """Infer a format name from a file extension, else from content.

    Content sniffing (when ``text`` is given) looks at the first non-blank
    line: DIMACS files open with a ``c`` or ``p`` line.
    """
    ext = os.path.splitext(path)[1].lower()
    if ext in _DIMACS_EXTENSIONS:
        return "dimacs"
    if ext in _EDGELIST_EXTENSIONS:
        return "edgelist"
    if text is not None:
        for raw in text.splitlines():
            stripped = raw.strip()
            if not stripped:
                continue
            head = stripped.split()[0]
            return "dimacs" if head in ("c", "p") else "edgelist"
        return "edgelist"
    raise ParameterError(
        f"cannot infer graph format from {path!r}; pass one of {FORMATS}"
    )


def parse_dimacs(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse DIMACS text into (graph, 1-based external ids)."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        kind = fields[0]
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise ParseError("repeated problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(
                    f"expected 'p edge N M', got {stripped!r}", lineno
                )
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(
                    f"non-integer sizes in problem line {stripped!r}", lineno
                ) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative size in problem line", lineno)
        elif kind == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(fields) != 3:
                raise ParseError(f"expected 'e u v', got {stripped!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(
                    f"non-integer endpoint in {stripped!r}", lineno
                ) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"endpoint out of range 1..{n} in {stripped!r}", lineno
                )
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"duplicate edge {key[0]} {key[1]}", lineno)
            seen.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(edges) != declared_m:
        raise ParseError(
            f"problem line declared {declared_m} edges, file has {len(edges)}"
        )
    return Graph.from_edges(n, edges), tuple(range(1, n + 1))


def parse_edgelist(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse edge-list text into (graph, sorted original vertex labels)."""
    labels: set[int] = set()
    edges: set[tuple[int, int]] = set()

    def to_label(token: str, lineno: int) -> int:
        try:
            value = int(token)
        except ValueError:
            raise ParseError(
                f"vertex id must be an integer, got {token!r}", lineno
            ) from None
        if value < 0:
            raise ParseError(f"negative vertex id {value}", lineno)
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) == 1:
            labels.add(to_label(fields[0], lineno))
        elif len(fields) == 2:
            u, v = (to_label(f, lineno) for f in fields)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            labels.add(u)
            labels.add(v)
            edges.add((min(u, v), max(u, v)))
        else:
            raise ParseError(
                f"expected 1 or 2 vertex ids per line, got {len(fields)}",
                lineno,
            )
    external = tuple(sorted(labels))
    dense = {label: i for i, label in enumerate(external)}
    g = Graph.from_edges(len(external), ((dense[u], dense[v]) for u, v in edges))
    return g, external


def _check_external_ids(g: Graph, external_ids: Optional[Sequence[int]]) -> Sequence[int]:
    if external_ids is None:
        return range(g.n)
    if len(external_ids) != g.n:
        raise ParameterError(
            f"need {g.n} external ids, got {len(external_ids)}"
        )
    # Strictly increasing labels keep the sorted-relabel of the parser an
    # exact inverse, so write/read round-trips preserve the graph.
    for a, b in zip(external_ids, external_ids[1:]):
        if a >= b:
            raise ParameterError("external ids must be strictly increasing")
    if g.n and external_ids[0] < 0:
        raise ParameterError("external ids must be non-negative")
    return external_ids


def format_dimacs(g: Graph, comment: Optional[str] = None) -> str:
    """Render a graph as DIMACS text; vertices are renumbered 1..n."""
    lines = []
    if comment:
        lines.extend(f"c {line}".rstrip() for line in comment.splitlines())
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_edgelist(
    g: Graph, external_ids: Optional[Sequence[int]] = None
) -> str:
    """Render a graph as edge-list text, isolated vertices as single tokens.

    ``external_ids`` (strictly increasing, one per vertex) relabels the
    output; by default vertices are written as 0..n-1.
    """
    ids = _check_external_ids(g, external_ids)
    lines = [f"{ids[u]} {ids[v]}" for u, v in g.edges()]
    lines.extend(str(ids[v]) for v in g.vertices() if g.degree(v) == 0)
    return "\n".join(lines) + ("\n" if lines else "")


def read_graph(path: str, fmt: Optional[str] = None) -> tuple[Graph, tuple[int, ...]]:
    """Read a graph file; returns (graph, external ids).  fmt=None guesses."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    parse = _PARSERS.get(fmt or guess_format(path, text))
    if parse is None:
        raise ParameterError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return parse(text)


def write_graph(
    g: Graph,
    path: str,
    fmt: Optional[str] = None,
    external_ids: Optional[Sequence[int]] = None,
) -> None:
    """Write a graph file; fmt=None guesses from the extension."""
    fmt = fmt or guess_format(path)
    if fmt == "dimacs":
        if external_ids is not None:
            raise ParameterError(
                "dimacs output renumbers vertices 1..n; external ids "
                "are only supported for edgelist output"
            )
        text = format_dimacs(g)
    elif fmt == "edgelist":
        text = format_edgelist(g, external_ids)
    else:
        raise ParameterError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
