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

One table, ``_FORMATS``, holds each format's parser, text writer and file
extensions; everything here dispatches through it.  The parsers validate
once: each checks every line as it reads it and wraps the bit rows it fills
unchecked (the edge list fills them after its last line, once the dense
relabelling is known), so no edge is checked a second time.

Readers return ``(graph, external_ids)`` where ``external_ids[i]`` is the
label the input used for internal vertex ``i`` (for DIMACS that is always
``i + 1``).  Witnesses reported to users should be mapped through it.
"""

from __future__ import annotations

import os
from collections import namedtuple
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
    "format_graph",
    "read_graph",
    "read_graph_with_format",
    "write_graph",
]


def _dimacs_text(g: Graph, external_ids: Optional[Sequence[int]]) -> str:
    if external_ids is not None:
        raise ParameterError("dimacs output renumbers vertices 1..n; external ids "
                             "are only supported for edgelist output")
    return format_dimacs(g)


# The entries look the parsers up when called, so a wrapper later bound to
# ``parse_dimacs`` or ``parse_edgelist`` (a profiler or tracer) sees every parse.
_Format = namedtuple("_Format", "parse render extensions")
_FORMATS = {
    "dimacs": _Format(lambda text: parse_dimacs(text), _dimacs_text,
                      {".col", ".dimacs", ".clq"}),
    "edgelist": _Format(lambda text: parse_edgelist(text),
                        lambda g, ids: format_edgelist(g, ids),
                        {".edgelist", ".edges", ".txt"}),
}
FORMATS = tuple(_FORMATS)


def _lookup(fmt: str) -> _Format:
    if fmt not in _FORMATS:
        raise ParameterError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _FORMATS[fmt]


def guess_format(path: str, text: Optional[str] = None) -> str:
    """Infer a format name from a file extension, else from content.

    Content sniffing (when ``text`` is given) looks at the first non-blank
    line: DIMACS files open with a ``c`` or ``p`` line.
    """
    ext = os.path.splitext(path)[1].lower()
    for name, entry in _FORMATS.items():
        if ext in entry.extensions:
            return name
    if text is not None:
        for raw in text.splitlines():
            fields = raw.split()
            if fields:
                return "dimacs" if fields[0] in ("c", "p") else "edgelist"
        return "edgelist"
    raise ParameterError(
        f"cannot infer graph format from {path!r}; pass one of {FORMATS}"
    )


def parse_dimacs(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse DIMACS text into (graph, 1-based external ids)."""
    n = None
    declared_m = None
    header_line = None
    m = 0
    # Rows grow with the largest endpoint seen, and to n only once the file
    # is valid: a header that declares a huge n allocates nothing before then.
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise ParseError("repeated problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(
                    f"expected 'p edge N M', got {raw.strip()!r}", lineno
                )
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(
                    f"non-integer sizes in problem line {raw.strip()!r}", lineno
                ) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative size in problem line", lineno)
            header_line = lineno
        elif kind == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(fields) != 3:
                raise ParseError(f"expected 'e u v', got {raw.strip()!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(
                    f"non-integer endpoint in {raw.strip()!r}", lineno
                ) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"endpoint out of range 1..{n} in {raw.strip()!r}", lineno
                )
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if u > len(rows) or v > len(rows):
                rows.extend([0] * (max(u, v) - len(rows)))
            bit = 1 << (v - 1)
            if rows[u - 1] & bit:
                raise ParseError(f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
            rows[u - 1] |= bit
            rows[v - 1] |= 1 << (u - 1)
            m += 1
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    if m != declared_m:
        raise ParseError(
            f"problem line declared {declared_m} edges, file has {m}"
        )
    try:
        rows.extend([0] * (n - len(rows)))
        external = tuple(range(1, n + 1))
    except MemoryError:
        raise ParseError(f"problem line declares {n} vertices, more than fit in memory",
                         header_line) from None
    return Graph._unchecked(rows), external


def parse_edgelist(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse edge-list text into (graph, sorted original vertex labels)."""
    isolated: list[int] = []
    ends: list[int] = []  # u0, v0, u1, v1, ... in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) > 2:
            raise ParseError(
                f"expected 1 or 2 vertex ids per line, got {len(fields)}",
                lineno,
            )
        ids = []
        for token in fields:
            try:
                ids.append(int(token))
            except ValueError:
                raise ParseError(
                    f"vertex id must be an integer, got {token!r}", lineno
                ) from None
            if ids[-1] < 0:
                raise ParseError(f"negative vertex id {ids[-1]}", lineno)
        if len(ids) == 1:
            isolated.append(ids[0])
        elif ids[0] == ids[1]:
            raise ParseError(f"self-loop at vertex {ids[0]}", lineno)
        else:
            ends += ids
    external = tuple(sorted(set(ends).union(isolated)))
    dense = {label: i for i, label in enumerate(external)}
    rows = [0] * len(external)
    for u, v in zip(ends[::2], ends[1::2]):
        u, v = dense[u], dense[v]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._unchecked(rows), external


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


def format_dimacs(g: Graph) -> str:
    """Render a graph as DIMACS text; vertices are renumbered 1..n."""
    lines = [f"p edge {g.n} {g.m}"]
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


def format_graph(g: Graph, fmt: str, external_ids: Optional[Sequence[int]] = None) -> str:
    """Render a graph as text in the named format (external ids: edgelist only)."""
    return _lookup(fmt).render(g, external_ids)


def read_graph_with_format(
    path: str, fmt: Optional[str] = None
) -> tuple[Graph, tuple[int, ...], str]:
    """``read_graph`` that also returns the format name it used (or guessed)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    fmt = fmt or guess_format(path, text)
    g, external = _lookup(fmt).parse(text)
    return g, external, fmt


def read_graph(path: str, fmt: Optional[str] = None) -> tuple[Graph, tuple[int, ...]]:
    """Read a graph file; returns (graph, external ids).  fmt=None guesses."""
    return read_graph_with_format(path, fmt)[:2]


def write_graph(
    g: Graph,
    path: str,
    fmt: Optional[str] = None,
    external_ids: Optional[Sequence[int]] = None,
) -> None:
    """Write a graph file; fmt=None guesses from the extension."""
    text = format_graph(g, fmt or guess_format(path), external_ids)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
