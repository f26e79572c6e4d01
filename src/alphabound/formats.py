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
extensions; everything here dispatches through it.

Each parser has two paths, chosen from the text alone.  The bulk pass reads
the whole file as one byte array and does every check on numpy arrays:
range, self-loops and, for DIMACS, duplicates and the declared edge count.
It takes a file only when every line is regular: blank, a DIMACS ``c``
comment or header, or an ``e u v`` (DIMACS) or one- or two-token (edge
list) line whose numbers are ASCII digits, at most 18 of them, with tokens
separated by spaces or tabs and lines ended by ``\\n`` or ``\\r\\n``.  Any
other file (an edge list with a ``#`` comment among them), and any file
that fails a check, goes to the line loop, which reads one line at a time.
The line loop is the reference the bulk pass must agree with, and the only
source of a ``ParseError``: its message and line number.  Both paths
validate once and wrap the rows they fill unchecked.  The bulk pass fills
each row only up to its last neighbour, a bounded chunk of rows at a time.
The writers render each vertex label once and walk each row's bits above
the diagonal.

Readers return ``(graph, external_ids)`` where ``external_ids[i]`` is the
label the input used for internal vertex ``i`` (for DIMACS that is always
``i + 1``).  Witnesses reported to users should be mapped through it.
"""

from __future__ import annotations

import os
from collections import namedtuple
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ParameterError, ParseError
from .graph import Graph, iter_bits

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
        # Every line boundary is whitespace to split(), so the first token is
        # the first field of the first non-blank line.
        first = text.split(None, 1)[:1]
        return "dimacs" if first in (["c"], ["p"]) else "edgelist"
    raise ParameterError(
        f"cannot infer graph format from {path!r}; pass one of {FORMATS}"
    )


def _pad_rows(rows: list[int], size: int, message: str, lineno: Optional[int]) -> None:
    """Extend ``rows`` with empty rows up to ``size``.  An allocation that
    fails is the ParseError ``message.format(size)`` naming ``lineno``."""
    try:
        rows.extend([0] * (size - len(rows)))
    except (MemoryError, OverflowError):
        raise ParseError(message.format(size), lineno) from None


def parse_dimacs(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse DIMACS text into (graph, 1-based external ids)."""
    parsed = _dimacs_bulk(text)
    return _dimacs_lines(text) if parsed is None else parsed


def parse_edgelist(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse edge-list text into (graph, sorted original vertex labels)."""
    parsed = _edgelist_bulk(text)
    return _edgelist_lines(text) if parsed is None else parsed


# -- the bulk pass --------------------------------------------------------

_MAX_DIGITS = 18  # 10^18 - 1 < 2^63, so every regular number fits an int64
# The bulk pass takes n below 2^31, so a directed key u * n + v fits an int64.
_MAX_BULK_N = 1 << 31
# Byte classes: a separator (space, tab, CR, LF), a digit, another printable
# ASCII byte, or a byte the bulk pass leaves to the line loop.
_SEPARATOR, _DIGIT, _LETTER, _OTHER = 0, 1, 2, 3
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[0x21:0x7F] = _LETTER
_BYTE_CLASS[0x30:0x3A] = _DIGIT
_BYTE_CLASS[list(b" \t\r\n")] = _SEPARATOR


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``values`` that differ from the one before."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _tokens(text: str) -> Optional[tuple[np.ndarray, ...]]:
    """Split regular text into tokens grouped by line, or None.

    Returns ``(buf, starts, ends, digits, heads, counts)``: the text as
    uint8, each token's byte span, whether it is all digits, the index of
    each non-blank line's first token and the line's token count.  Text is
    regular when it is ASCII, printable apart from separators, and has a CR
    only before an LF.
    """
    if not text.isascii() or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    # Between two LFs, every token has a separator on each side and every
    # line ends with an LF.
    buf = np.frombuffer(f"\n{text}\n".encode("ascii"), dtype=np.uint8)
    classes = _BYTE_CLASS.take(buf)
    if classes.max() == _OTHER:
        return None
    # The byte-sized arrays are as large as the file: each goes once used.
    letters = classes == _LETTER
    inside = classes != _SEPARATOR
    del classes
    bounds = np.flatnonzero(inside[1:] != inside[:-1])
    del inside
    bounds += 1
    starts, ends = bounds[::2], bounds[1::2]
    # A token is all digits when none of its bytes is a letter.
    digits = ~np.logical_or.reduceat(letters, starts) if starts.size else letters[:0]
    del letters
    # The tokens of line i, between LFs i and i + 1, are cut[i] .. cut[i + 1] - 1.
    cut = starts.searchsorted(np.flatnonzero(buf == ord("\n")))
    counts = cut[1:] - cut[:-1]
    nonblank = counts > 0
    return buf, starts, ends, digits, cut[:-1][nonblank], counts[nonblank]


def _numbers(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
             digits: np.ndarray) -> Optional[np.ndarray]:
    """The int64 values of the tokens, or None unless each is 1 to 18 digits."""
    width = lengths.max(initial=0)
    if width > _MAX_DIGITS or not digits.all():
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    digit = buf - np.uint8(ord("0"))
    position = starts.copy()
    for j in range(width):  # the j-th digit of every token that has one
        more = lengths > j
        np.multiply(values, 10, out=values, where=more)
        np.add(values, digit.take(position, mode="clip"), out=values, where=more)
        position += 1
    return values


def _sorted_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The directed keys ``u * n + v`` and ``v * n + u`` of the edges
    ``u[i]-v[i]`` on ``n`` vertices, sorted."""
    m = u.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    keys.sort()
    return keys


# The row fill packs at most this many bytes at a time, or one row if wider.
_FILL_BYTES = 1 << 20


def _bulk_rows(n: int, keys: np.ndarray) -> list[int]:
    """The bit rows of the graph on ``n`` vertices whose sorted directed
    edges are ``keys = u * n + v``.

    Each row with an edge takes the bytes up to its last neighbour, laid
    end to end with the rows around it in chunks of at most ``_FILL_BYTES``
    bytes, so the fill holds no more than the rows themselves: never an
    n x n or a rows x n temporary.
    """
    rows = [0] * n
    if not keys.size:
        return rows
    src, dst = np.divmod(keys, n)
    starts = np.flatnonzero(_first_of_runs(src))  # each row's first key
    stops = np.append(starts[1:], keys.size)
    owners = src[starts].tolist()
    del src
    widths = dst[stops - 1] // 8 + 1  # the bytes up to each row's last neighbour
    ends = np.cumsum(widths)
    offsets = ends - widths
    del widths
    at = np.repeat(offsets, stops - starts)  # the byte of each key
    at += dst >> 3
    bits = np.left_shift(np.uint8(1), (dst & 7).astype(np.uint8))
    del dst
    a = 0
    while a < len(owners):
        base = int(offsets[a])
        b = max(a + 1, int(ends.searchsorted(base + _FILL_BYTES, side="right")))
        span = slice(starts[a], stops[b - 1])
        chunk = np.zeros(int(ends[b - 1]) - base, dtype=np.uint8)
        np.bitwise_or.at(chunk, at[span] - base, bits[span])
        data = chunk.tobytes()
        for v, lo, hi in zip(owners[a:b], (offsets[a:b] - base).tolist(),
                             (ends[a:b] - base).tolist()):
            rows[v] = int.from_bytes(data[lo:hi], "little")
        a = b
    return rows


def _dimacs_edges(text: str) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    """``(n, u, v)`` of a regular DIMACS text whose endpoints ``u[i], v[i]``
    (0-based) are in range, or None."""
    scanned = _tokens(text)
    if scanned is None:
        return None
    buf, starts, ends, digits, heads, counts = scanned
    kinds = np.where(ends[heads] - starts[heads] == 1, buf[starts[heads]], 0)
    is_header, is_edge = kinds == ord("p"), kinds == ord("e")
    header = np.flatnonzero(is_header)
    edges = heads[is_edge]
    if (not (is_header | is_edge | (kinds == ord("c"))).all() or header.size != 1
            or counts[header[0]] != 4 or (counts[is_edge] != 3).any()):
        return None
    h = heads[header[0]]
    if (edges.size and edges[0] < h) or buf[starts[h + 1]:ends[h + 1]].tobytes() != b"edge":
        return None
    picked = np.concatenate(([h + 2, h + 3], edges + 1, edges + 2))
    first, lengths, digits = starts[picked], ends[picked], digits[picked]
    lengths -= first
    del scanned, starts, ends, picked  # the token arrays are larger than the picked ones
    values = _numbers(buf, first, lengths, digits)
    if values is None:
        return None
    n, m = int(values[0]), edges.size
    endpoints = values[2:]
    endpoints -= 1
    if (n >= _MAX_BULK_N or values[1] != m
            or (m and (endpoints.min() < 0 or endpoints.max() >= n))):
        return None
    return n, endpoints[:m], endpoints[m:]


def _dimacs_bulk(text: str) -> Optional[tuple[Graph, tuple[int, ...]]]:
    """The bulk pass over DIMACS text; None leaves the file to the line loop."""
    edges = _dimacs_edges(text)
    if edges is None:
        return None
    n, u, v = edges
    keys = _sorted_keys(n, u, v)
    if not _first_of_runs(keys).all():  # a self-loop, or a repeated or reversed edge
        return None
    try:
        rows = _bulk_rows(n, keys)
    except MemoryError:  # the line loop names the header that asked for n
        return None
    return Graph._unchecked(rows), tuple(range(1, n + 1))


def _edgelist_edges(text: str) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(labels, u, v)`` of a regular, loop-free edge-list text: its sorted
    distinct labels and the dense ids ``u[i], v[i]`` of each edge, or None."""
    scanned = _tokens(text)
    if scanned is None:
        return None
    buf, starts, ends, digits, heads, counts = scanned
    numbers = _numbers(buf, starts, ends - starts, digits)
    if numbers is None or (counts > 2).any():
        return None
    pairs = heads[counts == 2]
    if (numbers[pairs] == numbers[pairs + 1]).any():
        return None
    labels = np.sort(numbers)
    labels = labels[_first_of_runs(labels)]
    return labels, labels.searchsorted(numbers[pairs]), labels.searchsorted(numbers[pairs + 1])


def _edgelist_bulk(text: str) -> Optional[tuple[Graph, tuple[int, ...]]]:
    """The bulk pass over edge-list text; None leaves the file to the line loop."""
    edges = _edgelist_edges(text)
    if edges is None:
        return None
    labels, u, v = edges
    # A repeated edge sets the same bits again: duplicates collapse.
    rows = _bulk_rows(labels.size, _sorted_keys(labels.size, u, v))
    return Graph._unchecked(rows), tuple(labels.tolist())


# -- the line loop ----------------------------------------------------------


def _dimacs_lines(text: str) -> tuple[Graph, tuple[int, ...]]:
    """The DIMACS line loop: the reference, and the source of every ParseError."""
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
                _pad_rows(rows, max(u, v),
                          "endpoint {} needs more vertices than fit in memory", lineno)
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
    _pad_rows(rows, n, "problem line declares {} vertices, more than fit in memory",
              header_line)
    return Graph._unchecked(rows), tuple(range(1, n + 1))


def _edgelist_lines(text: str) -> tuple[Graph, tuple[int, ...]]:
    """The edge-list line loop: the reference, and the source of every ParseError."""
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


def _edge_lines(g: Graph, labels: Mapping[int, str] | Sequence[str], lead: str) -> list[str]:
    """``lead + labels[u] + " " + labels[v]`` for each edge u < v, in
    lexicographic order, from labels the caller rendered once."""
    lines: list[str] = []
    for u, row in enumerate(g.adjacency):
        upper = row >> (u + 1)
        if upper:
            prefix = f"{lead}{labels[u]} "
            lines += [prefix + labels[u + 1 + v] for v in iter_bits(upper)]
    return lines


def format_dimacs(g: Graph) -> str:
    """Render a graph as DIMACS text; vertices are renumbered 1..n."""
    # Only vertices with an edge appear, so only they are rendered.
    labels = {v: str(v + 1) for v, d in enumerate(g.degrees) if d}
    lines = [f"p edge {g.n} {g.m}"]
    lines += _edge_lines(g, labels, "e ")
    return "\n".join(lines) + "\n"


def format_edgelist(
    g: Graph, external_ids: Optional[Sequence[int]] = None
) -> str:
    """Render a graph as edge-list text, isolated vertices as single tokens.

    ``external_ids`` (strictly increasing, one per vertex) relabels the
    output; by default vertices are written as 0..n-1.
    """
    labels = [str(label) for label in _check_external_ids(g, external_ids)]
    lines = _edge_lines(g, labels, "")
    lines.extend(labels[v] for v, d in enumerate(g.degrees) if d == 0)
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
