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
It takes a file only when every line is regular: empty, a DIMACS ``c``
comment or header, or an ``e u v`` (DIMACS) or one- or two-token (edge
list) line whose numbers are ASCII digits, at most 18 of them, with tokens
separated by spaces or tabs, no space or tab before the first token, and
lines ended by ``\\n`` or ``\\r\\n``.  Any other file (an edge list with a
``#`` comment among them, or a line indented by a space), and any file that
fails a check, goes to the line loop, which reads one line at a time.  The
line loop is the reference the bulk pass must agree with, and the only
source of a ``ParseError``: its message and line number.  Both paths
validate once and wrap the rows they fill unchecked.

The bulk pass makes few passes over the text: byte counts check it is
regular, one pass finds the tokens, and a token opens its line when the
byte before it is an LF.  The number pass checks each digit as it takes
it.  Edge-list labels are ranked through a presence table while the
largest is below the token count, and by a sort above that.  The row fill
sums each byte's bits, a bounded chunk of rows at a time, each row only up
to its last neighbour.  The writers render each vertex label once and walk
each row's bits above the diagonal.

Readers return ``(graph, external_ids)`` where ``external_ids[i]`` is the
label the input used for internal vertex ``i`` (for DIMACS that is always
``i + 1``).  Witnesses reported to users should be mapped through it.
"""

from __future__ import annotations

import bisect
import os
from collections import namedtuple
from typing import Mapping, Optional, Sequence

import numpy as np

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
_LF, _CR, _TAB, _SPACE = b"\n\r\t "


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``values`` that differ from the one before."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _tokens(text: str) -> Optional[tuple[np.ndarray, ...]]:
    """Split regular text into tokens grouped by line, or None.

    Returns ``(buf, starts, ends, heads, counts)``: the text as uint8, each
    token's byte span, the index of each non-blank line's first token and
    the line's token count.  Text is regular when it is ASCII, has no DEL
    and no byte below 32 but tab, LF and CR, has a CR only before an LF
    (the end of the text counts as one), and has no line that opens with a
    space or a tab.
    """
    if not text.isascii():
        return None
    # Between two LFs, every token has a separator on each side and every
    # line ends with an LF.
    raw = f"\n{text}\n".encode("ascii")
    buf = np.frombuffer(raw, dtype=np.uint8)
    lf = (buf == _LF).nonzero()[0]
    opening = buf[1:][lf[:-1]]  # the first byte of each line
    tab = b"\t" in raw
    controls = lf.size + (np.count_nonzero(buf == _TAB) if tab else 0)
    if b"\r" in raw:
        cr = (buf == _CR).nonzero()[0]
        if np.count_nonzero(buf[1:][cr] != _LF):
            return None
        controls += cr.size
    if (b"\x7f" in raw or np.count_nonzero(buf < 32) != controls
            or np.count_nonzero(opening == _SPACE)
            or (tab and np.count_nonzero(opening == _TAB))):
        return None
    inside = buf > 32
    bounds = (inside[1:] != inside[:-1]).nonzero()[0]
    del inside
    # bounds[2i] is the byte before token i.  No line opens with a space or
    # a tab, so a token opens its line exactly when that byte is an LF.
    heads = (buf[bounds[::2]] == _LF).nonzero()[0]
    bounds += 1
    starts, ends = bounds[::2], bounds[1::2]
    counts = np.concatenate((heads[1:], (starts.size,))) - heads
    return buf, starts, ends, heads, counts


def _numbers(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Optional[np.ndarray]:
    """The int64 values of the tokens, or None unless each is 1 to 18 ASCII digits."""
    width = lengths.max(initial=0)
    if width > _MAX_DIGITS:
        return None
    # A byte that is not a digit is more than 9 once "0" is taken off, so
    # the largest byte taken tells whether every token is all digits.
    digit = buf - np.uint8(ord("0"))
    worst = digit[starts]  # every token has a first digit
    values = worst.astype(np.int64)
    for j in range(1, width):  # the j-th digit of every token that has one
        more = lengths > j
        d = digit[j:].take(starts, mode="clip")
        np.maximum(worst, d, out=worst, where=more)
        np.multiply(values, 10, out=values, where=more)
        np.add(values, d, out=values, where=more)
    return None if worst.max(initial=0) > 9 else values


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
# It sums them as float64, so a chunk's temporary is at most 1 MiB.
_FILL_BYTES = 1 << 17
_BIT_VALUES = 2.0 ** np.arange(8)  # bit i of a byte, as the float bincount sums


def _bulk_rows(n: int, keys: np.ndarray) -> list[int]:
    """The bit rows of the graph on ``n`` vertices whose sorted, distinct
    directed edges are ``keys = u * n + v``.

    Each row with an edge takes the bytes up to its last neighbour, laid
    end to end with the rows around it in chunks of at most ``_FILL_BYTES``
    bytes, so the fill holds a few times one chunk besides the rows: never
    an n x n or a rows x n temporary.
    """
    rows = [0] * n
    if not keys.size:
        return rows
    src, dst = np.divmod(keys, n)
    # Row r has the keys firsts[r] .. firsts[r + 1] - 1.
    firsts = np.concatenate((_first_of_runs(src).nonzero()[0], (keys.size,)))
    owners = src[firsts[:-1]].tolist()
    del src
    at = dst >> 3  # the byte of each key within its row
    # Row r takes bytes cuts[r] .. cuts[r + 1] - 1: up to its last neighbour.
    cuts = np.concatenate(((0,), (at[firsts[1:] - 1] + 1).cumsum()))
    at += cuts[:-1].repeat(firsts[1:] - firsts[:-1])
    bits = _BIT_VALUES[dst & 7]
    del dst
    cuts = cuts.tolist()
    a = 0
    while a < len(owners):
        base = cuts[a]
        b = max(a + 1, bisect.bisect_right(cuts, base + _FILL_BYTES) - 1)
        span = slice(firsts[a], firsts[b])
        at[span] -= base
        # Each (byte, bit) pair occurs once, so the sum of a byte's bits is their OR.
        chunk = np.bincount(at[span], weights=bits[span], minlength=cuts[b] - base)
        data = chunk.astype(np.uint8).tobytes()
        for v, lo, hi in zip(owners[a:b], cuts[a:b], cuts[a + 1:b + 1]):
            rows[v] = int.from_bytes(data[lo - base:hi - base], "little")
        a = b
    return rows


def _dimacs_edges(text: str) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    """``(n, u, v)`` of a regular DIMACS text whose endpoints ``u[i], v[i]``
    (0-based) are in range, or None."""
    scanned = _tokens(text)
    if scanned is None:
        return None
    buf, starts, ends, heads, counts = scanned
    line_starts = starts[heads]
    kinds = buf[line_starts]
    header = (kinds == ord("p")).nonzero()[0]
    is_edge = kinds == ord("e")
    edges = heads[is_edge]
    # Every line is one "c", "p" or "e" token and what follows it.
    if (header.size != 1 or np.count_nonzero(ends[heads] - line_starts != 1)
            or edges.size + 1 + np.count_nonzero(kinds == ord("c")) != kinds.size
            or counts[header[0]] != 4 or np.count_nonzero(counts[is_edge] != 3)):
        return None
    h = heads[header[0]]
    if (edges.size and edges[0] < h) or buf[starts[h + 1]:ends[h + 1]].tobytes() != b"edge":
        return None
    picked = np.concatenate(([h + 2, h + 3], edges + 1, edges + 2))
    first, lengths = starts[picked], ends[picked]
    lengths -= first
    del scanned, starts, ends, picked  # the token arrays are larger than the picked ones
    values = _numbers(buf, first, lengths)
    if values is None:
        return None
    n, m = int(values[0]), edges.size
    endpoints = values[2:]
    endpoints -= 1
    # An endpoint below 1 becomes a negative int64, which as unsigned is past n.
    if n >= _MAX_BULK_N or values[1] != m or np.count_nonzero(endpoints.view(np.uint64) >= n):
        return None
    return n, endpoints[:m], endpoints[m:]


def _dimacs_bulk(text: str) -> Optional[tuple[Graph, tuple[int, ...]]]:
    """The bulk pass over DIMACS text; None leaves the file to the line loop."""
    edges = _dimacs_edges(text)
    if edges is None:
        return None
    n, u, v = edges
    keys = _sorted_keys(n, u, v)
    # A self-loop, or a repeated or reversed edge, repeats a key.
    if np.count_nonzero(_first_of_runs(keys)) != keys.size:
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
    buf, starts, ends, heads, counts = scanned
    numbers = _numbers(buf, starts, ends - starts)
    if numbers is None or np.count_nonzero(counts > 2):
        return None
    pairs = heads[counts == 2]
    u, v = numbers[pairs], numbers[pairs + 1]
    del scanned, buf, starts, ends, heads, counts, pairs
    if np.count_nonzero(u == v):
        return None
    top = numbers.max(initial=-1)
    if top < numbers.size:
        # A table over 0..top costs no more than the tokens: its set entries
        # are the labels, and its running count ranks them.
        present = np.zeros(top + 1, dtype=bool)
        present[numbers] = True
        dense = present.cumsum()
        dense -= 1
        return present.nonzero()[0], dense[u], dense[v]
    # Labels up to 10^18 - 1 are ranked by a sort.
    labels = np.sort(numbers)
    labels = labels[_first_of_runs(labels)]
    return labels, labels.searchsorted(u), labels.searchsorted(v)


def _edgelist_bulk(text: str) -> Optional[tuple[Graph, tuple[int, ...]]]:
    """The bulk pass over edge-list text; None leaves the file to the line loop."""
    edges = _edgelist_edges(text)
    if edges is None:
        return None
    labels, u, v = edges
    keys = _sorted_keys(labels.size, u, v)
    del edges, u, v  # the keys hold the edges now
    # A repeated edge collapses to its first key, so the row fill sees each bit once.
    keys = keys[_first_of_runs(keys)]
    rows = _bulk_rows(labels.size, keys)
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
        rest = row >> (u + 1)
        if rest:
            prefix = f"{lead}{labels[u]} "
            while rest:  # the set bits in ascending order, walked inline
                low = rest & -rest
                lines.append(prefix + labels[u + low.bit_length()])
                rest ^= low
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
