"""DIMACS and edge-list parsing, serialization, format guessing."""

import random
import tracemalloc

import pytest

import alphabound as ab
from alphabound import formats
from alphabound.formats import format_graph, read_graph_with_format

DIMACS_C5 = """c five cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""


def test_parse_dimacs():
    g, ids = ab.parse_dimacs(DIMACS_C5)
    assert g == ab.cycle_graph(5)
    assert ids == (1, 2, 3, 4, 5)


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(ab.ParseError) as e:
        ab.parse_dimacs("p edge 5 5\ne 6 1\n")
    assert e.value.line == 2
    assert "line 2" in str(e.value)


# (text, line of the error or None, message); the error's text is pinned
# too, because every reject keeps its class, line number and message.
DIMACS_REJECTS = [
    ("e 1 2\np edge 3 1\n", 1, "edge before problem line"),
    ("p edge 3 1\np edge 3 1\ne 1 2\n", 2, "repeated problem line"),
    ("p edge 3 2\ne 1 2\n", None, "problem line declared 2 edges, file has 1"),
    ("p edge 3 1\ne 1 1\n", 2, "self-loop at vertex 1"),
    ("p edge 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge 1 2"),
    ("q edge 3 1\n", 1, "unknown line type 'q'"),
    ("", None, "missing problem line"),
    ("p edge 3 x\n", 1, "non-integer sizes in problem line 'p edge 3 x'"),
    ("p edge 3 1\ne 0 2\n", 2, "endpoint out of range 1..3 in 'e 0 2'"),
    ("p edge 3 2\ne 2 1\ne 1 2\n", 3, "duplicate edge 1 2"),
    ("p edge 3 1\ne 1 x\n", 2, "non-integer endpoint in 'e 1 x'"),
    ("p edge 3 1\ne 1 2 3\n", 2, "expected 'e u v', got 'e 1 2 3'"),
    ("p edge 3 1\ne 1 4\n", 2, "endpoint out of range 1..3 in 'e 1 4'"),
    ("p edge -1 0\n", 1, "negative size in problem line"),
    ("p col 3 1\n", 1, "expected 'p edge N M', got 'p col 3 1'"),
    ("p edge 3\n", 1, "expected 'p edge N M', got 'p edge 3'"),
    ("c hi\n\np edge 2 1\n  e 1 2  \nx\n", 5, "unknown line type 'x'"),
    # A huge declared n allocates nothing before the file is known valid.
    ("p edge 1000000000000 1\ne 1 2\nx\n", 3, "unknown line type 'x'"),
    # A valid file whose n cannot be allocated names its problem line.
    (f"c huge\np edge {2 ** 61} 1\ne 1 2\n", 2,
     f"problem line declares {2 ** 61} vertices, more than fit in memory"),
    # An n past the index range cannot even be asked for: the same error.
    (f"p edge {10 ** 20} 0\n", 1,
     f"problem line declares {10 ** 20} vertices, more than fit in memory"),
    # A huge endpoint names its edge line, whether its rows cannot be
    # allocated (2^61) or cannot even be asked for (10^20).
    (f"p edge {2 ** 61} 1\ne 1 {2 ** 61}\n", 2,
     f"endpoint {2 ** 61} needs more vertices than fit in memory"),
    (f"p edge {10 ** 20} 1\ne 1 {10 ** 20}\n", 2,
     f"endpoint {10 ** 20} needs more vertices than fit in memory"),
]


@pytest.mark.parametrize(
    "text, line, message", DIMACS_REJECTS, ids=[case[0] for case in DIMACS_REJECTS]
)
def test_dimacs_rejects(text, line, message):
    with pytest.raises(ab.ParseError) as e:
        ab.parse_dimacs(text)
    assert e.value.line == line
    assert str(e.value) == (message if line is None else f"line {line}: {message}")


def test_parse_edgelist():
    text = "# comment\n3 7\n7 12  # trailing comment\n\n12 3\n99\n"
    g, ids = ab.parse_edgelist(text)
    assert ids == (3, 7, 12, 99)
    assert (g.n, g.m) == (4, 3)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)
    assert g.degree(3) == 0


def test_edgelist_duplicates_collapse():
    g, _ = ab.parse_edgelist("1 2\n1 2\n2 1\n")
    assert g.m == 1


EDGELIST_REJECTS = [
    ("1 1\n", 1, "self-loop at vertex 1"),
    ("1 2 3\n", 1, "expected 1 or 2 vertex ids per line, got 3"),
    ("-1 2\n", 1, "negative vertex id -1"),
    ("a b\n", 1, "vertex id must be an integer, got 'a'"),
    ("-1 a\n", 1, "negative vertex id -1"),
    ("a -1\n", 1, "vertex id must be an integer, got 'a'"),
    ("1 -2\n", 1, "negative vertex id -2"),
    ("x\n", 1, "vertex id must be an integer, got 'x'"),
    ("-3\n", 1, "negative vertex id -3"),
    ("1.5 2\n", 1, "vertex id must be an integer, got '1.5'"),
    ("0 1\n\n# c\n2 2 # loop\n", 4, "self-loop at vertex 2"),
]


@pytest.mark.parametrize(
    "text, line, message", EDGELIST_REJECTS, ids=[case[0] for case in EDGELIST_REJECTS]
)
def test_edgelist_rejects(text, line, message):
    with pytest.raises(ab.ParseError) as e:
        ab.parse_edgelist(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


def test_empty_edgelist():
    assert ab.format_edgelist(ab.empty_graph(0)) == ""
    g, ids = ab.parse_edgelist("")
    assert g.n == 0 and ids == ()


def test_roundtrips(tmp_path):
    g = ab.disjoint_union(ab.cycle_graph(5), ab.empty_graph(2))
    for fmt, name in (("dimacs", "g.col"), ("edgelist", "g.edges")):
        path = tmp_path / name
        ab.write_graph(g, str(path), fmt)
        back, _ = ab.read_graph(str(path))
        assert back == g


def test_edgelist_roundtrip_preserves_external_ids(tmp_path):
    g = ab.path_graph(3)
    path = tmp_path / "renamed.edges"
    ab.write_graph(g, str(path), external_ids=[10, 20, 30])
    back, ids = ab.read_graph(str(path))
    assert back == g and ids == (10, 20, 30)


def test_external_id_validation():
    g = ab.path_graph(3)
    with pytest.raises(ab.ParameterError):
        ab.format_edgelist(g, [3, 2, 1])
    with pytest.raises(ab.ParameterError):
        ab.format_edgelist(g, [1, 2])
    with pytest.raises(ab.ParameterError, match="non-negative"):
        ab.format_edgelist(g, [-1, 2, 3])
    with pytest.raises(ab.ParameterError):
        ab.write_graph(g, "unused.col", "dimacs", external_ids=[1, 2, 3])


def test_dimacs_renumbers_from_one():
    g = ab.path_graph(3)
    text = ab.format_dimacs(g)
    assert "p edge 3 2" in text
    back, ids = ab.parse_dimacs(text)
    assert back == g and ids == (1, 2, 3)


def test_guess_format():
    assert ab.guess_format("a.col") == "dimacs"
    assert ab.guess_format("a.edges") == "edgelist"
    assert ab.guess_format("mystery", "c hello\np edge 1 0\n") == "dimacs"
    assert ab.guess_format("mystery", "0 1\n") == "edgelist"
    assert ab.guess_format("mystery", "") == "edgelist"
    # The first token decides, past blank lines and leading whitespace.
    assert ab.guess_format("mystery", "\n\n \n\np edge 1 0\n") == "dimacs"
    assert ab.guess_format("mystery", " c hello\n") == "dimacs"
    assert ab.guess_format("mystery", "\tp edge 1 0\n") == "dimacs"
    assert ab.guess_format("mystery", "\n \t\r\n\v\f \n") == "edgelist"
    assert ab.guess_format("mystery", "cp edge 1 0\n") == "edgelist"
    with pytest.raises(ab.ParameterError):
        ab.guess_format("mystery")


def _roundtrip_corpus():
    for n in (0, 1, 7, 64, 300):
        for prob in (0.0, 0.05, 0.3, 0.7, 1.0):
            yield ab.gnp(n, prob, seed=n * 10 + int(prob * 10))
    yield ab.disjoint_union(ab.gnp(40, 0.2, seed=3), ab.empty_graph(5))
    yield ab.disjoint_union(ab.empty_graph(3), ab.cycle_graph(6))
    yield ab.Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (4, 5)])
    yield ab.cycle_graph(7)
    yield ab.path_graph(6)
    yield ab.h_np(9, 3)


def test_parsers_round_trip_the_writers():
    # The parsers build their rows unchecked; Graph(rows) re-validates them.
    for g in _roundtrip_corpus():
        sparse = [3 * v + v * v for v in range(g.n)]
        for parsed, ids, expected_ids in (
            (*ab.parse_dimacs(ab.format_dimacs(g)), tuple(range(1, g.n + 1))),
            (*ab.parse_edgelist(ab.format_edgelist(g)), tuple(range(g.n))),
            (*ab.parse_edgelist(ab.format_edgelist(g, sparse)), tuple(sparse)),
        ):
            assert parsed == g and (parsed.n, parsed.m) == (g.n, g.m)
            again = ab.Graph(parsed.adjacency)
            assert again == parsed
            # Every constructor keeps the row popcounts it counted for m.
            popcounts = tuple(row.bit_count() for row in g.adjacency)
            assert parsed.degrees == again.degrees == g.degrees == popcounts
            assert ids == expected_ids


def test_formats_share_one_table(tmp_path):
    for ext in (".col", ".DIMACS", ".clq"):
        assert ab.guess_format("g" + ext) == "dimacs"
    for ext in (".edgelist", ".edges", ".TXT"):
        assert ab.guess_format("g" + ext) == "edgelist"
    g = ab.cycle_graph(5)
    assert format_graph(g, "dimacs") == ab.format_dimacs(g)
    assert format_graph(g, "edgelist", range(10, 15)) == ab.format_edgelist(g, range(10, 15))
    path = tmp_path / "sniffed"
    path.write_text(ab.format_dimacs(g))
    assert read_graph_with_format(str(path)) == (g, (1, 2, 3, 4, 5), "dimacs")
    assert ab.read_graph(str(path)) == (g, (1, 2, 3, 4, 5))
    for call in (
        lambda: format_graph(g, "graphml"),
        lambda: ab.read_graph(str(path), "graphml"),
        lambda: ab.write_graph(g, str(tmp_path / "out.col"), "graphml"),
        lambda: format_graph(g, "dimacs", range(5)),
    ):
        with pytest.raises(ab.ParameterError):
            call()
    assert not (tmp_path / "out.col").exists()


def _writer_files(g):
    """Each file the writers make of g: (text, public parser, line loop)."""
    sparse = [3 * v + v * v for v in range(g.n)]
    yield ab.format_dimacs(g), ab.parse_dimacs, formats._dimacs_lines
    yield ab.format_edgelist(g), ab.parse_edgelist, formats._edgelist_lines
    yield ab.format_edgelist(g, sparse), ab.parse_edgelist, formats._edgelist_lines


def _outcome(parse, text):
    try:
        return parse(text)
    except ab.ParseError as e:
        return type(e), e.line, str(e)


# Each joins the tokens of one line; "\t" and " \t " keep the line regular.
_SEPARATORS = ("\t", " \t ", "\r\n", "\r", "\v", "\f", "\x85", "\x1c", "\x7f", "\x00")
# Each rewrites one token t of one line; a sign, an underscore, a non-ASCII
# digit or more than 18 digits make the line irregular.
_TOKEN_EDITS = (
    lambda t, n: "+" + t,
    lambda t, n: t[:1] + "_" + t[1:] if len(t) > 1 else t + "_",
    lambda t, n: "00" + t,
    lambda t, n: t[:-1] + "\u0663",  # ARABIC-INDIC DIGIT THREE: int() reads it
    lambda t, n: "1" + "0" * 18,
    lambda t, n: "9" * 25,
    lambda t, n: "0",
    lambda t, n: str(n + 1),
)


def _mutants(text, n, rng):
    """Seeded edits of one writer's file, regular and irregular alike."""
    lines = text.split("\n")[:-1]
    comment = "c" if text.startswith("p edge") else "#"

    def at(i, *new):
        return "\n".join(lines[:i] + list(new) + lines[i + 1:]) + "\n"

    yield text.replace("\n", "\r\n")
    yield text[:-1]
    yield f"{comment} a comment\n" + text
    yield text + f"{comment}\n\n"
    if not lines:
        return
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    for sep in _SEPARATORS:
        yield at(i, sep.join(fields))
    yield at(i, lines[i] + "  ")
    yield at(i, lines[i], "", f"{comment} note", lines[i])  # a repeated line
    yield at(i, lines[i], " ".join(fields[:-2] + fields[-1:-3:-1]))  # reversed
    yield at(i, lines[i] + " # trailing # comment")
    # A line that opens with a space or a tab leaves the file to the line loop.
    yield at(i, " " + lines[i])
    yield at(i, "\t" + lines[i])
    yield at(i, lines[i], f"{comment} a DEL \x7f byte")
    j = rng.randrange(len(fields))
    for edit in _TOKEN_EDITS:
        if fields[j].isdigit():
            yield at(i, " ".join(fields[:j] + [edit(fields[j], n)] + fields[j + 1:]))
    if comment == "c":
        n_, m = lines[0].split()[2:]
        yield at(0, f"p edge {n_} {int(m) + 1}")
        yield at(0, f"p edge {n_} {max(int(m) - 1, 0)}")
        yield at(0, f"p edges {n_} {m}")
        if len(lines) > 1:
            yield "\n".join(lines[1:2] + lines[:1] + lines[2:]) + "\n"
            yield at(len(lines) - 1, lines[-1] + "x")  # a letter in an endpoint


def test_bulk_pass_agrees_with_the_line_loop():
    # Every file, and every seeded mutant of the smaller ones, parses to the
    # same (graph, ids) on both paths or fails with the same class, line
    # and text.  The line loop is called directly as the reference.
    rng = random.Random(19)
    for g in _roundtrip_corpus():
        for text, parse, lines in _writer_files(g):
            assert parse(text) == lines(text)
            if g.n > 64:
                continue
            for mutant in _mutants(text, g.n, rng):
                assert _outcome(parse, mutant) == _outcome(lines, mutant), mutant


def test_edgelist_labels_take_the_table_or_the_sort():
    # Labels below the token count are ranked through a presence table, and
    # labels as far apart as 10^17 + 3v through a sort; both give the line
    # loop's (graph, ids).
    for g in _roundtrip_corpus():
        for ids, table in ((range(g.n), True), ([10**17 + 3 * v for v in range(g.n)], False)):
            text = ab.format_edgelist(g, ids)
            assert not g.n or (max(ids) < len(text.split())) == table
            assert formats._edgelist_bulk(text) == formats._edgelist_lines(text)


def test_writers_match_an_edge_by_edge_rendering():
    for g in _roundtrip_corpus():
        sparse = [3 * v + v * v for v in range(g.n)]
        dimacs = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        assert ab.format_dimacs(g) == "\n".join(dimacs) + "\n"
        for ids in (range(g.n), sparse):
            lines = [f"{ids[u]} {ids[v]}" for u, v in g.edges()]
            lines += [str(ids[v]) for v in g.vertices() if g.degree(v) == 0]
            assert ab.format_edgelist(g, ids) == "\n".join(lines) + ("\n" if lines else "")


def test_writers_files_take_the_bulk_path(monkeypatch):
    # A file the writers made that fell back to the line loop would still
    # parse right, only slower; so the line loop must not run at all.
    def refuse(text):
        raise AssertionError("the line loop ran on a writer's file")

    monkeypatch.setattr(formats, "_dimacs_lines", refuse)
    monkeypatch.setattr(formats, "_edgelist_lines", refuse)
    for g in _roundtrip_corpus():
        for text, parse, _ in _writer_files(g):
            expected = parse(text)
            assert expected[0] == g
            # CRLF line ends, tabs, blank lines and DIMACS comments are regular
            # too; an edge-list comment leaves the file to the line loop.
            assert parse(text.replace("\n", "\r\n")) == expected
            if text.startswith("p edge"):
                assert parse("c\tnote\n\n" + text.replace(" ", "\t")) == expected
            else:
                assert parse("\n\n" + text.replace(" ", "\t")) == expected


def test_row_fill_chunks_join_up(monkeypatch):
    # The row fill packs _FILL_BYTES at a time: at 1 byte every row is its
    # own chunk, at 5 a chunk holds one or more whole rows.
    expected = [(text, parse(text)) for g in _roundtrip_corpus()
                for text, parse, _ in _writer_files(g)]
    for size in (1, 5):
        monkeypatch.setattr(formats, "_FILL_BYTES", size)
        assert [(text, parse(text)) for g in _roundtrip_corpus()
                for text, parse, _ in _writer_files(g)] == expected


def _peak_bytes(call):
    """The result of ``call()`` and the most memory it held at once."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_file_io_memory_follows_the_file_not_n_squared(monkeypatch):
    # A star centred at vertex 1 puts an edge in every row: a fill with rows
    # as wide as n would hold 30,000 x 3,750 bytes.  Its rows need 34 kB, and
    # the parse holds a few dozen bytes per byte of text (tokens, keys), in
    # chunks or with the whole fill as one chunk.
    n = 30_000
    text = f"p edge {n} {n - 1}\n" + "".join(f"e 1 {v}\n" for v in range(2, n + 1))
    star = ab.Graph.from_edges(n, ((0, v) for v in range(1, n)))
    for size in (formats._FILL_BYTES, 1 << 62):
        monkeypatch.setattr(formats, "_FILL_BYTES", size)
        (g, _), peak = _peak_bytes(lambda: ab.parse_dimacs(text))
        assert g == star
        assert peak < 32 * len(text)
    # An edge list whose largest label is one below its token count still
    # takes the label table: a star from 0 to the odd labels below 2n.
    text = "".join(f"0 {2 * v + 1}\n" for v in range(n))
    (g, ids), peak = _peak_bytes(lambda: ab.parse_edgelist(text))
    assert ids == (0, *range(1, 2 * n, 2)) and (g.n, g.m, g.degree(0)) == (n + 1, n, n)
    assert peak < 32 * len(text)
    # Writing a path or an edgeless graph holds some bytes per byte written
    # (a line is a str, a label a str), not n x n bits.
    path = ab.path_graph(n)
    for g, fmt in ((path, "dimacs"), (path, "edgelist"), (ab.empty_graph(10 * n), "dimacs")):
        text, peak = _peak_bytes(lambda: ab.format_graph(g, fmt))
        assert peak < 32 * len(text) + 10**6, (fmt, g.n, g.m)
