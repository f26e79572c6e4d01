"""DIMACS and edge-list parsing, serialization, format guessing."""

import pytest

import alphabound as ab
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
    with pytest.raises(ab.ParameterError):
        ab.guess_format("mystery")


def _roundtrip_corpus():
    for n in (0, 1, 7, 64, 300):
        for prob in (0.0, 0.05, 0.3, 0.7, 1.0):
            yield ab.gnp(n, prob, seed=n * 10 + int(prob * 10))
    yield ab.disjoint_union(ab.gnp(40, 0.2, seed=3), ab.empty_graph(5))
    yield ab.disjoint_union(ab.empty_graph(3), ab.cycle_graph(6))


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
            assert ab.Graph(parsed.adjacency) == parsed
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
