"""Round-trip laws and parse errors for the three text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflcolor import (
    ParseError,
    ValidationError,
    fixture,
    random_decomposition,
    validate_decomposition,
)
from eflcolor.fixtures import complete_with_pairs
from eflcolor.files import (
    MAX_ORDER,
    decode,
    parse_coloring,
    parse_hypergraph,
    parse_instance,
    serialize_coloring,
    serialize_hypergraph,
    serialize_instance,
)
from eflcolor.hypergraph import decomposition_to_quasicluster


K9_DUAL = decomposition_to_quasicluster(fixture("paper_k9"))[0]  # 9 edges


class TestInstanceFormat:
    def test_round_trip_paper_k9(self):
        d = fixture("paper_k9")
        text = serialize_instance(d)
        again = parse_instance(text)
        assert again == d
        assert serialize_instance(again) == text

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 9), seed=st.integers(0, 500))
    def test_round_trip_random(self, n, seed):
        d = random_decomposition(n, seed)
        assert parse_instance(serialize_instance(d)) == d

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nn 3\nelement 0 1  # trailing\nelement 0 2\n\nelement 1 2\n"
        d = parse_instance(text)
        assert len(d.elements) == 3

    def test_auto_edges_directive(self):
        text = "n 9\n" + "\n".join(
            "element " + " ".join(map(str, t))
            for t in [(0, 3, 6), (1, 4, 7), (5, 8, 2), (0, 2, 4), (4, 6, 8), (8, 1, 3), (3, 5, 7)]
        ) + "\nauto-edges\n"
        assert parse_instance(text) == fixture("paper_k9")

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_auto_edges_is_complete_with_pairs(self, n):
        given = ((n - 1, 0, 1), (3, 2))
        text = f"n {n}\n" + "".join(
            "element " + " ".join(map(str, t)) + "\n" for t in given
        )
        d = parse_instance(text + "auto-edges\n")
        expected = validate_decomposition(n, complete_with_pairs(n, given))
        assert d.elements == expected.elements

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("element 0 1\n")

    def test_bad_token_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("n 3\nelement 0 x\nelement 0 2\nelement 1 2\n")
        assert exc.value.line == 2
        assert exc.value.column == 11

    def test_bad_token_column_is_its_own(self):
        # "e" also occurs in the keyword; the column is the token's own
        with pytest.raises(ParseError) as exc:
            parse_instance("n 3\nelement 0 1 e\n")
        assert (exc.value.line, exc.value.column) == (2, 13)
        assert "vertex: 'e' is not an integer" in str(exc.value)

    def test_semantic_errors_still_raise_validation(self):
        with pytest.raises(ValidationError):
            parse_instance("n 3\nelement 0 1\nelement 0 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_instance("n 3\nvertex 0\n")

    def test_order_above_cap_rejected_before_expansion(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("n 100000\nauto-edges\n")
        assert (exc.value.line, exc.value.column) == (1, 3)
        assert f"order must be at most {MAX_ORDER}, got 100000" in str(exc.value)


class TestColoringFormat:
    def test_round_trip(self):
        text = serialize_coloring((6, 8, 7), 3)
        doc = parse_coloring(text)
        assert doc.assignment == {0: 6, 1: 8, 2: 7}
        assert doc.colors_used == 3
        assert serialize_coloring(
            [doc.assignment[i] for i in range(3)], doc.colors_used
        ) == text

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_coloring("colors-used 1\ncolor 0 1\ncolor 0 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_coloring("color 0 1\n")

    def test_declared_count_mismatch_points_at_the_count(self):
        with pytest.raises(ParseError) as exc:
            parse_coloring("# a\ncolor 0 0\n\ncolors-used  3\ncolor 1 1\n")
        assert (exc.value.line, exc.value.column) == (4, 14)
        assert "declares colors-used 3 but uses 2 colors" in str(exc.value)


@pytest.mark.parametrize(
    "parse, text, header",
    [
        (parse_instance, "# empty\nauto-edges\n", "n <int>"),
        (parse_coloring, "# c\ncolor 0 0\n", "colors-used <int>"),
        (parse_hypergraph, "edge A : x y\n", "edges <int>"),
    ],
)
def test_missing_header_has_no_position(parse, text, header):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (None, None)
    assert str(exc.value) == f"missing '{header}' header"


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_instance, "n 3\n# again\nn 3\nauto-edges\n", 3),
        (parse_coloring, "colors-used 1\n" + serialize_coloring((0, 1, 2), 3), 2),
        (parse_hypergraph, "edges 3\n" + serialize_hypergraph(K9_DUAL), 2),
    ],
    ids=["instance", "coloring", "hypergraph"],
)
def test_second_header_rejected(parse, text, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, 1)
    assert str(exc.value).endswith("duplicate header line")


@pytest.mark.parametrize(
    "parse, text, column, what, token",
    [
        (parse_instance, "n 1_1\n", 3, "order", "1_1"),
        (parse_instance, "n +3\n", 3, "order", "+3"),
        (parse_instance, "n 3\nelement +0 1\n", 9, "vertex", "+0"),
        (parse_instance, "n 3\nelement 0 \u0662\n", 11, "vertex", "\u0662"),
        (parse_instance, "n 3\nelement 0 1\u00b2\n", 11, "vertex", "1\u00b2"),
        (parse_instance, "n 3\nelement 0 -\n", 11, "vertex", "-"),
        (parse_instance, "n 3\nelement 0 --1\n", 11, "vertex", "--1"),
        (parse_coloring, "colors-used 1\ncolor 0_2 2\n", 7, "element index", "0_2"),
        (parse_coloring, "colors-used 1\ncolor 0 +0\n", 9, "color index", "+0"),
        (parse_coloring, "colors-used \u0661\n", 13, "count", "\u0661"),
        (parse_hypergraph, "edges 1_0\n", 7, "edge count", "1_0"),
        (parse_hypergraph, "edges \u0663\n", 7, "edge count", "\u0663"),
    ],
)
def test_only_ascii_digits_are_integers(parse, text, column, what, token):
    # int() alone takes '_' separators, a '+' sign and any Unicode digit;
    # the bad token is on the text's last line
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (text.count("\n"), column)
    assert str(exc.value).endswith(f"{what}: {token!r} is not an integer")


def test_negative_vertex_reaches_validation():
    with pytest.raises(ValidationError) as exc:
        parse_instance("n 3\nelement -1 1\nauto-edges\n")
    assert "LabelOutOfRange 0 -1" in str(exc.value)


def test_auto_edges_takes_no_arguments():
    with pytest.raises(ParseError) as exc:
        parse_instance("n 3\n  auto-edges please ignore me\n")
    assert (exc.value.line, exc.value.column) == (2, 14)
    assert str(exc.value).endswith("auto-edges takes no arguments")


TRIANGLE = "edges 3\nedge A : a b\nedge B : a c\nedge C : b c\n"  # K_3's dual

# what str.splitlines cuts at besides "\r\n", "\r" and "\n"
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    """Lines end at "\\r\\n", "\\r" or "\\n" only, as universal newlines
    read them, so a comment runs on to one of those."""

    @pytest.mark.parametrize(
        "mark", OTHER_BREAKS, ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"]
    )
    def test_comment_runs_past_other_breaks(self, mark):
        # the instance's one element is commented out, so K_3 is uncovered
        with pytest.raises(ValidationError) as exc:
            parse_instance(f"n 3\n# a{mark}element 0 1 2\n")
        assert {v.code for v in exc.value.violations} == {"EdgeUncovered"}
        h = parse_hypergraph(f"{TRIANGLE}# x{mark}edge D : p q\n")
        assert (h.n, len(h.edges)) == (3, 3)
        doc = parse_coloring(f"colors-used 1\ncolor 0 0\n# {mark} color 0 0\n")
        assert doc.assignment == {0: 0}

    def test_position_counts_only_real_line_ends(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("n 3\n# \u2028 \f\nelement 0 1 x\n")
        assert (exc.value.line, exc.value.column) == (3, 13)

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"], ids=["CR", "CRLF", "LF"])
    def test_every_format_reads_each_line_end(self, end):
        d = parse_instance(f"n 3{end}# c{end}element 0 1 2{end}")
        assert [e.vertices for e in d.elements] == [(0, 1, 2)]
        h = parse_hypergraph(TRIANGLE.replace("\n", end))
        assert (h.n, len(h.edges)) == (3, 3)
        doc = parse_coloring(f"colors-used 2{end}color 0 0{end}color 1 1")
        assert doc.assignment == {0: 0, 1: 1}

    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"n 3\n# \xe2\x80\xa8\nelement 0 1 \xff\n", 3),  # U+2028
            (b"n 3\r# c\relement 0 1 \xff\r", 3),
            (b"n 3\r\nelement 0 1 \xff\r\n", 2),
        ],
        ids=["LS", "CR", "CRLF"],
    )
    def test_bad_utf8_byte_position(self, raw, line):
        with pytest.raises(ParseError) as exc:
            decode(raw)
        assert (exc.value.line, exc.value.column) == (line, 13)
        assert "byte 0xff is not valid UTF-8" in str(exc.value)


class TestHypergraphFormat:
    def test_round_trip_with_names(self):
        d = fixture("paper_k9")
        h, _ = decomposition_to_quasicluster(d)
        text = serialize_hypergraph(h)
        assert [line.split()[1] for line in text.splitlines()[1:]] == [
            f"E{i}" for i in range(9)
        ]
        again = parse_hypergraph(text)
        assert [tuple(map(str, e)) for e in h.edges] == list(again.edges)
        assert serialize_hypergraph(again) == text

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("edges 2\nedge A : x y\n")

    def test_count_mismatch_points_at_the_count(self):
        with pytest.raises(ParseError) as exc:
            parse_hypergraph("edge A : x y\n# two\n  edges 2\n")
        assert (exc.value.line, exc.value.column) == (3, 9)
        assert "header declares 2 edges, found 1" in str(exc.value)

    def test_duplicate_names(self):
        with pytest.raises(ParseError):
            parse_hypergraph(
                "edges 3\nedge A : x y\nedge A : y z\nedge B : x z\n"
            )

    def test_duplicate_name_points_at_the_repeat(self):
        # "e" also occurs in the keyword; the column is the name's own
        with pytest.raises(ParseError) as exc:
            parse_hypergraph(
                "edges 3\nedge e : x y\nedge B : y z\nedge  e : x z\n"
            )
        assert (exc.value.line, exc.value.column) == (4, 7)
        assert "duplicate edge names" in str(exc.value)

    @pytest.mark.parametrize("count", ["0", "1", "-2"])
    def test_edge_count_below_two(self, count):
        with pytest.raises(ParseError) as exc:
            parse_hypergraph(f"# none\nedges  {count}\n")
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert f"edge count must be at least 2, got {count}" in str(exc.value)

    def test_edge_count_above_cap(self):
        with pytest.raises(ParseError) as exc:
            parse_hypergraph(f"edges {MAX_ORDER + 1}\n")
        assert (exc.value.line, exc.value.column) == (1, 7)
        assert f"edge count must be at most {MAX_ORDER}, got {MAX_ORDER + 1}" in str(
            exc.value
        )
        with pytest.raises(ParseError, match=f"declares {MAX_ORDER} edges, found 0"):
            parse_hypergraph(f"edges {MAX_ORDER}\n")

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError):
            parse_hypergraph("edges 1\nedge A x y\n")

    def test_invalid_hypergraph_raises_validation(self):
        with pytest.raises(ValidationError):
            parse_hypergraph("edges 2\nedge A : x y\nedge B : p q\n")
