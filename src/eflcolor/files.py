"""Line-oriented text formats for instances, colorings and hypergraphs.

All three formats are diff-friendly UTF-8 text; ``#`` starts a comment and
blank lines are ignored. Serializers emit elements in stored order, so
parse/serialize round trips are lossless.

Instance file::

    n 9
    element 0 3 6
    auto-edges        # optional: complete uncovered pairs as order-2 elements

Coloring file::

    colors-used 9
    color 0 6

Hypergraph file::

    edges 3
    edge E0 : a b
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fixtures import complete_with_pairs
from .hypergraph import Quasicluster, validate_quasicluster
from .model import CliqueDecomposition, validate_decomposition

# Largest order n (for hypergraphs: edge count) read from a file or the
# command line. Validation lists every uncovered pair of K_n, so cost grows
# as n^2: rejecting a one-element instance took 0.3 s and 49 MB at n = 500
# and 1.6 s and 152 MB at n = 1000 (2-core Xeon VM).
MAX_ORDER = 500


@dataclass(frozen=True)
class ColoringDoc:
    """Parsed coloring file: explicit assignment plus the declared count."""

    assignment: dict[int, int]
    colors_used: int


def _lines(text: str) -> list[str]:
    """``text`` cut at "\\r\\n", "\\r" and "\\n", as universal newlines
    read it. ``str.splitlines`` also cuts at "\\v", "\\f", "\\x1c" to
    "\\x1e", "\\x85", "\\u2028" and "\\u2029", which would end a comment
    early and parse the rest of its line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def decode(raw: bytes) -> str:
    """A file's bytes as UTF-8 text; a byte that is not UTF-8 raises a
    ParseError at its line and column."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "\0" stands in for the bad byte
        lines = _lines(raw[: exc.start].decode("utf-8") + "\0")
        bad = f"byte 0x{raw[exc.start]:02x} is not valid UTF-8"
        raise ParseError(len(lines), len(lines[-1]), bad)


def _content_lines(text: str):
    for lineno, raw in enumerate(_lines(text), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped, raw


def _token_column(raw: str, i: int) -> int:
    """Column of the i-th whitespace-separated token of a content line."""
    return [m.start() for m in re.finditer(r"\S+", raw)][i] + 1


def is_integer(token: str) -> bool:
    """Whether a token spells an integer: ASCII digits with an optional
    leading '-' (``int()`` alone would also take '+', '_' and non-ASCII
    digits)."""
    return token.isascii() and token.removeprefix("-").isdigit()


def _int_token(tokens: list[str], i: int, lineno: int, raw: str, what: str) -> int:
    """The i-th token of a content line as an integer (see ``is_integer``)."""
    token = tokens[i]
    if is_integer(token):
        return int(token)
    raise ParseError(
        lineno, _token_column(raw, i), f"{what}: {token!r} is not an integer"
    )


def _size_token(tokens: list[str], i: int, lineno: int, raw: str, what: str) -> int:
    """A header's order or edge count: an integer in 2..MAX_ORDER."""
    value = _int_token(tokens, i, lineno, raw, what)
    if value < 2:
        bound = "at least 2"
    elif value > MAX_ORDER:
        bound = f"at most {MAX_ORDER}"
    else:
        return value
    raise ParseError(
        lineno, _token_column(raw, i), f"{what} must be {bound}, got {value}"
    )


def parse_instance(text: str) -> CliqueDecomposition:
    """Parse and validate an instance file."""
    n: int | None = None
    elements: list[tuple[int, ...]] = []
    auto_edges = False
    for lineno, line, raw in _content_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "n":
            if n is not None:
                raise ParseError(lineno, 1, "duplicate header line")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "header must be exactly 'n <int>'")
            n = _size_token(tokens, 1, lineno, raw, "order")
        elif keyword == "element":
            if n is None:
                raise ParseError(lineno, 1, "element before the 'n <int>' header")
            if len(tokens) < 2:
                raise ParseError(lineno, 1, "element line lists at least one vertex")
            elements.append(
                tuple(
                    _int_token(tokens, i, lineno, raw, "vertex")
                    for i in range(1, len(tokens))
                )
            )
        elif keyword == "auto-edges":
            if len(tokens) > 1:
                raise ParseError(
                    lineno, _token_column(raw, 1), "auto-edges takes no arguments"
                )
            auto_edges = True
        else:
            raise ParseError(lineno, 1, f"unknown directive {keyword!r}")
    if n is None:
        raise ParseError(None, None, "missing 'n <int>' header")
    if auto_edges:
        elements = list(complete_with_pairs(n, tuple(elements)))
    return validate_decomposition(n, elements)


def serialize_instance(d: CliqueDecomposition, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {d.n}")
    lines.extend(
        "element " + " ".join(str(v) for v in elem.vertices) for elem in d.elements
    )
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> ColoringDoc:
    """Parse a coloring file whose header counts the colors it assigns."""
    declared: int | None = None
    assignment: dict[int, int] = {}
    for lineno, line, raw in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "colors-used":
            if declared is not None:
                raise ParseError(lineno, 1, "duplicate header line")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "header must be 'colors-used <int>'")
            declared = _int_token(tokens, 1, lineno, raw, "count")
            declared_at = (lineno, _token_column(raw, 1))
        elif tokens[0] == "color":
            if len(tokens) != 3:
                raise ParseError(lineno, 1, "color line is 'color <element> <color>'")
            idx = _int_token(tokens, 1, lineno, raw, "element index")
            col = _int_token(tokens, 2, lineno, raw, "color index")
            if idx in assignment:
                raise ParseError(lineno, 1, f"element {idx} colored twice")
            assignment[idx] = col
        else:
            raise ParseError(lineno, 1, f"unknown directive {tokens[0]!r}")
    if declared is None:
        raise ParseError(None, None, "missing 'colors-used <int>' header")
    used = len(set(assignment.values()))
    if declared != used:
        raise ParseError(
            *declared_at,
            f"coloring declares colors-used {declared} but uses {used} colors",
        )
    return ColoringDoc(assignment, declared)


def serialize_coloring(
    coloring, colors_used: int, comments: tuple[str, ...] = ()
) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"colors-used {colors_used}")
    lines.extend(f"color {i} {c}" for i, c in enumerate(coloring))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Quasicluster:
    """Parse a hypergraph file into a validated quasicluster; edge names
    must be distinct but are not kept."""
    declared: int | None = None
    names: set[str] = set()
    edges: list[tuple[str, ...]] = []
    repeated_at: tuple[int, int] | None = None  # first repeated edge name
    for lineno, line, raw in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "edges":
            if declared is not None:
                raise ParseError(lineno, 1, "duplicate header line")
            if len(tokens) != 2:
                raise ParseError(lineno, 1, "header must be 'edges <int>'")
            declared = _size_token(tokens, 1, lineno, raw, "edge count")
            declared_at = (lineno, _token_column(raw, 1))
        elif tokens[0] == "edge":
            if len(tokens) < 4 or tokens[2] != ":":
                raise ParseError(
                    lineno, 1, "edge line is 'edge <name> : <v1> <v2> ...'"
                )
            if tokens[1] in names and repeated_at is None:
                repeated_at = (lineno, _token_column(raw, 1))
            names.add(tokens[1])
            edges.append(tuple(tokens[3:]))
        else:
            raise ParseError(lineno, 1, f"unknown directive {tokens[0]!r}")
    if declared is None:
        raise ParseError(None, None, "missing 'edges <int>' header")
    if declared != len(edges):
        raise ParseError(
            *declared_at, f"header declares {declared} edges, found {len(edges)}"
        )
    if repeated_at is not None:
        raise ParseError(*repeated_at, "duplicate edge names")
    return validate_quasicluster(edges)


def serialize_hypergraph(h: Quasicluster, comments: tuple[str, ...] = ()) -> str:
    """Write ``h`` with its edges named E0, E1, ... in stored order."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"edges {h.n}")
    lines.extend(
        f"edge E{i} : " + " ".join(map(str, edge)) for i, edge in enumerate(h.edges)
    )
    return "\n".join(lines) + "\n"
