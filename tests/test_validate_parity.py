"""The two validators against their pair-by-pair reference versions.

``validate_decomposition`` and ``validate_quasicluster`` check their pairs
through per-vertex (per-edge) bitmasks of the partners met once and twice.
The references below count each pair directly, as both did before: every
input must give the same result, the same violations in the same order, or
the same TypeError/ValueError message.
"""

import random
from itertools import combinations

import pytest

from eflcolor import (
    CliqueDecomposition,
    Element,
    Hypergraph,
    ValidationError,
    fixture,
    intersection_graph,
    near_pencil,
    random_decomposition,
    trivial_edges,
    validate_decomposition,
    validate_quasicluster,
)
from eflcolor.errors import Violation


def pair_count_decomposition(n, raw_elements):
    """Reference: counts the cover of every K_n edge in a dict."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")

    violations = []
    elements = []
    for idx, raw in enumerate(raw_elements):
        seen = set()
        for lab in raw:
            if not isinstance(lab, int) or isinstance(lab, bool):
                raise TypeError(f"element {idx}: label {lab!r} is not an integer")
            if lab < 0 or lab >= n:
                violations.append(Violation("LabelOutOfRange", (idx, lab)))
            elif lab in seen:
                violations.append(Violation("DuplicateLabel", (idx, lab)))
            else:
                seen.add(lab)
        if len(seen) < 2:
            violations.append(Violation("ElementTooSmall", (idx,)))
        elements.append(Element(tuple(sorted(seen))))

    cover = {}
    for elem in elements:
        for a, b in combinations(elem.vertices, 2):
            cover[(a, b)] = cover.get((a, b), 0) + 1
    for a, b in combinations(range(n), 2):
        count = cover.get((a, b), 0)
        if count == 0:
            violations.append(Violation("EdgeUncovered", (a, b)))
        elif count > 1:
            violations.append(Violation("EdgeMultiplyCovered", (a, b)))

    if violations:
        raise ValidationError(violations)
    return CliqueDecomposition(n, tuple(elements))


def pair_set_quasicluster(raw_edges):
    """Reference: intersects the vertex sets of every two edges."""
    edges = []
    violations = []
    for idx, raw in enumerate(raw_edges):
        listed = list(raw)
        deduped = []
        seen = set()
        for v in listed:
            if v in seen:
                violations.append(Violation("DuplicateVertex", (idx, v)))
            else:
                seen.add(v)
                deduped.append(v)
        edges.append(tuple(deduped))
    n = len(edges)

    for idx, edge in enumerate(edges):
        if len(edge) > n:
            violations.append(Violation("EdgeTooLarge", (idx,)))
        if len(edge) < 2:
            violations.append(Violation("EdgeTooSmall", (idx,)))
    for i, j in combinations(range(n), 2):
        common = set(edges[i]) & set(edges[j])
        if len(common) == 0:
            violations.append(Violation("NotIntersecting", (i, j)))
        elif len(common) > 1:
            violations.append(Violation("NotLinear", (i, j)))
    h = Hypergraph(tuple(edges))
    for v, deg in h.degrees().items():
        if deg < 2:
            violations.append(Violation("DegreeOneVertex", (v,)))

    if violations:
        raise ValidationError(violations)
    return h


def outcome(validate, *args):
    """What a validator does with its input, in comparable form."""
    try:
        return "ok", validate(*args)
    except ValidationError as exc:
        return "invalid", exc.violations
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def bases():
    """The named fixtures, ``trivial_edges``, ``near_pencil`` and
    ``random_decomposition`` up to n = 29, as test parameters."""
    named = [("paper_k9", fixture("paper_k9"))]
    named += [(name, fixture(name)) for name in ("fano_k7", "sts9_k9")]
    named += [(f"trivial_{n}", trivial_edges(n)) for n in (2, 3, 4, 7, 12, 29)]
    named += [(f"pencil_{n}", near_pencil(n)) for n in (3, 4, 8, 13, 29)]
    named += [
        (f"random_{n}_{seed}", random_decomposition(n, seed))
        for n in range(2, 30)
        for seed in range(2)
    ]
    return [pytest.param(d, id=name) for name, d in named]


def decomposition_mutants(d, rng):
    """Valid relabelings and broken copies of ``d``'s element lists.

    Elements dropped, added, merged or made singletons; labels out of
    range or duplicated; and a few of these at once.
    """
    n = d.n
    base = [list(e.vertices) for e in d.elements]
    m = len(base)

    def drop(els):
        del els[rng.randrange(len(els))]

    def add(els):
        els.append(rng.sample(range(n), rng.randint(2, min(n, 4))))

    def merge(els):
        if len(els) < 2:
            return
        i, j = sorted(rng.sample(range(len(els)), 2))
        els[i] = sorted(set(els[i]) | set(els[j]))
        del els[j]

    def singleton(els):
        i = rng.randrange(len(els))
        els[i] = els[i][:1]

    def out_of_range(els):
        i = rng.randrange(len(els))
        els[i].insert(rng.randrange(len(els[i]) + 1), rng.choice((-1, n, n + 3)))

    def duplicate(els):
        i = rng.randrange(len(els))
        els[i].append(rng.choice(els[i] or [0]))

    def empty(els):
        els[rng.randrange(len(els))] = []

    def shuffle(els):
        for e in els:
            rng.shuffle(e)
        rng.shuffle(els)

    moves = (drop, add, merge, singleton, out_of_range, duplicate, empty, shuffle)
    yield [list(e) for e in base]
    for move in moves:
        for _ in range(2):
            els = [list(e) for e in base]
            move(els)
            yield els
    for _ in range(6):
        els = [list(e) for e in base]
        for move in rng.sample(moves, rng.randint(2, 3)):
            if els:
                move(els)
        yield els
    if m:
        yield [list(e) for e in base[: m // 2]]  # half the elements: many uncovered
    yield base + base[:3]  # the first elements twice


def quasicluster_mutants(d, rng):
    """The dual hypergraph of ``d`` and broken copies of it.

    Edges dropped, made singletons, merged or given a repeated vertex;
    a fresh edge; string vertex names; and a few of these at once.
    """
    base = [list(members) for members in intersection_graph(d)]

    def drop(edges):
        del edges[rng.randrange(len(edges))]

    def singleton(edges):
        i = rng.randrange(len(edges))
        edges[i] = edges[i][:1]

    def fresh_singleton(edges):
        edges.append(["fresh"])

    def repeat(edges):
        i = rng.randrange(len(edges))
        v = rng.choice(edges[i] or ["x"])
        edges[i].insert(rng.randrange(len(edges[i]) + 1), v)

    def merge(edges):
        if len(edges) < 2:
            return
        i, j = sorted(rng.sample(range(len(edges)), 2))
        edges[i] = edges[i] + [v for v in edges[j] if v not in edges[i]]
        del edges[j]

    def add_edge(edges):
        present = sorted({v for e in edges for v in e if isinstance(v, int)})
        edges.append(rng.sample(present, min(len(present), 2)) + ["new"])

    def rename(edges):
        names = {}
        for e in edges:
            for v in e:
                names.setdefault(v, f"v{v}" if rng.random() < 0.5 else str(v))
        keys = list(names)
        values = list(names.values())
        rng.shuffle(values)
        table = dict(zip(keys, values))
        for i, e in enumerate(edges):
            edges[i] = [table[v] for v in e]

    moves = (drop, singleton, fresh_singleton, repeat, merge, add_edge, rename)
    yield [list(e) for e in base]
    for move in moves:
        for _ in range(2):
            edges = [list(e) for e in base]
            move(edges)
            yield edges
    for _ in range(6):
        edges = [list(e) for e in base]
        for move in rng.sample(moves, rng.randint(2, 3)):
            if edges:
                move(edges)
        yield edges


class TestDecompositionParity:
    @pytest.mark.parametrize("d", bases())
    def test_mutants_match_reference(self, d):
        rng = random.Random(d.n * 1000 + len(d.elements))
        kinds = set()
        for raw in decomposition_mutants(d, rng):
            expected = outcome(pair_count_decomposition, d.n, raw)
            assert outcome(validate_decomposition, d.n, raw) == expected, raw
            kinds.add(expected[0])
        assert kinds == {"ok", "invalid"}

    def test_valid_inputs_are_valid(self):
        for n in range(2, 30):
            d = random_decomposition(n, n)
            raw = [e.vertices for e in d.elements]
            assert outcome(validate_decomposition, n, raw) == ("ok", d)

    @pytest.mark.parametrize(
        "n, raw",
        [
            (3, [(0, 1), (0, "2"), (1, 2)]),
            (3, [(0, 1), (0, True), (1, 2)]),
            (3, [(0, 1), (0, 2.0), (1, 2)]),
            (3, [(0, 5), (0, None)]),  # a violation first, then the TypeError
            (1, []),
            (0, [(0, 1)]),
            (-4, [(0, 1)]),
            (2, []),
            (2, [(0, 1), (1, 0)]),
            (5, [(0, 1, 2, 3, 4), (4, 3)]),
            (4, [range(4)]),
            (4, [iter((0, 1, 2)), {0, 3}, [1, 3], (2, 3)]),
        ],
    )
    def test_edge_cases_match_reference(self, n, raw):
        raw_copy = [list(e) for e in raw]
        expected = outcome(pair_count_decomposition, n, [list(e) for e in raw_copy])
        assert outcome(validate_decomposition, n, raw_copy) == expected

    def test_uncovered_order_at_n_60(self):
        # rows with uncovered pairs far apart in the masks, one element only
        raw = [(0, 59), (3, 17, 40)]
        expected = outcome(pair_count_decomposition, 60, raw)
        assert expected[0] == "invalid"
        assert outcome(validate_decomposition, 60, raw) == expected


class TestQuasiclusterParity:
    @pytest.mark.parametrize("d", bases())
    def test_mutants_match_reference(self, d):
        rng = random.Random(d.n * 1000 + len(d.elements) + 1)
        kinds = set()
        for raw in quasicluster_mutants(d, rng):
            expected = outcome(pair_set_quasicluster, raw)
            assert outcome(validate_quasicluster, raw) == expected, raw
            kinds.add(expected[0])
        assert "invalid" in kinds

    @pytest.mark.parametrize(
        "raw",
        [
            [],
            [("a",)],
            [("a", "b")],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b"), ("c", "d")],
            [("a", "b", "c"), ("a", "b", "d"), ("c", "d", "a")],
            [(1, "1"), ("1", 2), (1, 2)],  # 1 and "1" are different vertices
            [(1, True), (1, 2), (True, 2)],  # True == 1: a repeated vertex
            [(["a"], "b"), ("b", "c")],  # unhashable vertex: TypeError
            [iter("ab"), "bc", ["a", "c"]],
            [("a", "b", "c", "d"), ("a", "e"), ("b", "e")],  # an edge too large
        ],
    )
    def test_edge_cases_match_reference(self, raw):
        copies = [list(e) for e in raw]
        expected = outcome(pair_set_quasicluster, [list(e) for e in copies])
        assert outcome(validate_quasicluster, copies) == expected
