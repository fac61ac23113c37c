"""Quasicluster validation, the bijection with decompositions, padding."""

import random

import pytest

from eflcolor import (
    EdgeBecomesEmptyError,
    Hypergraph,
    ValidationError,
    VertexInOneElementError,
    check_vertex_coloring,
    color_decomposition,
    corollary_condition,
    decomposition_to_quasicluster,
    edge_arithmetic_check,
    extend_coloring,
    find_certificate,
    fixture,
    near_pencil,
    pad_to_uniform,
    quasicluster_to_decomposition,
    random_decomposition,
    strip_degree_one,
    transfer_coloring,
    transfer_coloring_back,
    trivial_edges,
    validate_decomposition,
    validate_quasicluster,
)
from eflcolor.hypergraph import _sorted_ids

TRIANGLE = [("a", "b"), ("b", "c"), ("a", "c")]


def codes(exc: ValidationError) -> set[str]:
    return {v.code for v in exc.violations}


class TestValidateQuasicluster:
    def test_triangle_pattern(self):
        h = validate_quasicluster(TRIANGLE)
        assert h.n == 3
        assert len(h.vertices()) == 3

    def test_paper_k9_conversion_valid(self):
        d = fixture("paper_k9")
        h, _ = decomposition_to_quasicluster(d)
        assert h.n == 9
        assert len(h.vertices()) == 22

    def test_two_shared_vertices_not_linear(self):
        with pytest.raises(ValidationError) as exc:
            validate_quasicluster([("a", "b", "c"), ("a", "b", "d"), ("c", "d", "a")])
        assert "NotLinear" in codes(exc.value)

    def test_disjoint_edges_not_intersecting(self):
        with pytest.raises(ValidationError) as exc:
            validate_quasicluster([("a", "b"), ("c", "d"), ("a", "c")])
        assert "NotIntersecting" in codes(exc.value)

    def test_degree_one_vertex_reported(self):
        with pytest.raises(ValidationError) as exc:
            validate_quasicluster([("a", "b", "x"), ("b", "c"), ("a", "c")])
        assert ("DegreeOneVertex", ("x",)) in {
            (v.code, v.args) for v in exc.value.violations
        }

    def test_oversized_edge_reported(self):
        with pytest.raises(ValidationError) as exc:
            validate_quasicluster(
                [("a", "b", "c", "d"), ("a", "b"), ("a", "c"), ("a", "d")][:3]
            )
        assert "EdgeTooLarge" in codes(exc.value) or "NotLinear" in codes(exc.value)


class TestBijection:
    def test_edge_triangle_both_ways(self):
        d = trivial_edges(3)
        h, corr = decomposition_to_quasicluster(d)
        assert h.n == 3
        assert all(len(e) == 2 for e in h.edges)
        back, _ = quasicluster_to_decomposition(h)
        assert [e.vertices for e in back.elements] == [
            e.vertices for e in d.elements
        ]

    def test_paper_k9_edge_sizes(self):
        d = fixture("paper_k9")
        h, _ = decomposition_to_quasicluster(d)
        # K_9 vertex 0 lies in G_0, H_0 and the pairs {0,1}, {0,5}, {0,7}, {0,8}
        assert len(h.edges[0]) == 6

    def test_round_trip_identity_on_fixtures(self):
        for d in (
            fixture("paper_k9"),
            trivial_edges(6),
            near_pencil(7),
            fixture("fano_k7"),
            fixture("sts9_k9"),
        ):
            h, _ = decomposition_to_quasicluster(d)
            back, _ = quasicluster_to_decomposition(h)
            assert back.n == d.n
            assert [e.vertices for e in back.elements] == [
                e.vertices for e in d.elements
            ]

    def test_converted_hypergraphs_are_valid(self):
        # decomposition_to_quasicluster does not validate what it builds; the
        # round trips in this class check the way back, which gives back d
        done = 0
        for d in (
            fixture("paper_k9"),
            trivial_edges(6),
            near_pencil(7),
            fixture("fano_k7"),
            fixture("sts9_k9"),
            *(random_decomposition(n, s) for n in range(4, 15) for s in range(10)),
        ):
            if len(d.elements) == 1:
                continue
            h, _ = decomposition_to_quasicluster(d)
            assert validate_quasicluster(h.edges) == h
            done += 1
        assert done >= 100

    def test_single_element_not_convertible(self):
        d = validate_decomposition(4, [(0, 1, 2, 3)])
        with pytest.raises(VertexInOneElementError):
            decomposition_to_quasicluster(d)

    def test_degree_one_vertex_not_convertible(self):
        padded, registry = pad_to_uniform(validate_quasicluster(TRIANGLE))
        with pytest.raises(ValidationError) as exc:
            quasicluster_to_decomposition(padded)
        assert [v.args for v in exc.value.violations] == [
            (v,) for fresh in registry.values() for v in fresh
        ]
        assert codes(exc.value) == {"DegreeOneVertex"}

    def test_seeded_round_trips(self):
        done = 0
        for n in range(4, 9):
            for seed in range(20):
                d = random_decomposition(n, seed)
                if len(d.elements) == 1:
                    continue
                h, _ = decomposition_to_quasicluster(d)
                back, _ = quasicluster_to_decomposition(h)
                assert [e.vertices for e in back.elements] == [
                    e.vertices for e in d.elements
                ]
                done += 1
        assert done >= 80


def sample_hypergraphs():
    """Quasiclusters of assorted decompositions, with integer and with
    shuffled string vertex ids (first appearance no longer sorted)."""
    decompositions = [
        fixture("paper_k9"),
        fixture("fano_k7"),
        fixture("sts9_k9"),
        trivial_edges(6),
        near_pencil(9),
    ] + [random_decomposition(n, seed) for n in range(4, 13) for seed in range(3)]
    for d in decompositions:
        if len(d.elements) == 1:
            continue
        h, _ = decomposition_to_quasicluster(d)
        yield h
        names = [str(i) for i in range(len(d.elements))] + ["a", "b10"]
        random.Random(len(d.elements)).shuffle(names)
        yield Hypergraph(tuple(tuple(names[v] for v in edge) for edge in h.edges))


def edges_containing(h, v):
    """Reference scan: the indices of the edges containing v, ascending."""
    return [i for i, edge in enumerate(h.edges) if v in edge]


class TestVertexEdges:
    def test_matches_edges_containing(self):
        for h in sample_hypergraphs():
            first_seen = list(dict.fromkeys(v for edge in h.edges for v in edge))
            index = h.vertex_edges()
            assert list(index) == h.vertices() == first_seen
            assert index == {v: edges_containing(h, v) for v in first_seen}

    def test_decomposition_matches_edge_scans(self):
        for h in sample_hypergraphs():
            d, corr = quasicluster_to_decomposition(h)
            order = _sorted_ids(dict.fromkeys(v for edge in h.edges for v in edge))
            expected = validate_decomposition(
                h.n, [tuple(edges_containing(h, u)) for u in order]
            )
            assert d == expected
            assert dict(corr.element_to_vertex) == dict(enumerate(order))

    def test_sorted_ids_reads_only_ascii_digits_as_numbers(self):
        # '²' and '٢' pass str.isdigit() but int() rejects '²': both sort
        # as strings, after the ASCII numbers
        assert _sorted_ids(["10", "²", "b", "٢", "9", 3]) == [3, "9", "10", "b", "²", "٢"]


class TestColoringTransfer:
    def test_triangle_transfer(self):
        d = trivial_edges(3)
        cert = find_certificate(d)
        colored = color_decomposition(d, cert)
        h, corr = decomposition_to_quasicluster(d)
        vc = transfer_coloring(colored.coloring, corr)
        verdict = check_vertex_coloring(h, vc)
        assert verdict.ok
        assert verdict.colors_used == colored.colors_used

    def test_paper_k9_transfer_and_back(self):
        d = fixture("paper_k9")
        colored = color_decomposition(d, find_certificate(d))
        h, corr = decomposition_to_quasicluster(d)
        vc = transfer_coloring(colored.coloring, corr)
        verdict = check_vertex_coloring(h, vc)
        assert verdict.ok
        assert verdict.colors_used == colored.colors_used
        assert transfer_coloring_back(vc, corr) == colored.coloring

    def test_improper_input_rejected(self):
        d = trivial_edges(3)
        h, corr = decomposition_to_quasicluster(d)
        with pytest.raises(ValueError):
            transfer_coloring((0, 0, 1), corr)
        with pytest.raises(ValueError):
            transfer_coloring_back(
                {v: 0 for v in h.vertices()}, corr
            )


class TestEdgeArithmetic:
    def test_paper_k9_labels_certify(self):
        d = fixture("paper_k9")
        h, corr = decomposition_to_quasicluster(d)
        # the edge for K_9 vertex v keeps label v
        labels = list(range(9))
        result = edge_arithmetic_check(h, labels)
        assert result is not None
        # central edges correspond to the central vertices 3,4,8,2,6,1,5
        assert sorted(result.central_edges.values()) == [1, 2, 3, 4, 5, 6, 8]

    def test_degree_two_vertices_always_certified(self):
        d = trivial_edges(6)
        h, _ = decomposition_to_quasicluster(d)
        assert edge_arithmetic_check(h, list(range(6))) is not None

    def test_non_arithmetic_label_set_fails(self):
        # vertex u with F(u) = {0,1,3} in Z_9 admits no representation:
        # build a hypergraph whose vertex "u" meets edges labeled 0, 1, 3
        d = fixture("sts9_k9")
        h, _ = decomposition_to_quasicluster(d)
        assert edge_arithmetic_check(h, list(range(9))) is None

    def test_agreement_with_find_certificate(self):
        agree = 0
        for n in range(4, 9):
            for seed in range(25):
                d = random_decomposition(n, seed)
                if len(d.elements) == 1:
                    continue
                h, corr = decomposition_to_quasicluster(d)
                direct = find_certificate(d)
                # relabel edge j by j: F(u) for the vertex of element i is
                # exactly the element's vertex set, so outcomes must agree
                through = edge_arithmetic_check(h, list(range(d.n)))
                assert (direct is None) == (through is None)
                agree += 1
        assert agree >= 100

    def test_bad_labeling_rejected(self):
        d = trivial_edges(4)
        h, _ = decomposition_to_quasicluster(d)
        with pytest.raises(ValueError):
            edge_arithmetic_check(h, [0, 1, 1, 2])


class TestCorollary:
    def test_all_degree_two_true(self):
        d = trivial_edges(5)
        h, _ = decomposition_to_quasicluster(d)
        assert corollary_condition(h)

    def test_paper_k9_false(self):
        # each K_9 vertex lies in two triangles, giving edges two odd vertices
        d = fixture("paper_k9")
        h, _ = decomposition_to_quasicluster(d)
        assert not corollary_condition(h)

    def test_near_pencil_even_n_true(self):
        d = near_pencil(6)
        h, _ = decomposition_to_quasicluster(d)
        assert corollary_condition(h)

    def test_two_odd_vertices_in_one_edge_false(self):
        d = fixture("sts9_k9")
        h, _ = decomposition_to_quasicluster(d)
        assert not corollary_condition(h)


class TestPadStrip:
    def test_triangle_pad(self):
        h = validate_quasicluster(TRIANGLE)
        padded, registry = pad_to_uniform(h)
        assert all(len(e) == 3 for e in padded.edges)
        assert all(len(registry[i]) == 1 for i in range(3))

    def test_pad_preserves_intersections(self):
        d = fixture("paper_k9")
        h, _ = decomposition_to_quasicluster(d)
        padded, _ = pad_to_uniform(h)
        assert all(len(e) == 9 for e in padded.edges)
        for i in range(9):
            for j in range(i + 1, 9):
                assert len(set(padded.edges[i]) & set(padded.edges[j])) == 1

    def test_pad_then_strip_identity(self):
        for d in (trivial_edges(4), fixture("paper_k9"), fixture("fano_k7")):
            h, _ = decomposition_to_quasicluster(d)
            padded, _ = pad_to_uniform(h)
            assert strip_degree_one(padded).edges == h.edges

    def test_strip_on_clean_input_is_identity(self):
        h = validate_quasicluster(TRIANGLE)
        assert strip_degree_one(h).edges == h.edges

    def test_uniform_input_unchanged(self):
        h = validate_quasicluster(TRIANGLE)
        padded, registry = pad_to_uniform(pad_to_uniform(h)[0])
        assert all(added == () for added in registry.values())

    def test_degenerate_strip_raises(self):
        from eflcolor import Hypergraph

        with pytest.raises(EdgeBecomesEmptyError):
            strip_degree_one(Hypergraph((("x", "y"), ("p", "q"))))

    def test_strip_to_undersized_edges_rejected(self):
        from eflcolor import Hypergraph

        # only the shared apex survives, leaving size-1 edges
        bad = Hypergraph((("a", "b"), ("a", "c"), ("a", "d")))
        with pytest.raises(ValidationError) as exc:
            strip_degree_one(bad)
        assert "EdgeTooSmall" in codes(exc.value)


class TestExtendColoring:
    def test_triangle_extension(self):
        h = validate_quasicluster(TRIANGLE)
        padded, _ = pad_to_uniform(h)
        base = {"a": 0, "b": 1, "c": 2}
        extended = extend_coloring(base, padded)
        assert check_vertex_coloring(padded, extended).ok
        for v, c in base.items():
            assert extended[v] == c
        assert max(extended.values()) < padded.n

    def test_paper_k9_extension(self):
        d = fixture("paper_k9")
        colored = color_decomposition(d, find_certificate(d))
        h, corr = decomposition_to_quasicluster(d)
        vc = transfer_coloring(colored.coloring, corr)
        padded, _ = pad_to_uniform(h)
        extended = extend_coloring(vc, padded)
        assert check_vertex_coloring(padded, extended).ok
        assert max(extended.values()) < 9

    def test_identity_on_unpadded(self):
        h = validate_quasicluster(TRIANGLE)
        base = {"a": 0, "b": 1, "c": 2}
        assert extend_coloring(base, h) == base
