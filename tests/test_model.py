"""Decomposition validation, conflict graphs, properness verdicts."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflcolor import (
    CliqueDecomposition,
    Element,
    ValidationError,
    check_proper,
    fixture,
    intersection_graph,
    near_pencil,
    random_decomposition,
    trivial_edges,
    validate_decomposition,
)
from eflcolor import model

K9_TRIANGLES = [(0, 3, 6), (1, 4, 7), (5, 8, 2), (0, 2, 4), (4, 6, 8), (8, 1, 3), (3, 5, 7)]


def codes(exc: ValidationError) -> set[str]:
    return {v.code for v in exc.violations}


class TestValidate:
    def test_paper_k9_valid_with_22_elements(self):
        d = fixture("paper_k9")
        assert d.n == 9
        # 36 edges of K_9, 21 in triangles, 15 pairs remain
        assert len(d.elements) == 22
        assert [e.vertices for e in d.elements[:7]] == [
            tuple(sorted(t)) for t in K9_TRIANGLES
        ]

    def test_trivial_k3(self):
        d = validate_decomposition(3, [{0, 1}, {0, 2}, {1, 2}])
        assert len(d.elements) == 3

    def test_double_cover_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_decomposition(3, [{0, 1, 2}, {0, 1}])
        assert ("EdgeMultiplyCovered", (0, 1)) in {
            (v.code, v.args) for v in exc.value.violations
        }

    def test_uncovered_edge_reported(self):
        with pytest.raises(ValidationError) as exc:
            validate_decomposition(3, [{0, 1}, {0, 2}])
        assert ("EdgeUncovered", (1, 2)) in {
            (v.code, v.args) for v in exc.value.violations
        }

    def test_singleton_element_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_decomposition(3, [{0}, {0, 1}, {0, 2}, {1, 2}])
        assert "ElementTooSmall" in codes(exc.value)

    def test_label_out_of_range_not_reduced(self):
        with pytest.raises(ValidationError) as exc:
            validate_decomposition(3, [{0, 1}, {0, 2}, {1, 5}])
        assert "LabelOutOfRange" in codes(exc.value)
        with pytest.raises(ValidationError):
            validate_decomposition(3, [{0, 1}, {0, 2}, {1, -1}])

    def test_all_violations_collected(self):
        with pytest.raises(ValidationError) as exc:
            validate_decomposition(4, [{0, 1, 2}, {0, 1}, {9}])
        found = codes(exc.value)
        assert {"EdgeMultiplyCovered", "ElementTooSmall", "LabelOutOfRange"} <= found
        assert any(v.code == "EdgeUncovered" for v in exc.value.violations)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            validate_decomposition(1, [])

    def test_order_preserved(self):
        d = validate_decomposition(3, [(1, 2), (0, 2), (0, 1)])
        assert [e.vertices for e in d.elements] == [(1, 2), (0, 2), (0, 1)]


class TestIntersectionGraph:
    def test_triangle_of_edges(self):
        d = validate_decomposition(3, [{0, 1}, {0, 2}, {1, 2}])
        g = intersection_graph(d)
        assert g.cliques == ((0, 1), (0, 2), (1, 2))
        assert g.neighbors == ((1, 2), (0, 2), (0, 1))

    def test_k4_plus_pendants_in_k5(self):
        d = validate_decomposition(
            5, [(0, 1, 2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
        )
        g = intersection_graph(d)
        assert set(g.neighbors[0]) == {1, 2, 3, 4}
        # pendant edges all meet at vertex 4
        assert g.cliques[4] == (1, 2, 3, 4)
        for i in range(1, 5):
            assert g.neighbors[i] == tuple(j for j in range(5) if j != i)

    def test_paper_k9_g0_meets_h0_at_0(self):
        d = fixture("paper_k9")
        g = intersection_graph(d)
        assert 3 in g.neighbors[0]  # G_0 = {0,3,6}, H_0 = {0,2,4}
        assert [v for v, c in enumerate(g.cliques) if {0, 3} <= set(c)] == [0]

    def test_two_shared_vertices_raise(self):
        # built without validation: both elements cover the edge 0-1
        d = CliqueDecomposition(3, (Element((0, 1, 2)), Element((0, 1))))
        with pytest.raises(ValueError, match="elements 0,1 share two vertices"):
            intersection_graph(d).neighbors

    def test_pairwise_intersections_at_most_one(self):
        for seed in range(10):
            d = random_decomposition(7, seed)
            sets = [e.vertex_set for e in d.elements]
            for a, b in combinations(sets, 2):
                assert len(a & b) <= 1

    def test_neighbors_match_brute_force(self):
        named = [fixture(name) for name in ("paper_k9", "fano_k7", "sts9_k9")]
        named += [trivial_edges(9), near_pencil(9)]
        randoms = [random_decomposition(n, seed) for n in range(2, 13) for seed in range(5)]
        for d in named + randoms:
            sets = [e.vertex_set for e in d.elements]
            g = intersection_graph(d)
            assert g.node_count == len(sets)
            assert g.neighbors == tuple(
                tuple(j for j, b in enumerate(sets) if j != i and a & b)
                for i, a in enumerate(sets)
            )

    def test_element_size_sum_identity(self):
        for seed in range(10):
            d = random_decomposition(8, seed)
            total = sum(e.order * (e.order - 1) // 2 for e in d.elements)
            assert total == d.n * (d.n - 1) // 2


def brute_conflicts(d, coloring):
    """Independent conflict list straight from vertex-set intersections."""
    sets = [e.vertex_set for e in d.elements]
    return [
        (i, j, min(ei & ej))
        for (i, ei), (j, ej) in combinations(enumerate(sets), 2)
        if ei & ej and coloring[i] == coloring[j]
    ]


class TestCheckProper:
    def test_canonical_on_edge_triangle(self):
        d = validate_decomposition(3, [(0, 1), (0, 2), (1, 2)])
        coloring = [(a + b) % 3 for a, b in (e.vertices for e in d.elements)]
        verdict = check_proper(d, coloring)
        assert verdict.ok
        assert verdict.colors_used == 3

    def test_all_zero_on_edge_triangle(self):
        d = validate_decomposition(3, [(0, 1), (0, 2), (1, 2)])
        verdict = check_proper(d, [0, 0, 0])
        assert not verdict.ok
        assert len(verdict.conflicts) == 3

    def test_conflicts_carry_shared_vertex(self):
        d = validate_decomposition(3, [(0, 1), (0, 2), (1, 2)])
        verdict = check_proper(d, [0, 0, 1])
        assert verdict.conflicts == ((0, 1, 0),)

    def test_partial_coloring_rejected(self):
        d = validate_decomposition(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            check_proper(d, [0, 1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_agrees_with_brute_force(self, seed, data):
        d = random_decomposition(6, seed)
        coloring = data.draw(
            st.lists(
                st.integers(0, 5),
                min_size=len(d.elements),
                max_size=len(d.elements),
            )
        )
        verdict = check_proper(d, coloring)
        expected = brute_conflicts(d, coloring)
        assert verdict.conflicts == tuple(expected)
        assert verdict.ok == (not expected)

    def test_leaves_neighbors_unbuilt(self, monkeypatch):
        built = []

        def recording(d):
            built.append(intersection_graph(d))
            return built[-1]

        monkeypatch.setattr(model, "intersection_graph", recording)
        d = fixture("paper_k9")
        assert not check_proper(d, [0] * len(d.elements)).ok
        assert len(built) == 1
        assert "neighbors" not in vars(built[0])
