"""Exact chromatic index, enumeration, and the full-sweep labeling oracle."""

import inspect
import sys
from itertools import product

import pytest

from eflcolor import (
    BudgetExceededError,
    TooLargeError,
    check_proper,
    color_decomposition,
    enumerate_decompositions,
    exact_chromatic_index,
    exhaustive_labeling_oracle,
    find_certificate,
    fixture,
    near_pencil,
    random_decomposition,
    search_labeling,
    trivial_edges,
    validate_decomposition,
)
from eflcolor.model import intersection_graph
from eflcolor.oracle import _iterated_greedy, _lower_bound, partition_cover_count


def brute_chi(d):
    """Exact chromatic index by trying every coloring, smallest k first."""
    m = len(d.elements)
    for k in range(1, m + 1):
        for assignment in product(range(k), repeat=m):
            if check_proper(d, list(assignment)).ok:
                return k
    raise AssertionError("unreachable")


class TestExactChi:
    def test_edges_of_k4(self):
        assert exact_chromatic_index(trivial_edges(4)).chi == 3

    def test_single_element(self):
        d = validate_decomposition(4, [(0, 1, 2, 3)])
        assert exact_chromatic_index(d).chi == 1

    def test_near_pencil_needs_n(self):
        # the big clique meets every pendant edge and pendants meet at the apex
        for n in (4, 5, 6, 7):
            assert exact_chromatic_index(near_pencil(n)).chi == n

    def test_witness_is_proper_and_optimal_size(self):
        for seed in range(20):
            d = random_decomposition(7, seed)
            result = exact_chromatic_index(d)
            verdict = check_proper(d, result.witness)
            assert verdict.ok
            assert verdict.colors_used == result.chi

    def test_matches_brute_force_small(self):
        for n in (3, 4):
            for d in enumerate_decompositions(n):
                assert exact_chromatic_index(d).chi == brute_chi(d)

    def test_paper_k9_between_bounds(self):
        d = fixture("paper_k9")
        result = exact_chromatic_index(d)
        assert result.chi <= 9
        assert check_proper(d, result.witness).ok

    def test_line_graph_of_odd_complete_graph(self):
        # edge chromatic number of K_n: n-1 for even n, n for odd n
        assert exact_chromatic_index(trivial_edges(6)).chi == 5
        assert exact_chromatic_index(trivial_edges(7)).chi == 7
        assert exact_chromatic_index(trivial_edges(9)).chi == 9

    def test_deterministic(self):
        d = random_decomposition(8, 3)
        r1 = exact_chromatic_index(d)
        r2 = exact_chromatic_index(d)
        assert r1 == r2


# (chi, nodes explored, witness) of the exact colorer: a change to its
# bounds or its greedy passes must not change which witness it returns.
WITNESSES = {
    "paper_k9": (7, 208, (0, 0, 0, 1, 2, 3, 1, 2, 3, 4, 5, 4, 5, 1, 5, 3, 2, 4, 6, 4, 5, 6)),
    "trivial_edges_9": (9, 0, (
        3, 4, 5, 6, 0, 1, 2, 7, 1, 0, 5, 8, 2, 7, 4, 7, 8, 6,
        3, 0, 5, 2, 3, 8, 6, 1, 4, 7, 3, 0, 5, 1, 2, 4, 6, 8,
    )),
    "random_12_0": (9, 0, (
        0, 1, 5, 6, 7, 8, 6, 7, 8, 2, 3, 4, 4, 8, 7,
        8, 3, 6, 7, 6, 2, 3, 2, 5, 4, 5, 5, 2, 4, 3,
    )),
    "random_12_1": (8, 26, (2, 0, 1, 6, 3, 4, 5, 3, 4, 2, 4, 7, 2, 5, 6, 2, 6, 5, 0, 1, 3)),
    "random_12_2": (12, 0, tuple(range(12))),
    "random_12_3": (9, 0, (
        0, 1, 5, 6, 7, 8, 2, 3, 4, 6, 7, 8, 4, 8, 7,
        3, 2, 5, 8, 7, 3, 6, 6, 2, 4, 5, 2, 5, 4, 3,
    )),
}


class TestExactWitnesses:
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_witness_pinned(self, name):
        if name == "paper_k9":
            d = fixture("paper_k9")
        elif name == "trivial_edges_9":
            d = trivial_edges(9)
        else:
            d = random_decomposition(12, int(name.rsplit("_", 1)[1]))
        result = exact_chromatic_index(d)
        assert (result.chi, result.nodes_explored, result.witness) == WITNESSES[name]


class TestDeepColoring:
    """The exact colorer keeps its own stack, so Python's recursion limit does
    not bound how many elements it can color."""

    def test_budget_out_under_a_shallow_recursion_limit(self):
        d = trivial_edges(13)  # 78 elements
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            with pytest.raises(BudgetExceededError) as exc:
                exact_chromatic_index(d, budget=2000)
        finally:
            sys.setrecursionlimit(limit)
        assert exc.value.budget == 2000


def fixtures_and_random(n_max, seeds):
    """The named fixtures, then ``random_decomposition(n, seed)`` for
    n = 4..n_max and seed < seeds, as test parameters."""
    names = ("paper_k9", "fano_k7", "sts9_k9")
    named = [pytest.param(fixture(name), id=name) for name in names]
    return named + [
        pytest.param(random_decomposition(n, seed), id=f"random_{n}_{seed}")
        for n in range(4, n_max + 1)
        for seed in range(seeds)
    ]


class TestUpperHint:
    def test_improper_hint_rejected(self):
        d = fixture("paper_k9")
        with pytest.raises(ValueError, match="one color"):
            exact_chromatic_index(d, upper_hint=[0] * len(d.elements))

    def test_wrong_length_rejected(self):
        d = fixture("paper_k9")
        witness = exact_chromatic_index(d).witness
        for hint in (witness[:-1], witness + (max(witness) + 1,)):
            with pytest.raises(ValueError, match="entries for 22 elements"):
                exact_chromatic_index(d, upper_hint=hint)

    @pytest.mark.parametrize("d", fixtures_and_random(20, 2))
    def test_hint_not_better_changes_nothing(self, d):
        unhinted = exact_chromatic_index(d)
        greedy = _iterated_greedy(intersection_graph(d).neighbors, rounds=0)
        for hint in (greedy, [c + 7 for c in greedy], unhinted.witness):
            assert exact_chromatic_index(d, upper_hint=hint) == unhinted

    def test_certificate_coloring_decides_odd_trivial_edges(self):
        d = trivial_edges(13)  # unhinted, this runs out of budget
        coloring = color_decomposition(d, find_certificate(d)).coloring
        result = exact_chromatic_index(d, budget=2000, upper_hint=coloring)
        assert (result.chi, result.nodes_explored) == (13, 0)
        first_seen = list(dict.fromkeys(coloring))
        assert result.witness == tuple(first_seen.index(c) for c in coloring)


class TestGreedyFloor:
    """Stopping the greedy rounds at the lower bound changes no witness."""

    @pytest.mark.parametrize("d", fixtures_and_random(25, 8))
    def test_floor_keeps_witness(self, d):
        neighbors = intersection_graph(d).neighbors
        lower = _lower_bound(neighbors, d.n)
        assert _iterated_greedy(neighbors, floor=lower) == _iterated_greedy(neighbors)


class TestGreedy:
    def test_single_element(self):
        d = validate_decomposition(3, [(0, 1, 2)])
        assert _iterated_greedy(intersection_graph(d).neighbors, rounds=0) == (0,)

    def test_edge_triangle(self):
        d = trivial_edges(3)
        coloring = _iterated_greedy(intersection_graph(d).neighbors, rounds=0)
        assert len(set(coloring)) == 3

    def test_always_proper(self):
        for n in range(3, 10):
            for seed in range(15):
                d = random_decomposition(n, seed)
                neighbors = intersection_graph(d).neighbors
                assert check_proper(d, _iterated_greedy(neighbors, rounds=0)).ok


class TestEnumeration:
    def test_counts_small(self):
        assert sum(1 for _ in enumerate_decompositions(2)) == 1
        assert sum(1 for _ in enumerate_decompositions(3)) == 2

    def test_n3_contents(self):
        found = [
            tuple(e.vertices for e in d.elements)
            for d in enumerate_decompositions(3)
        ]
        assert ((0, 1), (0, 2), (1, 2)) in found
        assert ((0, 1, 2),) in found

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_match_slow_partition_enumerator(self, n):
        fast = sum(1 for _ in enumerate_decompositions(n))
        assert fast == partition_cover_count(n)

    def test_all_emitted_are_valid(self):
        for n in (4, 5):
            for d in enumerate_decompositions(n):
                validate_decomposition(n, [e.vertices for e in d.elements])

    def test_no_duplicates(self):
        for n in (4, 5):
            seen = set()
            for d in enumerate_decompositions(n):
                key = tuple(sorted(e.vertices for e in d.elements))
                assert key not in seen
                seen.add(key)

    def test_too_large_rejected(self):
        with pytest.raises(TooLargeError):
            next(enumerate_decompositions(7))


class TestLabelingOracle:
    def test_too_large(self):
        d = fixture("paper_k9")
        abstract = [e.vertices for e in d.elements]
        with pytest.raises(TooLargeError):
            exhaustive_labeling_oracle(9, abstract)

    def test_trivial_edges_identity_works(self):
        d = trivial_edges(5)
        abstract = [e.vertices for e in d.elements]
        found = exhaustive_labeling_oracle(5, abstract)
        assert found is not None
        labeling, _, _ = found
        # lexicographically first bijection is the identity
        assert [x for _, x in labeling.assignment] == [0, 1, 2, 3, 4]

    def test_fano_agreement(self):
        d = fixture("fano_k7")
        abstract = [tuple(f"p{v}" for v in e.vertices) for e in d.elements]
        assert exhaustive_labeling_oracle(7, abstract) is None
        assert search_labeling(7, abstract) is None
