"""Exact chromatic index, enumeration, and the full-sweep labeling oracle."""

import hashlib
import inspect
import json
import random
import sys
from itertools import combinations, product
from pathlib import Path
from typing import Iterator

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
from eflcolor.oracle import (
    _degrees,
    _greedy_clique,
    _greedy_on_order,
    _iterated_greedy,
    _lower_bound,
)


def graph(d):
    """What the exact colorer's helpers take: each element's K_n vertices,
    and the vertex cliques of the conflict graph."""
    return [e.vertices for e in d.elements], intersection_graph(d)


def brute_neighbors(d):
    """Each element's neighbors, ascending, from pairwise vertex-set
    intersections."""
    sets = [e.vertex_set for e in d.elements]
    return [[j for j, b in enumerate(sets) if j != i and a & b] for i, a in enumerate(sets)]


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


def parity_instances():
    """The instances of ``exact_parity.json``: the named fixtures,
    ``trivial_edges`` n = 3..21, ``near_pencil`` n = 4..30 and
    ``random_decomposition`` n = 4..24 with seeds 0..4."""
    named = [(name, lambda name=name: fixture(name)) for name in ("paper_k9", "fano_k7", "sts9_k9")]
    edges = [(f"trivial_edges_{n}", lambda n=n: trivial_edges(n)) for n in range(3, 22)]
    pencils = [(f"near_pencil_{n}", lambda n=n: near_pencil(n)) for n in range(4, 31)]
    randoms = [
        (f"random_{n}_{s}", lambda n=n, s=s: random_decomposition(n, s))
        for n in range(4, 25)
        for s in range(5)
    ]
    return [pytest.param(name, make, id=name) for name, make in named + edges + pencils + randoms]


PARITY_PINS = json.loads((Path(__file__).parent / "exact_parity.json").read_text())


def exact_outcome(d, hint):
    """(chi, nodes, witness digest) at budget 2000, or "budget-out"."""
    try:
        result = exact_chromatic_index(d, budget=2000, upper_hint=hint)
    except BudgetExceededError:
        return "budget-out"
    witness = ",".join(map(str, result.witness)).encode()
    return [result.chi, result.nodes_explored, hashlib.sha256(witness).hexdigest()[:16]]


class TestExactParity:
    """Pins of the exact colorer, recorded before its greedy and DSATUR passes
    moved from neighbor sets to per-clique color masks: unhinted, and hinted
    with the certificate coloring where the given labels have one."""

    @pytest.mark.parametrize("name, make", parity_instances())
    def test_pinned(self, name, make):
        d = make()
        cert = find_certificate(d)
        hint = None if cert is None else color_decomposition(d, cert).coloring
        assert exact_outcome(d, None) == PARITY_PINS[f"{name}:plain"]
        assert exact_outcome(d, hint) == PARITY_PINS[f"{name}:hinted"]

    def test_every_pin_is_checked(self):
        ids = {p.id for p in parity_instances()}
        assert {key.rsplit(":", 1)[0] for key in PARITY_PINS} == ids


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


class TestBudgetInterval:
    """A budget-out says how far the exact colorer got: every target below
    the one it was refuting is refuted, and the witness bounds chi above."""

    def test_interval_of_an_unfinished_search(self):
        d = random_decomposition(24, 800875)
        with pytest.raises(BudgetExceededError) as exc:
            exact_chromatic_index(d, budget=2000)
        assert exc.value.interval == (11, 13)
        assert str(exc.value) == "search budget of 2000 nodes exceeded; 11 <= chi <= 13"

    def test_interval_brackets_the_answer(self):
        d = trivial_edges(13)  # chi = 13; no 13-coloring is found within 2000 nodes
        with pytest.raises(BudgetExceededError) as exc:
            exact_chromatic_index(d, budget=2000)
        assert exc.value.interval == (13, 14)


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
        greedy = _iterated_greedy(*graph(d))
        worse = tuple(range(len(d.elements)))  # one color per element
        for hint in (greedy, [c + 7 for c in greedy], unhinted.witness, worse):
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
        incidence, cliques = graph(d)
        lower = _lower_bound(incidence, cliques)
        floored = _iterated_greedy(incidence, cliques, floor=lower)
        assert floored == _iterated_greedy(incidence, cliques)


class TestGreedy:
    def test_single_element(self):
        d = validate_decomposition(3, [(0, 1, 2)])
        assert _iterated_greedy(*graph(d)) == (0,)

    def test_edge_triangle(self):
        d = trivial_edges(3)
        coloring = _iterated_greedy(*graph(d))
        assert len(set(coloring)) == 3

    def test_always_proper(self):
        for n in range(3, 10):
            for seed in range(15):
                d = random_decomposition(n, seed)
                assert check_proper(d, _iterated_greedy(*graph(d))).ok


def neighbor_set_greedy(neighbors, order):
    """Reference greedy: each node takes the lowest color its colored
    neighbors leave free, found by scanning its neighbor list."""
    colors = {}
    for v in order:
        taken = {colors[u] for u in neighbors[v] if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return [colors[v] for v in range(len(neighbors))]


class TestGreedyOnMasks:
    """The greedy pass reads per-clique color masks; it must color exactly as
    the neighbor-set greedy does, on any order."""

    def test_matches_neighbor_set_greedy_on_random_orders(self):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(3, 20)
            d = random_decomposition(n, rng.randrange(1000))
            incidence, cliques = graph(d)
            order = list(range(len(incidence)))
            rng.shuffle(order)
            expected = neighbor_set_greedy(brute_neighbors(d), order)
            assert _greedy_on_order(incidence, len(cliques), order) == expected

    @pytest.mark.parametrize("d", fixtures_and_random(12, 3))
    def test_degree_is_neighbor_count(self, d):
        assert _degrees(*graph(d)) == [len(ns) for ns in brute_neighbors(d)]


def neighbor_set_clique(neighbors):
    """Reference clique bound: grows the clique from neighbor sets, taking
    the candidate with most neighbors among the candidates, lowest first."""
    neighbor_sets = [set(ns) for ns in neighbors]
    best = []
    degree_order = sorted(range(len(neighbors)), key=lambda i: (-len(neighbors[i]), i))
    for seed in degree_order[:8]:
        clique = [seed]
        common = set(neighbor_sets[seed])
        while common:
            nxt = min(common, key=lambda v: (-len(neighbor_sets[v] & common), v))
            clique.append(nxt)
            common &= neighbor_sets[nxt]
        if len(clique) > len(best):
            best = clique
    return best


class TestGreedyCliqueOnMasks:
    """The clique bound grows its clique from neighbor bitmasks; it must pick
    the same nodes, in the same order, as the neighbor-set version."""

    @pytest.mark.parametrize(
        "d",
        fixtures_and_random(30, 3)
        + [pytest.param(trivial_edges(n), id=f"trivial_{n}") for n in (2, 3, 9, 13, 21)]
        + [pytest.param(near_pencil(n), id=f"pencil_{n}") for n in (3, 12, 30)],
    )
    def test_matches_neighbor_set_clique(self, d):
        assert _greedy_clique(*graph(d)) == neighbor_set_clique(brute_neighbors(d))


def partition_cover_count(n: int) -> int:
    """Independent slow count of clique partitions of E(K_n).

    Enumerates all set partitions of the edge list and keeps the ones whose
    blocks each form a complete graph on their vertex support. Exponential;
    for cross-checking the fast enumerator at n <= 5 only.
    """
    edges = list(combinations(range(n), 2))

    def is_clique_block(block: list[tuple[int, int]]) -> bool:
        support = sorted({v for e in block for v in e})
        return len(block) == len(support) * (len(support) - 1) // 2

    def partitions(items: list) -> Iterator[list[list]]:
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1 :]
            yield [[head]] + part

    count = 0
    for part in partitions(edges):
        if all(is_clique_block(block) for block in part):
            count += 1
    return count


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

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 2"):
            next(enumerate_decompositions(n))


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
