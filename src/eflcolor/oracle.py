"""Ground-truth engines: exact chromatic index, exhaustive labeling search,
and exhaustive enumeration of small decompositions.

These are the independent checks behind the test suites: the exact colorer
works on the bare conflict graph (so it serves the hypergraph view too), the
labeling oracle sweeps all n! bijections, and the enumerator streams every
clique partition of E(K_n) for small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .arithmetic import (
    ArithmeticCertificate,
    Labeling,
    VertexId,
    _abstract_structure,
    _backtrack,
    find_certificate,
)
from .errors import TooLargeError
from .model import CliqueDecomposition, Element, check_proper, intersection_graph

ENUMERATION_LIMIT = 6
ORACLE_LABELING_LIMIT = 8
DEFAULT_COLORING_BUDGET = 5_000_000


@dataclass(frozen=True)
class ExactResult:
    chi: int
    witness: tuple[int, ...]
    nodes_explored: int


def _greedy_on_order(
    neighbor_sets: Sequence[set[int]], order: Sequence[int]
) -> dict[int, int]:
    colors: dict[int, int] = {}
    for v in order:
        taken = {colors[u] for u in neighbor_sets[v] if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _iterated_greedy(
    neighbors: Sequence[Sequence[int]], rounds: int = 80, floor: int = 0
) -> tuple[int, ...]:
    """Greedy re-coloring along permuted color classes; never gets worse.

    Re-running greedy with whole color classes kept contiguous can only keep
    or lower the class count, so cycling through a fixed schedule of class
    orders (ascending size, descending size, seeded rotations) gives a strong
    and fully deterministic upper bound.

    The rounds stop early once the best coloring uses ``floor`` colors. With
    ``floor`` a valid lower bound that changes nothing: the best coloring is
    replaced only by one with strictly fewer colors, and none exists.
    """
    m = len(neighbors)
    if m == 0:
        return ()
    neighbor_sets = [set(ns) for ns in neighbors]
    order = sorted(range(m), key=lambda v: (-len(neighbor_sets[v]), v))
    colors = _greedy_on_order(neighbor_sets, order)
    best = dict(colors)
    state = 12345
    for r in range(rounds):
        if len(set(best.values())) <= floor:
            break
        k = len(set(colors.values()))
        classes: list[list[int]] = [[] for _ in range(k)]
        for v in range(m):
            classes[colors[v]].append(v)
        if r % 3 == 0:
            classes.sort(key=lambda cl: (len(cl), cl))
        elif r % 3 == 1:
            classes.sort(key=lambda cl: (-len(cl), cl))
        else:
            state = (state * 1103515245 + 12345) % (1 << 31)
            rot = state % k
            classes = classes[rot:] + classes[:rot]
            classes.reverse()
        colors = _greedy_on_order(neighbor_sets, [v for cl in classes for v in cl])
        if len(set(colors.values())) < len(set(best.values())):
            best = dict(colors)
    return tuple(best[v] for v in range(m))


def _greedy_clique(neighbors: Sequence[Sequence[int]]) -> list[int]:
    """A maximal clique grown greedily from the best seed vertex."""
    m = len(neighbors)
    if m == 0:
        return []
    neighbor_sets = [set(ns) for ns in neighbors]
    best: list[int] = []
    degree_order = sorted(range(m), key=lambda i: (-len(neighbors[i]), i))
    for seed in degree_order[: min(m, 8)]:
        clique = [seed]
        common = set(neighbor_sets[seed])
        while common:
            nxt = min(common, key=lambda v: (-len(neighbor_sets[v] & common), v))
            clique.append(nxt)
            common &= neighbor_sets[nxt]
        if len(clique) > len(best):
            best = clique
    return best


def _exact_color_graph(
    neighbors: Sequence[Sequence[int]],
    lower: int,
    upper_witness: Sequence[int],
    budget: int,
) -> tuple[int, tuple[int, ...], int]:
    """Smallest k admitting a proper coloring, with a witness.

    Backtracking with dynamic most-saturated-vertex selection and the
    canonical rule that a vertex may open at most one fresh color, trying
    targets upward from the lower bound. Deterministic tie-breaks.
    """
    m = len(neighbors)
    upper = len(set(upper_witness)) if m else 0
    if m == 0:
        return 0, (), 0
    neighbor_sets = [frozenset(ns) for ns in neighbors]
    colors = [-1] * m  # -1 while uncolored, so max(colors) is the top color used

    def moves() -> list[tuple[int, int]]:
        best_v = -1
        best_key = None
        for v in range(m):
            if colors[v] >= 0:
                continue
            sat = len({colors[u] for u in neighbor_sets[v] if colors[u] >= 0})
            key = (-sat, -len(neighbor_sets[v]), v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        forbidden = {colors[u] for u in neighbor_sets[best_v] if colors[u] >= 0}
        limit = min(max(colors) + 1, k - 1)
        return [(best_v, c) for c in range(limit + 1) if c not in forbidden]

    def place(move: tuple[int, int]) -> bool:
        v, c = move
        colors[v] = c
        return True

    def unplace(move: tuple[int, int]) -> None:
        colors[move[0]] = -1

    nodes = 0
    for k in range(lower, upper):
        # a failed attempt unplaces every color, so the next starts blank
        found, nodes = _backtrack(moves, place, unplace, m, budget, nodes)
        if found:
            return k, tuple(colors), nodes
    return upper, tuple(upper_witness), nodes


def _lower_bound(neighbors: Sequence[Sequence[int]], n: int) -> int:
    """The larger of the clique and packing bounds of ``exact_chromatic_index``."""
    packing_bound = -(-len(neighbors) // (n // 2))
    return max(1, len(_greedy_clique(neighbors)), packing_bound)


def exact_chromatic_index(
    d: CliqueDecomposition,
    budget: int = DEFAULT_COLORING_BUDGET,
    upper_hint: Sequence[int] | None = None,
) -> ExactResult:
    """Exact chromatic index of a decomposition, with an optimal witness.

    Lower bounds: a greedy maximal clique in the conflict graph, and the
    packing bound ceil(m / floor(n/2)), valid because pairwise disjoint
    elements of order >= 2 cannot number more than floor(n/2). The upper
    bound is the iterated greedy coloring, whose rounds stop as soon as it
    meets the lower bound. The search closes whatever gap remains.

    ``upper_hint`` is a second upper bound: any coloring of the elements,
    such as the n-coloring of an arithmetic certificate. It must have one
    entry per element and pass ``check_proper``, else ValueError. It
    replaces the greedy witness only when it uses strictly fewer colors,
    renumbered 0..k-1 in order of first appearance; otherwise the result is
    the unhinted one.
    ``sweep`` and the tests that check chi <= n call this without a hint, so
    that check stays independent of the construction it checks.
    """
    if upper_hint is not None:
        verdict = check_proper(d, upper_hint)
        if not verdict.ok:
            i, j, _ = verdict.conflicts[0]
            raise ValueError(f"upper hint gives elements {i},{j} one color")
        renumber: dict[int, int] = {}
        upper_hint = tuple(renumber.setdefault(c, len(renumber)) for c in upper_hint)
    graph = intersection_graph(d)
    m = graph.node_count
    if m == 0:
        return ExactResult(0, (), 0)
    lower = _lower_bound(graph.neighbors, d.n)
    upper_witness = _iterated_greedy(graph.neighbors, floor=lower)
    if upper_hint is not None and len(set(upper_hint)) < len(set(upper_witness)):
        upper_witness = upper_hint
    chi, witness, nodes = _exact_color_graph(graph.neighbors, lower, upper_witness, budget)
    return ExactResult(chi, witness, nodes)


def exhaustive_labeling_oracle(
    n: int, elements: Sequence[Sequence[VertexId]]
) -> tuple[Labeling, CliqueDecomposition, ArithmeticCertificate] | None:
    """Try every bijection onto Z_n in lexicographic order.

    Serves only as the ground truth for the backtracking search, and so
    returns what ``search_labeling`` returns: the first labeling that admits
    a certificate, the decomposition relabeled through it, and its
    certificate. Refuses n > 8 (n! sweeps).
    """
    if n > ORACLE_LABELING_LIMIT:
        raise TooLargeError(f"full bijection sweep refused for n={n} > {ORACLE_LABELING_LIMIT}")
    order, indexed = _abstract_structure(n, elements)
    for perm in permutations(range(n)):
        relabeled = [[perm[v] for v in elem] for elem in indexed]
        d = CliqueDecomposition(
            n, tuple(Element(tuple(sorted(e))) for e in relabeled)
        )
        cert = find_certificate(d)
        if cert is not None:
            labeling = Labeling(tuple((order[v], perm[v]) for v in range(n)))
            return labeling, d, cert
    return None


def enumerate_decompositions(n: int) -> Iterator[CliqueDecomposition]:
    """Stream every partition of E(K_n) into cliques of order >= 2.

    Decompositions are labeled; each is emitted exactly once. The recursion
    always covers the lexicographically smallest uncovered edge, so every
    partition corresponds to a unique choice sequence.
    """
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"exhaustive enumeration refused for n={n} > {ENUMERATION_LIMIT}")

    all_edges = list(combinations(range(n), 2))

    def solve(
        uncovered: set[tuple[int, int]], chosen: list[tuple[int, ...]]
    ) -> Iterator[CliqueDecomposition]:
        if not uncovered:
            yield CliqueDecomposition(
                n, tuple(Element(elem) for elem in chosen)
            )
            return
        a, b = min(uncovered)
        # Any further vertex of the covering element must exceed b: a smaller
        # one would leave an uncovered edge below (a, b).
        candidates = [
            c
            for c in range(b + 1, n)
            if (a, c) in uncovered and (b, c) in uncovered
        ]
        for size in range(0, len(candidates) + 1):
            for extra in combinations(candidates, size):
                pairs_ok = all(
                    (x, y) in uncovered for x, y in combinations(extra, 2)
                )
                if not pairs_ok:
                    continue
                elem = (a, b) + extra
                elem_pairs = set(combinations(elem, 2))
                uncovered -= elem_pairs
                chosen.append(elem)
                yield from solve(uncovered, chosen)
                chosen.pop()
                uncovered |= elem_pairs
        return

    yield from solve(set(all_edges), [])


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
