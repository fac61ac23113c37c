"""Ground-truth engines: exact chromatic index, exhaustive labeling search,
and exhaustive enumeration of small decompositions.

These are the independent checks behind the test suites: the exact colorer
colors the conflict graph through its vertex cliques (``intersection_graph``)
with one bitmask of used colors per clique, the labeling oracle sweeps all n!
bijections, and the enumerator streams every clique partition of E(K_n) for
small n.
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
from .errors import BudgetExceededError, TooLargeError
from .model import (
    CliqueDecomposition,
    Element,
    check_proper,
    intersection_graph,
)

ENUMERATION_LIMIT = 6
ORACLE_LABELING_LIMIT = 8
DEFAULT_COLORING_BUDGET = 5_000_000
GREEDY_ROUNDS = 80

# incidence (each element's K_n vertices) or cliques (each K_n vertex's elements)
Rows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ExactResult:
    chi: int
    witness: tuple[int, ...]
    nodes_explored: int


def _degrees(incidence: Rows, cliques: Rows) -> list[int]:
    """Each node's degree: the sizes of its cliques, less itself in each.

    ``incidence[i]`` lists node i's cliques, its element's K_n vertices. The
    degree is the neighbor count when two elements meet in at most one vertex.
    """
    return [sum(len(cliques[x]) for x in xs) - len(xs) for xs in incidence]


def _greedy_on_order(
    incidence: Sequence[Sequence[int]], clique_count: int, order: Sequence[int]
) -> list[int]:
    """Lowest free color for each node in turn.

    ``used[x]`` has bit c set once an element through K_n vertex x has color
    c, so a node's taken colors are the OR over its own vertices.
    """
    colors = [0] * len(incidence)
    used = [0] * clique_count
    for v in order:
        taken = 0
        for x in incidence[v]:
            taken |= used[x]
        free = ~taken & (taken + 1)  # lowest clear bit
        colors[v] = free.bit_length() - 1
        for x in incidence[v]:
            used[x] |= free
    return colors


def _iterated_greedy(incidence: Rows, cliques: Rows, floor: int = 0) -> tuple[int, ...]:
    """Greedy re-coloring along permuted color classes; never gets worse.

    Re-running greedy with whole color classes kept contiguous can only keep
    or lower the class count, so cycling through a fixed schedule of class
    orders (ascending size, descending size, seeded rotations) gives a strong
    and fully deterministic upper bound. It runs ``GREEDY_ROUNDS`` rounds
    after the first greedy pass on the (-degree, index) order.

    The rounds stop early once the best coloring uses ``floor`` colors. With
    ``floor`` a valid lower bound that changes nothing: the best coloring is
    replaced only by one with strictly fewer colors, and none exists. A
    ``floor`` of the node count runs the first pass alone, which is all that
    ``exact_chromatic_index`` needs when its hint meets the lower bound.
    """
    m = len(incidence)
    degree = _degrees(incidence, cliques)
    order = sorted(range(m), key=lambda v: (-degree[v], v))
    colors = _greedy_on_order(incidence, len(cliques), order)
    # greedy colors are 0..k-1 with none skipped, so k is the top color + 1
    best = colors
    best_k = k = max(colors) + 1
    state = 12345
    for r in range(GREEDY_ROUNDS):
        if best_k <= floor:
            break
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
        order = [v for cl in classes for v in cl]
        colors = _greedy_on_order(incidence, len(cliques), order)
        k = max(colors) + 1
        if k < best_k:
            best, best_k = colors, k
    return tuple(best)


def _greedy_clique(incidence: Rows, cliques: Rows) -> list[int]:
    """A maximal clique grown greedily from the best seed vertex.

    Neighborhoods are int bitmasks, each the OR of the node's vertex cliques
    without the node itself. Each is built when the growth first reads it,
    so K_n vertices get one mask each but most nodes of a large instance
    none. A step adds the candidate with the most neighbors among the
    candidates, the lowest index on ties. Seeds go by degree, the neighbor
    count. A scan stops at a candidate that meets every other one, and a
    seed stops once it cannot beat the best clique; neither changes the
    result.
    """
    m = len(incidence)
    through = [0] * len(cliques)  # bit v set when node v lies in clique x
    for x, members in enumerate(cliques):
        for v in members:
            through[x] |= 1 << v
    neighbors = [0] * m  # 0 until first read; a candidate's mask is never 0
    best: list[int] = []
    degree = _degrees(incidence, cliques)
    degree_order = sorted(range(m), key=lambda i: (-degree[i], i))
    for seed in degree_order[: min(m, 8)]:
        clique = [seed]
        common = 0
        for x in incidence[seed]:
            common |= through[x]
        common ^= 1 << seed
        while common:
            size = common.bit_count()
            if len(clique) + size <= len(best):
                break
            nxt, most = -1, -1
            rest = common
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                mask = neighbors[v]
                if not mask:
                    for x in incidence[v]:
                        mask |= through[x]
                    mask = neighbors[v] = mask ^ low
                count = (mask & common).bit_count()
                if count > most:
                    nxt, most = v, count
                    if most == size - 1:
                        break
                rest ^= low
            clique.append(nxt)
            common &= neighbors[nxt]
        if len(clique) > len(best):
            best = clique
    return best


def _exact_color_graph(
    incidence: Rows,
    cliques: Rows,
    lower: int,
    upper_witness: Sequence[int],
    budget: int,
) -> tuple[int, tuple[int, ...], int]:
    """Smallest k admitting a proper coloring, with a witness.

    Backtracking with dynamic most-saturated-vertex selection (Brelaz's
    DSATUR) and the canonical rule that a vertex may open at most one fresh
    color, trying targets upward from the lower bound. Deterministic
    tie-breaks. A node's saturation is read off per-clique color masks:
    ``used[x]`` has bit c set while an element through K_n vertex x has
    color c. A proper partial coloring gives color c to at most one element
    of each clique, so uncoloring a node clears its bit in each of its
    cliques. A budget-out carries the interval the search had narrowed chi
    to: every target below the one it was refuting is refuted, and the
    witness bounds it from above.
    """
    m = len(incidence)
    upper = len(set(upper_witness))
    degree = _degrees(incidence, cliques)
    used = [0] * len(cliques)
    colors = [-1] * m  # -1 while uncolored
    tops = [-1]  # the top color used after each placement, popped on unplace

    def moves() -> list[tuple[int, int]]:
        # the uncolored node of highest (saturation, degree), lowest index on
        # ties; degree < m, so saturation * m + degree orders those pairs
        best_v = best_score = forbidden = -1
        for v in range(m):
            if colors[v] >= 0:
                continue
            taken = 0
            for x in incidence[v]:
                taken |= used[x]
            score = taken.bit_count() * m + degree[v]
            if score > best_score:
                best_v, best_score, forbidden = v, score, taken
        limit = min(tops[-1] + 1, k - 1)
        return [(best_v, c) for c in range(limit + 1) if not forbidden >> c & 1]

    def place(move: tuple[int, int]) -> bool:
        v, c = move
        colors[v] = c
        tops.append(max(tops[-1], c))
        for x in incidence[v]:
            used[x] |= 1 << c
        return True

    def unplace(move: tuple[int, int]) -> None:
        v, c = move
        colors[v] = -1
        tops.pop()
        for x in incidence[v]:
            used[x] &= ~(1 << c)

    nodes = 0
    for k in range(lower, upper):
        # a failed attempt unplaces every color, so the next starts blank
        try:
            found, tried = _backtrack(moves, place, unplace, m, budget - nodes)
        except BudgetExceededError:
            raise BudgetExceededError(budget, (k, upper)) from None
        nodes += tried
        if found:
            return k, tuple(colors), nodes
    return upper, tuple(upper_witness), nodes


def _lower_bound(incidence: Rows, cliques: Rows) -> int:
    """The larger of the clique and packing bounds of ``exact_chromatic_index``;
    K_n has one clique per vertex, so n is ``len(cliques)``."""
    packing_bound = -(-len(incidence) // (len(cliques) // 2))
    return max(1, len(_greedy_clique(incidence, cliques)), packing_bound)


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
    renumbered 0..k-1 in order of first appearance. A hint that meets the
    lower bound costs one greedy pass instead of all the rounds, since no
    round can beat it: it wins unless that first pass ties it, and either
    way chi is decided with no search. A hint above the lower bound leaves
    the greedy rounds as they run without one.
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
    if not d.elements:
        return ExactResult(0, (), 0)
    incidence = [e.vertices for e in d.elements]
    cliques = intersection_graph(d)
    lower = _lower_bound(incidence, cliques)
    # greedy can at best tie a hint that meets the lower bound: one pass does
    meets = upper_hint is not None and len(set(upper_hint)) <= lower
    upper_witness = _iterated_greedy(
        incidence, cliques, floor=len(incidence) if meets else lower
    )
    if upper_hint is not None and len(set(upper_hint)) < len(set(upper_witness)):
        upper_witness = upper_hint
    chi, witness, nodes = _exact_color_graph(
        incidence, cliques, lower, upper_witness, budget
    )
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
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
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
