"""Arithmetic structure of decompositions over Z_n.

A subset W of Z_n is k-arithmetic (k in 1..n//2) when it can be listed as
w, w+k, ..., w+(r-1)k mod n with all terms distinct. An element of a
decomposition is certified either by a single such progression covering its
vertex set, or by a pair of disjoint equal-length k-progressions
partitioning it. Odd-length single progressions have a central vertex (the
middle term); a certificate for a whole decomposition additionally requires
all central vertices to be pairwise distinct.

Progressions that wrap around the cycle (r*k = 0 mod n) admit several valid
starts and hence several candidate centrals; all of them are enumerated as
separate options because the distinct-centrals constraint may hold for one
ordering and fail for another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    EvenLengthError,
    OddCardinalityError,
    TheoremViolationError,
)
from .model import CliqueDecomposition, validate_decomposition

VertexId = Hashable

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class Progression:
    """The ordering start, start+step, ..., start+(length-1)*step mod modulus."""

    start: int
    step: int
    length: int
    modulus: int

    @property
    def terms(self) -> tuple[int, ...]:
        return tuple(
            (self.start + i * self.step) % self.modulus for i in range(self.length)
        )

    @property
    def term_set(self) -> frozenset[int]:
        return frozenset(self.terms)

    @property
    def central(self) -> int:
        """Middle term of an odd-length ordering."""
        if self.length % 2 == 0:
            raise EvenLengthError(
                f"progression of length {self.length} has no central term"
            )
        return self.terms[(self.length - 1) // 2]


@dataclass(frozen=True)
class SingleCertificate:
    """One progression covering the whole element."""

    progression: Progression

    kind = "single"

    @property
    def step(self) -> int:
        return self.progression.step

    @property
    def covered(self) -> frozenset[int]:
        return self.progression.term_set

    @property
    def central(self) -> int | None:
        if self.progression.length % 2 == 1:
            return self.progression.central
        return None


@dataclass(frozen=True)
class SplitCertificate:
    """Two disjoint equal-length progressions partitioning the element."""

    first: Progression
    second: Progression

    kind = "split"

    @property
    def step(self) -> int:
        return self.first.step

    @property
    def covered(self) -> frozenset[int]:
        return self.first.term_set | self.second.term_set

    @property
    def central(self) -> None:
        return None


ElementCertificate = SingleCertificate | SplitCertificate


@dataclass(frozen=True)
class ArithmeticCertificate:
    """One certificate entry per element, with pairwise distinct centrals."""

    entries: tuple[ElementCertificate, ...]

    @property
    def centrals(self) -> tuple[tuple[int, int], ...]:
        """(element index, central vertex) for the odd-order single entries."""
        return tuple(
            (i, entry.central)
            for i, entry in enumerate(self.entries)
            if entry.central is not None
        )


@dataclass(frozen=True)
class Labeling:
    """Bijection from abstract vertex ids onto Z_n."""

    assignment: tuple[tuple[VertexId, int], ...]

    @property
    def mapping(self) -> dict[VertexId, int]:
        return dict(self.assignment)

    def apply(self, elements: Iterable[Iterable[VertexId]]) -> list[list[int]]:
        table = self.mapping
        return [[table[v] for v in elem] for elem in elements]


def arithmetic_orderings(
    vertices: Iterable[int], step: int, n: int
) -> tuple[Progression, ...]:
    """Every valid k-progression ordering of the given set, by ascending start.

    A start s works when s, s+k, ..., s+(r-1)k are distinct and reproduce the
    set exactly. Singletons are trivially valid for every step. An empty
    result means the set is not k-arithmetic for this step.
    """
    target = frozenset(vertices)
    if not target:
        raise ValueError("vertex set is empty")
    if not 1 <= step <= n // 2:
        raise ValueError(f"step {step} outside 1..{n // 2}")
    r = len(target)
    found = []
    for s in sorted(target):
        prog = Progression(s, step, r, n)
        terms = prog.terms
        if len(set(terms)) == r and frozenset(terms) == target:
            found.append(prog)
    return tuple(found)


def split_orderings(
    vertices: Iterable[int], step: int, n: int
) -> tuple[tuple[Progression, Progression], ...]:
    """All unordered pairs of disjoint equal-length k-progressions covering the set.

    Enumeration runs over candidate start pairs (s, t) with s < t rather than
    over subsets; a pair qualifies when both progressions stay inside the set,
    are internally distinct, and partition it. For a 2-element set this yields
    the singleton/singleton split for every step.
    """
    target = frozenset(vertices)
    if len(target) % 2 == 1:
        raise OddCardinalityError(
            f"cannot split a set of odd size {len(target)} into equal halves"
        )
    if not 1 <= step <= n // 2:
        raise ValueError(f"step {step} outside 1..{n // 2}")
    half = len(target) // 2
    ordered = sorted(target)
    found = []
    for i, s in enumerate(ordered):
        first = Progression(s, step, half, n)
        first_terms = first.term_set
        if len(first_terms) != half or not first_terms <= target:
            continue
        for t in ordered[i + 1 :]:
            second = Progression(t, step, half, n)
            second_terms = second.term_set
            if len(second_terms) != half:
                continue
            if first_terms & second_terms:
                continue
            if first_terms | second_terms == target:
                found.append((first, second))
    return tuple(found)


def _run_length(start: int, step: int, n: int, target: frozenset[int]) -> int:
    """How many of start, start+step, ... lie in the set before one is missing."""
    length = 0
    while start in target:
        length += 1
        start = (start + step) % n
    return length


def _iter_options(
    vertices: Iterable[int], n: int
) -> Iterator[ElementCertificate]:
    """The certificate candidates of one element, lazily, in canonical order.

    Order: ascending step; within a step, single progressions (ascending
    start) before splits (ascending start pair). This is what
    ``arithmetic_orderings`` and ``split_orderings`` list, read off the
    structure of the set W under x -> x + k instead: Z_n falls into cycles
    of length n / gcd(k, n), and W into whole cycles and runs (maximal
    stretches w, w+k, ... inside one cycle, each with one start, the member
    whose predecessor is missing). A k-progression of distinct terms is a
    run of length below the cycle length, with its start as the only start,
    or a whole cycle, with every member as a start. So W has
      - one single iff it is one run (start: the run's), or one whole cycle
        (starts: all of W);
      - splits (halves of r/2 terms) iff it is two runs of r/2 (one pair),
        one run cut in the middle (one pair), one whole cycle cut in two
        opposite halves (r/2 pairs), or two whole cycles of r/2 (every
        pair of members from different cycles).
    Each step costs O(r). A caller that needs just the first option pays
    for the steps up to it.
    """
    target = frozenset(vertices)
    r = len(target)
    if r < 2:
        raise ValueError("elements have at least two vertices")
    ws = sorted(target)
    half = 0 if r % 2 else r // 2
    for step in range(1, n // 2 + 1):
        cycle = n // gcd(step, n)
        if r > (2 * cycle if half else cycle):
            continue
        starts = [w for w in ws if (w - step) % n not in target]
        pairs: Iterable[tuple[int, int]] = ()
        if not starts:  # W is whole cycles, of `cycle` members each
            if r == cycle:
                for s in ws:
                    yield SingleCertificate(Progression(s, step, r, n))
                if half:  # s and s + (r/2)k start opposite halves
                    pairs = [(s, (s + half * step) % n) for s in ws]
                    pairs = [(s, t) for s, t in pairs if s < t]
            elif half == cycle:  # two cycles; the cycle of x is x mod gcd
                g = n // cycle
                pairs = [
                    (s, t) for i, s in enumerate(ws) for t in ws[i + 1 :] if (t - s) % g
                ]
        elif len(starts) == 1:
            if r < cycle:  # one run, not a whole cycle beside it
                s = starts[0]
                yield SingleCertificate(Progression(s, step, r, n))
                if half:
                    t = (s + half * step) % n
                    pairs = [(min(s, t), max(s, t))]
        elif len(starts) == 2 and half:
            # the first run has r/2 members, which is below the cycle length,
            # so the rest is too short for a whole cycle: it is the other run
            if _run_length(starts[0], step, n, target) == half:
                pairs = [tuple(starts)]
        for s, t in pairs:
            yield SplitCertificate(
                Progression(s, step, half, n), Progression(t, step, half, n)
            )


def element_options(vertices: Iterable[int], n: int) -> tuple[ElementCertificate, ...]:
    """All certificate candidates for one element, in canonical order.

    An empty result means the element has no arithmetic representation under
    the current labels. See ``_iter_options`` for the order.
    """
    return tuple(_iter_options(vertices, n))


def _augment(
    i: int, candidates, holder: dict[int, int], held: dict[int, int]
) -> bool:
    """Kuhn's step: add list i to a matching that covers the lists matched so far.

    This answers the distinct-centrals question, one list at a time: a
    bipartite matching between the lists and their members that covers
    every list (Hall's theorem), grown by Kuhn's augmenting paths.
    ``holder`` maps each taken member to its list and ``held`` each matched
    list to its member. List i takes a free candidate, or frees a taken one
    by moving its holder along an alternating path, found depth first in
    candidate order on an explicit stack. With every other matched list
    covered, such a path exists iff the lists with i still have distinct
    representatives (Berge); when none exists the matching is left as it
    was and False is returned. A path enters a list only through the member
    it holds, which the path has then already visited, so a list narrowed to
    that one member is never moved.
    """
    visited: set[int] = set()
    stack = [(i, iter(candidates[i]))]
    taken: list[int] = []  # the member each list on the stack is moving to
    while stack:
        for c in stack[-1][1]:
            if c in visited:
                continue
            visited.add(c)
            taken.append(c)
            j = holder.get(c)
            if j is None:
                for (k, _), m in zip(stack, taken):
                    holder[m] = k
                    held[k] = m
                return True
            stack.append((j, iter(candidates[j])))
            break
        else:
            stack.pop()
            if taken:
                taken.pop()
    return False


def _backtrack(moves, place, unplace, goal: int, budget: int, nodes: int = 0):
    """Depth-first search on an explicit stack; returns (found, nodes).

    ``moves()`` lists the candidates of the next level for the current state.
    ``place(c)`` applies one and returns True or, when the search may not go
    below it, returns False with the state unchanged. ``unplace(c)`` undoes a
    placed candidate. A state with ``goal`` (at least 1) candidates placed
    is a solution, left in place on return. Every candidate tried is one
    node, counted on from ``nodes``; trying more than ``budget`` raises
    BudgetExceededError. No recursion, so the depth of the search is not
    bounded by Python's recursion limit.
    """
    levels = [iter(moves())]
    path = []
    while levels:
        for c in levels[-1]:  # resumes where this level stopped
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(budget)
            if place(c):
                if len(levels) == goal:
                    return True, nodes
                path.append(c)
                levels.append(iter(moves()))
                break
        else:  # level exhausted: back up one
            levels.pop()
            if path:
                unplace(path.pop())
    return False, nodes


def find_certificate(d: CliqueDecomposition) -> ArithmeticCertificate | None:
    """Pick one option per element so that all centrals are pairwise distinct.

    Even-order elements carry no central, so any option serves; each takes
    its first in canonical order, and its other options are never built.
    Odd-order elements are decided fewest options first, each taking its
    first option in canonical order whose central is unused and still leaves
    the remaining odd elements distinct centrals. One matching of all odd
    elements to distinct centrals, kept for the whole call, decides that
    lookahead exactly: an element is fixed by narrowing its list to the
    central it holds, and an earlier central c is tried by moving the
    element to c with one augmenting step, which succeeds iff the fixed
    elements, this one on c and the rest still match. So this is the first
    solution a backtracker in the same order would reach, found without
    backtracking. Returns None iff no selection exists.
    """
    chosen: list[ElementCertificate] = []
    per_odd: dict[int, tuple[ElementCertificate, ...]] = {}
    for i, elem in enumerate(d.elements):
        if elem.order % 2 == 1:
            per_odd[i] = options = element_options(elem.vertices, d.n)
        else:
            options = _iter_options(elem.vertices, d.n)
        first = next(iter(options), None)
        if first is None:
            return None
        chosen.append(first)

    odd_indices = sorted(per_odd, key=lambda i: (len(per_odd[i]), i))
    centrals = [
        list(dict.fromkeys(o.central for o in per_odd[i])) for i in odd_indices
    ]
    holder: dict[int, int] = {}  # central -> position in odd_indices
    held: dict[int, int] = {}  # position in odd_indices -> its central
    for pos in range(len(odd_indices)):
        if not _augment(pos, centrals, holder, held):
            return None
    for pos, idx in enumerate(odd_indices):
        mine = held[pos]
        for c in centrals[pos]:  # stops at mine at the latest
            if c == mine:
                break
            del holder[mine], held[pos]
            centrals[pos] = [c]
            if _augment(pos, centrals, holder, held):
                break
            holder[mine], held[pos] = pos, mine
        centrals[pos] = [held[pos]]  # fixed: no later path can move it
        chosen[idx] = next(o for o in per_odd[idx] if o.central == held[pos])
    return ArithmeticCertificate(tuple(chosen))


def check_certificate(d: CliqueDecomposition, cert: ArithmeticCertificate) -> bool:
    """Re-verify a certificate: coverage per element and distinct centrals.

    Every progression must be a k-progression of Z_n with 1 <= k <= n // 2
    whose terms are distinct, so that no term, and no central, repeats.
    """
    if len(cert.entries) != len(d.elements):
        return False
    for elem, entry in zip(d.elements, cert.entries):
        if entry.covered != elem.vertex_set:
            return False
        if isinstance(entry, SplitCertificate):
            progressions = (entry.first, entry.second)
            if entry.first.length != entry.second.length:
                return False
            if entry.first.term_set & entry.second.term_set:
                return False
            if entry.first.step != entry.second.step:
                return False
        else:
            progressions = (entry.progression,)
        for p in progressions:
            if p.modulus != d.n or not 1 <= p.step <= d.n // 2:
                return False
            if len(p.term_set) != p.length:
                return False
    centrals = [c for _, c in cert.centrals]
    return len(centrals) == len(set(centrals))


def _abstract_structure(
    n: int, elements: Sequence[Sequence[VertexId]]
) -> tuple[list[VertexId], list[list[int]]]:
    """Vertex ids in first-appearance order and elements over their indices.

    Also validates that the abstract pattern is a decomposition shape: after
    the canonical bijection onto 0..n-1 it must pass full validation.
    """
    order: list[VertexId] = []
    index: dict[VertexId, int] = {}
    for elem in elements:
        for v in elem:
            if v not in index:
                index[v] = len(order)
                order.append(v)
    if len(order) != n:
        raise ValueError(f"expected {n} distinct vertices, found {len(order)}")
    indexed = [[index[v] for v in elem] for elem in elements]
    validate_decomposition(n, indexed)  # raises with the violation list
    return order, indexed


def search_labeling(
    n: int,
    elements: Sequence[Sequence[VertexId]],
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Labeling, CliqueDecomposition, ArithmeticCertificate] | None:
    """Find a bijection onto Z_n making the decomposition arithmetic.

    Backtracks over partial vertex assignments. A branch dies as soon as a
    fully-labeled element has no options, or the fully-labeled odd elements
    cannot receive pairwise distinct centrals. Exhaustive up to two
    symmetries, so None means no labeling exists:

    - Translation: the first vertex of the largest element is pinned to 0.
      Adding t to every label keeps every progression a progression and
      shifts all centrals by t, preserving distinctness.
    - Units: the second vertex in the variable order tries only the
      divisors of n. Multiplying every label by a unit u fixes the pinned 0,
      turns a k-progression into a uk-progression and maps centrals
      bijectively, so it maps the solutions below label x onto those below
      ux. The orbit of x under the units is every label with the same
      gcd(x, n), whose least member is that gcd, a divisor. A subtree
      without a solution thus proves its whole orbit has none, and the
      first solution in plain order lies below a divisor: the labelings
      returned are exactly those of the plain search, in no more nodes.

    One search asks for the same few hundred label sets tens of thousands of
    times, so it keeps an index from a label set's bitmask (bit x set for
    label x, the OR of the ``1 << label`` kept per vertex) to what the
    search needs of its options: whether there are any, and for an odd set
    its candidate centrals in canonical order without repeats. An entry is
    built the first time its set completes, an odd set's from
    ``element_options`` and an even set's from its first option alone, and
    lives as long as the call. A 2-element set always has an option, so it
    is never looked up. The certificate itself is built once, by
    ``find_certificate``, for the labeling found. The centrals test keeps
    one matching of the completed odd elements to distinct centrals for the
    whole search: an odd element that completes is added to it by one
    augmenting step, and taken out, freeing its central, when its label is
    undone. An even element adds no central and cannot change the answer.

    A found labeling comes back as ``(labeling, relabeled, certificate)``:
    the bijection, the decomposition relabeled through it (as
    ``apply_labeling`` builds it), and the certificate of that relabeled
    decomposition. Raises BudgetExceededError when the node budget runs
    out, leaving the question open rather than answering it.
    """
    order, indexed = _abstract_structure(n, elements)
    m = len(indexed)

    largest = max(range(m), key=lambda i: (len(indexed[i]), -i))
    pinned = indexed[largest][0]

    # Static variable order: pinned vertex first, then by how many elements
    # a vertex touches (most constrained first), ties by first appearance.
    membership = [0] * n
    for elem in indexed:
        for v in elem:
            membership[v] += 1
    var_order = [pinned] + sorted(
        (v for v in range(n) if v != pinned), key=lambda v: (-membership[v], v)
    )
    position = {v: i for i, v in enumerate(var_order)}

    # For pruning: elements become checkable once their last vertex (in the
    # variable order) is assigned.
    completed_at: list[list[int]] = [[] for _ in range(n)]
    for ei, elem in enumerate(indexed):
        if len(elem) > 2:
            completed_at[max(position[v] for v in elem)].append(ei)

    bit = [0] * n  # 1 << label of each assigned vertex
    used_labels = [False] * n
    depth = 0  # vertices assigned, in variable order
    # label-set bitmask -> candidate centrals of an odd set, () for an even
    # set, None when the set has no options
    index: dict[int, tuple[int, ...] | None] = {}
    centrals_of: list[tuple[int, ...]] = [()] * m  # of each completed odd element
    holder: dict[int, int] = {}  # central -> the odd element matched to it
    held: dict[int, int] = {}  # matched odd element -> its central

    def entry(mask: int, size: int) -> tuple[int, ...] | None:
        labels = [x for x in range(n) if mask >> x & 1]
        if size % 2 == 1:
            centrals = tuple(dict.fromkeys(o.central for o in element_options(labels, n)))
            return centrals or None
        return None if next(_iter_options(labels, n), None) is None else ()

    def release(level: int) -> None:
        # an odd element is matched only at the level where it completes
        for ei in completed_at[level]:
            if ei in held:
                del holder[held.pop(ei)]

    divisors = [x for x in range(1, n) if n % x == 0]

    def moves() -> list[int]:
        if depth == 0:
            return [0]
        if depth == 1:
            return divisors
        return [x for x in range(n) if not used_labels[x]]

    def place(lab: int) -> bool:
        nonlocal depth
        v = var_order[depth]
        bit[v] = 1 << lab
        for ei in completed_at[depth]:
            elem = indexed[ei]
            mask = 0
            for u in elem:
                mask |= bit[u]
            if mask in index:
                centrals = index[mask]
            else:
                centrals = index[mask] = entry(mask, len(elem))
            if centrals is None:
                break
            if centrals:
                centrals_of[ei] = centrals
                if not _augment(ei, centrals_of, holder, held):
                    break
        else:
            used_labels[lab] = True
            depth += 1
            return True
        release(depth)
        return False

    def unplace(lab: int) -> None:
        nonlocal depth
        depth -= 1
        release(depth)
        used_labels[lab] = False

    found, _ = _backtrack(moves, place, unplace, n, budget)
    if not found:
        return None
    labeling = Labeling(tuple((order[v], bit[v].bit_length() - 1) for v in range(n)))
    relabeled = apply_labeling(n, elements, labeling)
    cert = find_certificate(relabeled)
    if cert is None:
        raise TheoremViolationError(
            (), "labeling search accepted a labeling that has no certificate"
        )
    return labeling, relabeled, cert


def apply_labeling(
    n: int, elements: Sequence[Sequence[VertexId]], labeling: Labeling
) -> CliqueDecomposition:
    """Relabel an abstract decomposition into a concrete one over Z_n."""
    return validate_decomposition(n, labeling.apply(elements))
