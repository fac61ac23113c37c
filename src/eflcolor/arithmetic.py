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
from typing import Collection, Hashable, Iterable, Iterator, Sequence

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


def _iter_options(
    vertices: Iterable[int], n: int
) -> Iterator[ElementCertificate]:
    """The certificate candidates of one element, lazily, in canonical order.

    Order: ascending step; within a step, single progressions (ascending
    start) before splits (ascending start pair). Each step's orderings are
    built only when the options before them have been consumed, so a caller
    that needs just the first option pays for the steps up to it.
    """
    target = frozenset(vertices)
    if len(target) < 2:
        raise ValueError("elements have at least two vertices")
    even = len(target) % 2 == 0
    for step in range(1, n // 2 + 1):
        for p in arithmetic_orderings(target, step, n):
            yield SingleCertificate(p)
        if even:
            for a, b in split_orderings(target, step, n):
                yield SplitCertificate(a, b)


def element_options(vertices: Iterable[int], n: int) -> tuple[ElementCertificate, ...]:
    """All certificate candidates for one element, in canonical order.

    An empty result means the element has no arithmetic representation under
    the current labels. See ``_iter_options`` for the order.
    """
    return tuple(_iter_options(vertices, n))


def _distinct_representatives(
    candidates: Sequence[Sequence[int]], blocked: Collection[int] = ()
) -> list[int] | None:
    """One member per list, no two alike and none blocked, or None.

    This is the distinct-centrals question: a bipartite matching between the
    lists and the vertices that covers every list (Hall's theorem). Kuhn's
    augmenting-path method answers it in polynomial time: each list in turn
    takes a free candidate, or frees a taken one by moving its holder along
    an alternating path.
    """
    holder: dict[int, int] = {}

    def claim(i: int, visited: set[int]) -> bool:
        for c in candidates[i]:
            if c in visited or c in blocked:
                continue
            visited.add(c)
            j = holder.get(c)
            if j is None or claim(j, visited):
                holder[c] = i
                return True
        return False

    if not all(claim(i, set()) for i in range(len(candidates))):
        return None
    chosen = [0] * len(candidates)
    for c, i in holder.items():
        chosen[i] = c
    return chosen


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
    the remaining odd elements distinct centrals. A bipartite matching
    decides that lookahead exactly, so this is the first solution a
    backtracker in the same order would reach, found without backtracking.
    Returns None iff no selection exists.
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
    used: set[int] = set()
    for pos, idx in enumerate(odd_indices):
        rest = centrals[pos + 1 :]
        for c in centrals[pos]:
            if c in used:
                continue
            if _distinct_representatives(rest, used | {c}) is not None:
                break
        else:
            return None
        used.add(c)
        chosen[idx] = next(o for o in per_odd[idx] if o.central == c)
    return ArithmeticCertificate(tuple(chosen))


def check_certificate(d: CliqueDecomposition, cert: ArithmeticCertificate) -> bool:
    """Re-verify a certificate: coverage per element and distinct centrals."""
    if len(cert.entries) != len(d.elements):
        return False
    for elem, entry in zip(d.elements, cert.entries):
        if entry.covered != elem.vertex_set:
            return False
        if isinstance(entry, SplitCertificate):
            if entry.first.length != entry.second.length:
                return False
            if entry.first.term_set & entry.second.term_set:
                return False
            if entry.first.step != entry.second.step:
                return False
        if len(set(entry.covered)) != elem.order:
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
    unit_symmetry: bool = False,
) -> tuple[Labeling, CliqueDecomposition, ArithmeticCertificate] | None:
    """Find a bijection onto Z_n making the decomposition arithmetic.

    Backtracks over partial vertex assignments. A branch dies as soon as a
    fully-labeled element has no options, or the fully-labeled odd elements
    cannot receive pairwise distinct centrals. Translation symmetry is broken
    by pinning the first vertex of the largest element to 0, which is safe:
    adding t to every label keeps every progression a progression and shifts
    all centrals by t, preserving distinctness. Exhaustive up to that
    reduction, so None means no labeling exists.

    One search asks for the same few hundred label sets tens of thousands of
    times, so it keeps an index from a label set's bitmask (bit x set for
    label x) to what the search needs of its options: whether there are any,
    and for an odd set its candidate centrals in canonical order without
    repeats. An entry is built the first time its set completes, an odd
    set's from ``element_options`` and an even set's from its first option
    alone, and lives as long as the call; the certificate itself is built
    once, by ``find_certificate``, for the labeling found. The centrals test
    is one bipartite matching of the completed odd elements to their
    candidates, run whenever an odd element completes; an even element adds
    no central and cannot change its answer.

    ``unit_symmetry`` additionally restricts the second assigned vertex to
    one label per orbit of the unit group (multiplying all labels by a unit
    u fixes 0, rescales every step, and maps centrals bijectively, so some
    solution survives the restriction; the orbit of x under units is
    determined by gcd(x, n), with the divisor itself as least member). Off
    by default because the returned labeling is then no longer the first in
    plain branch order.

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
        last = max(position[v] for v in elem)
        completed_at[last].append(ei)

    assignment: dict[int, int] = {}  # filled in variable order
    used_labels = [False] * n
    # label-set bitmask -> candidate centrals of an odd set, () for an even
    # set, None when the set has no options
    index: dict[int, tuple[int, ...] | None] = {}
    odd_centrals: list[tuple[int, ...]] = []  # one entry per completed odd element
    marks: list[int] = []  # len(odd_centrals) before each placed label

    def lookup(elem: list[int]):
        labels = [assignment[u] for u in elem]
        mask = 0
        for x in labels:
            mask |= 1 << x
        if mask not in index:
            if len(elem) % 2 == 1:
                options = element_options(labels, n)
                centrals = tuple(dict.fromkeys(o.central for o in options))
                index[mask] = centrals or None
            elif next(_iter_options(labels, n), None) is None:
                index[mask] = None
            else:
                index[mask] = ()
        return index[mask]

    unit_reps = {d for d in range(1, n) if n % d == 0} if unit_symmetry else None

    def moves() -> list[int]:
        depth = len(assignment)
        if depth == 0:
            return [0]
        if depth == 1 and unit_reps is not None:
            return [x for x in range(n) if not used_labels[x] and x in unit_reps]
        return [x for x in range(n) if not used_labels[x]]

    def place(lab: int) -> bool:
        depth = len(assignment)
        assignment[var_order[depth]] = lab
        mark = len(odd_centrals)
        for ei in completed_at[depth]:
            centrals = lookup(indexed[ei])
            if centrals is None:
                break
            if centrals:
                odd_centrals.append(centrals)
        else:
            if len(odd_centrals) == mark or (
                _distinct_representatives(odd_centrals) is not None
            ):
                used_labels[lab] = True
                marks.append(mark)
                return True
        del odd_centrals[mark:]
        assignment.popitem()
        return False

    def unplace(lab: int) -> None:
        del odd_centrals[marks.pop() :]
        used_labels[lab] = False
        assignment.popitem()

    found, _ = _backtrack(moves, place, unplace, n, budget)
    if not found:
        return None
    labeling = Labeling(tuple((order[v], assignment[v]) for v in range(n)))
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
