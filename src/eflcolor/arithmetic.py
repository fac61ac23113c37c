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
from functools import lru_cache
from math import gcd
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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


def _windows(r: int, step: int, n: int) -> int:
    """Every step-k window of r terms of Z_n, in one int.

    The window at s is s, s+k, ..., s+(r-1)k mod n, label x being bit x;
    its terms are distinct iff r is at most the cycle length n / gcd(k, n).
    It is the window at 0 rotated by s, so with the window at 0 in bits
    0..n-1 and again in bits n..2n-1, as returned, the window at s is
    ``_windows(r, step, n) >> n - s & (1 << n) - 1``.
    """
    w = 0
    for i in range(r):
        w |= 1 << i * step % n
    return w << n | w


def _iter_options(ws: Sequence[int], n: int) -> Iterator[ElementCertificate]:
    """The certificate candidates of an element, lazily, in canonical order.

    ``ws`` lists its labels W ascending, at least two, all in 0..n-1.
    Order: ascending step; within a step, single progressions (ascending
    start) before splits (ascending start pair). This is what
    ``arithmetic_orderings`` and ``split_orderings`` list, read off the
    step's windows (``_windows``) instead: s starts a single iff its window
    of r = |W| terms is W, and (s, t) with s < t a split iff the windows of
    r/2 terms at s and t lie in W and do not meet, so that the one at t is
    W minus the one at s (sizes up to the cycle length). A window's start
    is its one member whose predecessor x - k lies outside it, unless it is
    a whole cycle, which has none and starts at each member; so only those
    starts are tried, and a step where W has two such members has no single
    and one with three or more has no option. Each step costs O(r) plus
    its options, so a caller that needs just the first option pays for the
    steps up to it.
    """
    r = len(ws)
    mask = sum(map((1).__lshift__, ws))
    full = (1 << n) - 1
    half = 0 if r % 2 else r // 2
    for step in range(1, n // 2 + 1):
        cycle = n // gcd(step, n)
        firsts = mask & ~(mask << step | mask >> n - step)
        count = firsts.bit_count()
        if count < 2 and r <= cycle:
            singles = _windows(r, step, n)
            for s in (firsts.bit_length() - 1,) if firsts else ws:
                if singles >> n - s & full == mask:
                    yield SingleCertificate(Progression(s, step, r, n))
        if count < 3 and 0 < half <= cycle:
            halves = _windows(half, step, n)
            for s in ws:
                w = halves >> n - s & full
                if w & ~mask:
                    continue
                rest = mask ^ w  # the window at t, if s starts a split
                first = rest & ~(rest << step | rest >> n - step)
                for t in (first.bit_length() - 1,) if first else ws:
                    if s < t and halves >> n - t & full == rest:
                        yield SplitCertificate(
                            Progression(s, step, half, n),
                            Progression(t, step, half, n),
                        )


def element_options(vertices: Iterable[int], n: int) -> tuple[ElementCertificate, ...]:
    """All certificate candidates for one element, in canonical order.

    An empty result means the element has no arithmetic representation under
    the current labels. See ``_iter_options`` for the order.
    """
    ws = sorted(set(vertices))
    if len(ws) < 2:
        raise ValueError("elements have at least two vertices")
    if ws[0] < 0 or ws[-1] >= n:
        raise ValueError(f"labels outside 0..{n - 1}")
    return tuple(_iter_options(ws, n))


@lru_cache(maxsize=256)
def _option_table(size: int, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The option sets of ``size`` labels of Z_n that hold label 0, as bits.

    An option set is a label set with ``element_options``: one
    k-progression or, for an even size, two disjoint k-progressions of
    size / 2, for a step k in 1..n // 2. A k-progression of r distinct
    terms is a window of r consecutive terms of one cycle of x -> x + k,
    for r up to the cycle length n / gcd(k, n), and ``_windows`` holds the
    one starting at each s. So for each step the sets are
    the windows of ``size`` terms through 0 and, for a split, each window
    of size / 2 through 0 joined with each window of size / 2 that does
    not meet it. A set that comes up more than once (one window under
    several steps, or two touching halves, which form one window) is kept
    once, with the centrals of every listing, so repeats change nothing.
    Set i is bit i. Returns ``(every, contains, centrals)``: ``every`` has
    a bit per set, ``contains[y]`` the sets holding label y (so
    ``~contains[y]`` the others), and for an odd size ``centrals[c]`` the
    sets with a single progression centred on c (empty for an even size).
    The sets holding label x are these shifted by x, so ``contains[y - x]``
    and ``centrals[c - x]`` answer for them.
    """
    found: dict[int, list[int] | tuple[()]] = {}  # set -> its centrals
    half = 0 if size % 2 else size // 2
    full = (1 << n) - 1
    for step in range(1, n // 2 + 1):
        cycle = n // gcd(step, n)
        if size <= cycle:  # the window with 0 as its term j
            singles = _windows(size, step, n)
            for j in range(size):
                w = singles >> n - (-j * step % n) & full
                centrals = found.setdefault(w, () if half else [])
                if not half:
                    centrals.append((size // 2 - j) * step % n)
        if 0 < half <= cycle:
            ww = _windows(half, step, n)
            halves = [ww >> n - s & full for s in range(n)]  # the window at s
            for j in range(half):
                first = halves[-j * step % n]
                for w in halves:
                    if not first & w:
                        found.setdefault(first | w, ())
    rows = bytearray()  # set i's labels n - 1 .. 0 at i * n .. i * n + n - 1
    for mask in found:
        rows += format(mask, f"0{n}b").encode()
    # label y's column, last set first; base 2 has no int-string digit limit
    contains = tuple(int(rows[len(rows) - 1 - y :: -n], 2) for y in range(n))
    centrals = [0] * n if not half else []
    for i, cs in enumerate(found.values()):
        for c in cs:
            centrals[c] |= 1 << i
    return (1 << len(found)) - 1, contains, tuple(centrals)


def _augment(
    i: int, domain: Callable[[int], int], holder: dict[int, int], held: list[int]
) -> bool:
    """Kuhn's step: add list i to a matching that covers the lists matched so far.

    This answers the distinct-centrals question, one list at a time: a
    bipartite matching between the lists and their members that covers
    every list (Hall's theorem), grown by Kuhn's augmenting paths.
    ``domain(j)`` is list j's members as an int bitmask (member c is bit
    c), ``holder`` maps each taken member to its list and ``held[j]`` is
    list j's member, -1 while it has none. List i lets go of its member, if
    any, and takes a free one, or frees a taken one by moving its holder
    along an alternating path, found depth first, members in ascending
    order, on an explicit stack. With every other matched list covered, such
    a path exists iff the lists with i still have distinct representatives
    (Berge); when none exists, the matching and i's member stay as they were
    and False is returned. A path enters a list only through the member it
    holds, which the path has then visited: a list narrowed to it never moves.
    """
    mine = held[i]
    holder.pop(mine, None)  # mine is -1 if list i holds no member
    visited = 0  # the members some path has entered
    stack = [(i, domain(i))]
    taken: list[int] = []  # the member each list on the stack is moving to
    while stack:
        rest = stack[-1][1] & ~visited
        if not rest:
            stack.pop()
            if taken:
                taken.pop()
            continue
        low = rest & -rest
        visited |= low
        c = low.bit_length() - 1
        taken.append(c)
        j = holder.get(c)
        if j is None:
            for (k, _), m in zip(stack, taken):
                holder[m] = k
                held[k] = m
            return True
        stack.append((j, domain(j)))
    if mine >= 0:
        holder[mine] = i
    return False


def _backtrack(moves, place, unplace, goal: int, budget: int):
    """Depth-first search on an explicit stack; returns (found, nodes).

    ``moves()`` lists the candidates of the next level for the current state.
    ``place(c)`` applies one and returns True or, when the search may not go
    below it, returns False with the state unchanged. ``unplace(c)`` undoes a
    placed candidate. A state with ``goal`` (at least 1) candidates placed
    is a solution, left in place on return. Every candidate tried is one
    node; trying more than ``budget`` raises BudgetExceededError. No
    recursion, so the depth of the search is not bounded by Python's
    recursion limit.
    """
    levels = [iter(moves())]
    path = []
    nodes = 0
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
    the remaining odd elements distinct centrals. One ``_augment`` matching
    of all odd elements to distinct centrals, kept for the whole call,
    decides that lookahead exactly: an element is fixed by narrowing its
    mask of centrals to the central it holds, and each central its options
    list before that one, in canonical order, is tried once with one
    augmenting step, which succeeds iff the fixed elements, this one on that
    central and the rest still match. A step asks only whether a matching
    exists, so its paths may try centrals in ascending order and this is
    still the first solution a backtracker in canonical order would reach,
    found without backtracking. Returns None iff no selection exists.
    """
    chosen: list[ElementCertificate] = []
    per_odd: dict[int, tuple[ElementCertificate, ...]] = {}
    for i, elem in enumerate(d.elements):
        if elem.order % 2 == 1:
            per_odd[i] = options = element_options(elem.vertices, d.n)
        else:
            options = _iter_options(elem.vertices, d.n)  # ascending, in Z_n
        first = next(iter(options), None)
        if first is None:
            return None
        chosen.append(first)

    odd_indices = sorted(per_odd, key=lambda i: (len(per_odd[i]), i))
    centrals = [sum({1 << o.central for o in per_odd[i]}) for i in odd_indices]
    holder: dict[int, int] = {}  # central -> position in odd_indices
    held = [-1] * len(odd_indices)  # position in odd_indices -> its central
    domain = centrals.__getitem__
    for pos in range(len(odd_indices)):
        if not _augment(pos, domain, holder, held):
            return None
    for pos, idx in enumerate(odd_indices):
        for option in per_odd[idx]:  # reaches the central held at the latest
            c = option.central
            if c != held[pos] and centrals[pos] >> c & 1:  # earlier, not tried yet
                left, centrals[pos] = centrals[pos], 1 << c
                if not _augment(pos, domain, holder, held):
                    centrals[pos] = left ^ 1 << c
            if held[pos] == c:
                break
        centrals[pos] = 1 << held[pos]  # fixed: no later path can move it
        chosen[idx] = option
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

    Backtracks over partial vertex assignments. A branch dies as soon as an
    element can no longer be completed to a set with options, or the odd
    elements holding a label can no longer receive pairwise distinct
    centrals. The vertices are labeled in a fixed order, fail first
    (Haralick & Elliott, Artificial Intelligence 14, 1980): the pinned
    vertex, then the rest by the number of elements of three or more
    vertices through them, then by the number of elements through them (both
    descending), then by first appearance. Pairs always have an option, so
    they never cut a branch and do not count toward the first key. Each
    vertex tries its labels in ascending order, and the labeling returned is
    the first of that plain depth-first search. Exhaustive up to two
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
      returned are exactly those of the plain search in the same variable
      order, in no more nodes.

    Forward checking: every element of three or more vertices that holds a
    label keeps the options it can still take, the option sets O (see
    ``_option_table``) that contain its placed labels P and no other used
    label. Placing label x at vertex v keeps, for the elements through v,
    the options that contain x, and drops them for the other elements that
    hold a label and are not yet complete. An element left with no option
    cuts the branch. A complete element is the case O = P, so a complete set
    without options is cut as soon as it completes. Each element's options
    are a bitmask over the sets of its size that hold the label placed
    first on it (its anchor), built when that label is placed; the groups
    narrowed at each depth are fixed by the variable order.

    The centrals test keeps one ``_augment`` matching of the odd elements
    that hold a label to distinct centrals, each element's candidates being
    the centrals of its options left as one bitmask, tried in ascending
    order (a necessary condition, the cheapest form of all-different
    filtering). An element joins by one augmenting step when it gets its
    first label and is taken out, freeing its central, when that label is
    undone. An element whose held central leaves its candidates is
    augmented again; if that fails the branch is cut and the element gets
    its old central back. Options only come back on undo, so every held
    central stays a candidate. A step fails only when no matching exists,
    so only branches without a solution are cut, and the first labeling in
    plain order is still the one found.
    The certificate itself is built once, by ``find_certificate``, for the
    labeling found.

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

    # Static variable order, fail first (see above): pinned vertex first,
    # then by constraining elements, by membership, by first appearance.
    constraining = [0] * n
    membership = [0] * n
    for elem in indexed:
        for v in elem:
            membership[v] += 1
            constraining[v] += len(elem) >= 3
    var_order = [pinned] + sorted(
        (v for v in range(n) if v != pinned),
        key=lambda v: (-constraining[v], -membership[v], v),
    )
    position = {v: i for i, v in enumerate(var_order)}

    # The checked elements, numbered by slot, and what each depth does to
    # them: joins (first label placed), narrow by the label placed, with a flip
    # (through the vertex, 0: keep the options with it; open elsewhere, -1: drop).
    joins: list[list[int]] = [[] for _ in range(n)]
    narrow: list[list[tuple]] = [[] for _ in range(n)]
    tables = []  # per element: (every, contains, centrals, memo)
    memos: dict[int, dict[int, int]] = {}  # one per size, see domain
    for elem in indexed:
        if len(elem) < 3:
            continue
        s = len(tables)
        every, contains, centrals = _option_table(len(elem), n)
        tables.append((every, contains, centrals, memos.setdefault(len(elem), {})))
        depths = sorted(position[v] for v in elem)
        joins[depths[0]].append(s)
        for k in range(depths[0] + 1, depths[-1] + 1):
            narrow[k].append((s, contains, 0 if k in depths else -1, centrals))

    labels: list[int] = []  # the label placed at each depth so far
    anchor = [0] * len(tables)  # each element's first label
    alive_at = [[0] * len(tables)]  # its options left, one list per depth
    holder: dict[int, int] = {}  # central -> the odd element matched to it
    held = [-1] * len(tables)  # odd element -> its central, -1 if unmatched
    full = (1 << n) - 1

    def domain(s: int) -> int:
        # the centrals of element s's options left; relative to the anchor
        # they depend on those options alone, and the search meets the same
        # options again and again, so each size keeps them
        _, _, centrals, memo = tables[s]
        alive = alive_at[-1][s]
        relative = memo.get(alive)
        if relative is None:
            relative = memo[alive] = sum(
                1 << c for c, sets in enumerate(centrals) if alive & sets
            )
        x = anchor[s]
        return (relative << x | relative >> n - x) & full

    def undo(level: int) -> None:
        # the options narrowed at this level come back, and the odd elements
        # first labeled here leave the matching
        alive_at.pop()
        for s in joins[level]:
            holder.pop(held[s], None)  # held[s] is -1 if s is unmatched
            held[s] = -1

    divisors = [x for x in range(1, n) if n % x == 0]

    def moves() -> list[int]:
        depth = len(labels)
        if depth == 0:
            return [0]
        if depth == 1:
            return divisors
        return [x for x in range(n) if x not in labels]

    def consistent(lab: int, depth: int, alive: list[int]) -> bool:
        # narrow the options for label lab at depth, in place, and rematch;
        # False when an element has no option or the centrals do not match
        moved = []  # odd elements to (re)match
        for s, contains, flip, centrals in narrow[depth]:
            left = alive[s] & (contains[lab - anchor[s]] ^ flip)
            if not left:
                return False
            alive[s] = left
            if centrals and not left & centrals[held[s] - anchor[s]]:
                moved.append(s)
        for s in joins[depth]:
            every, contains, centrals, _ = tables[s]
            for y in labels:
                every &= ~contains[y - lab]
            if not every:
                return False
            anchor[s] = lab
            alive[s] = every
            if centrals:
                moved.append(s)
        for s in moved:
            if not _augment(s, domain, holder, held):
                return False
        return True

    def place(lab: int) -> bool:
        depth = len(labels)
        alive_at.append(alive_at[-1][:])
        if not consistent(lab, depth, alive_at[-1]):
            undo(depth)
            return False
        labels.append(lab)
        return True

    def unplace(lab: int) -> None:
        labels.pop()
        undo(len(labels))

    found, _ = _backtrack(moves, place, unplace, n, budget)
    if not found:
        return None
    labeling = Labeling(tuple((order[v], labels[position[v]]) for v in range(n)))
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
