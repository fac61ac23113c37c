"""Core model: clique decompositions of K_n and their conflict graphs.

Vertices of K_n are the residues 0..n-1. A decomposition is a partition of
the edge set of K_n into complete subgraphs ("elements"), each on at least
two vertices. Colorings assign one color per element; a coloring is proper
when elements that share a vertex receive different colors, i.e. when it is
a proper vertex coloring of the intersection (conflict) graph. That graph is
the union of one clique per vertex of K_n, the elements through the vertex,
so properness is checked clique by clique: the elements through each vertex
must have pairwise distinct colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError, Violation


@dataclass(frozen=True)
class Element:
    """One complete subgraph in a decomposition; vertices sorted ascending."""

    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class CliqueDecomposition:
    """A validated partition of E(K_n) into elements, indices stable."""

    n: int
    elements: tuple[Element, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a properness check: OK, or every conflicting pair.

    For decompositions each conflict is (element i, element j, shared vertex).
    """

    ok: bool
    conflicts: tuple[tuple, ...]
    colors_used: int


def validate_decomposition(
    n: int, raw_elements: Iterable[Iterable[int]]
) -> CliqueDecomposition:
    """Check that ``raw_elements`` partitions E(K_n) and build the decomposition.

    Every violation is collected before raising: out-of-range or duplicated
    labels, elements with fewer than two vertices, and each edge of K_n that
    is uncovered or covered more than once. Edges are checked through each
    vertex's bitmasks of the vertices it shares an element with, once and
    twice, and walked pair by pair only in the rows that are not exact.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")

    violations: list[Violation] = []
    elements: list[Element] = []
    for idx, raw in enumerate(raw_elements):
        seen: set[int] = set()
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
        elements.append(Element(tuple(sorted(seen))))  # keep indices stable

    met, twice = _meetings((elem.vertices for elem in elements), n)
    violations.extend(
        _pair_faults(met, twice, "EdgeUncovered", "EdgeMultiplyCovered")
    )

    if violations:
        raise ValidationError(violations)
    return CliqueDecomposition(n, tuple(elements))


def _meetings(
    groups: Iterable[Sequence[int]], size: int
) -> tuple[list[int], list[int]]:
    """Which of the indices 0..size-1 share a group, as int bitmasks.

    ``met[a]`` has bit b set when a and b lie together in some group,
    ``twice[a]`` when they do in two or more. A group lists distinct indices.
    The cost is O(size + sum of group sizes) mask operations.
    """
    met = [0] * size
    twice = [0] * size
    for members in groups:
        mask = 0
        for a in members:
            mask |= 1 << a
        for a in members:
            others = mask ^ (1 << a)
            twice[a] |= met[a] & others
            met[a] |= others
    return met, twice


def _pair_faults(
    met: Sequence[int], twice: Sequence[int], missing: str, repeated: str
) -> Iterator[Violation]:
    """A ``missing`` or ``repeated`` violation for each pair a < b that met
    never or more than once, in ``combinations`` order.

    Every pair met exactly once iff each ``met[a]`` is ``full ^ (1 << a)``
    and each ``twice[a]`` is 0; only the rows that fail this are walked.
    """
    n = len(met)
    full = (1 << n) - 1
    # one int object per index, however many faults name it (up to n^2 / 2)
    ids = list(range(n))
    for a in ids:
        if met[a] == full ^ (1 << a) and not twice[a]:
            continue
        row = f"{(full ^ met[a]) | twice[a]:0{n}b}"[::-1]  # bit b at row[b]
        b = row.find("1", a + 1)
        while b >= 0:
            kind = repeated if twice[a] >> b & 1 else missing
            yield Violation(kind, (a, ids[b]))
            b = row.find("1", b + 1)


def intersection_graph(d: CliqueDecomposition) -> tuple[tuple[int, ...], ...]:
    """The conflict graph as its vertex cliques: for each K_n vertex, the
    indices of the elements through it, ascending.

    Two elements are adjacent iff they share a vertex, so every edge of the
    graph lies in one of these cliques; in exactly one for a valid
    decomposition, whose elements meet in at most one vertex. Under the
    quasicluster duality the cliques are the hyperedges.
    """
    containing: list[list[int]] = [[] for _ in range(d.n)]
    for idx, elem in enumerate(d.elements):
        for v in elem.vertices:
            containing[v].append(idx)
    return tuple(map(tuple, containing))


def check_proper(d: CliqueDecomposition, coloring: Sequence[int]) -> Verdict:
    """Verdict on a total element coloring: OK or the full conflict list.

    The coloring is proper iff each vertex clique of the conflict graph has
    pairwise distinct colors. Conflicts come sorted by element pair.
    """
    if len(coloring) != len(d.elements):
        raise ValueError(
            f"coloring has {len(coloring)} entries for {len(d.elements)} elements"
        )
    conflicts: list[tuple[int, int, int]] = []
    for v, members in enumerate(intersection_graph(d)):
        by_color: dict[int, list[int]] = {}
        for i in members:
            by_color.setdefault(coloring[i], []).append(i)
        if len(by_color) < len(members):
            for same in by_color.values():
                conflicts.extend((i, j, v) for i, j in combinations(same, 2))
    conflicts.sort()
    return Verdict(not conflicts, tuple(conflicts), len(set(coloring)))
