"""Core model: clique decompositions of K_n and their conflict graphs.

Vertices of K_n are the residues 0..n-1. A decomposition is a partition of
the edge set of K_n into complete subgraphs ("elements"), each on at least
two vertices. Colorings assign one color per element; a coloring is proper
when elements that share a vertex receive different colors, i.e. when it is
a proper vertex coloring of the intersection (conflict) graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

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

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The K_n edges covered by this element."""
        return combinations(self.vertices, 2)


@dataclass(frozen=True)
class CliqueDecomposition:
    """A validated partition of E(K_n) into elements, indices stable."""

    n: int
    elements: tuple[Element, ...]

    def vertex_sets(self) -> list[frozenset[int]]:
        return [e.vertex_set for e in self.elements]

    def vertex_elements(self) -> list[list[int]]:
        """For each vertex, the indices of the elements containing it, ascending."""
        containing: list[list[int]] = [[] for _ in range(self.n)]
        for idx, elem in enumerate(self.elements):
            for v in elem.vertices:
                containing[v].append(idx)
        return containing


@dataclass(frozen=True)
class ConflictGraph:
    """Intersection graph of a decomposition.

    Nodes are element indices; i and j are adjacent iff their vertex sets
    meet. For a valid decomposition the intersection is a single vertex,
    recorded in ``shared_vertex``.
    """

    node_count: int
    neighbors: tuple[tuple[int, ...], ...]
    shared_vertex: Mapping[tuple[int, int], int] = field(hash=False)

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.shared_vertex

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.shared_vertex))


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
    is uncovered or covered more than once.
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

    cover: dict[tuple[int, int], int] = {}
    for elem in elements:
        for a, b in elem.pairs():
            cover[(a, b)] = cover.get((a, b), 0) + 1
    for a, b in combinations(range(n), 2):
        count = cover.get((a, b), 0)
        if count == 0:
            violations.append(Violation("EdgeUncovered", (a, b)))
        elif count > 1:
            violations.append(Violation("EdgeMultiplyCovered", (a, b)))

    if violations:
        raise ValidationError(violations)
    return CliqueDecomposition(n, tuple(elements))


def intersection_graph(d: CliqueDecomposition) -> ConflictGraph:
    """Build the conflict graph; adjacency means a (unique) shared vertex."""
    m = len(d.elements)
    shared: dict[tuple[int, int], int] = {}
    neighbor_sets: list[set[int]] = [set() for _ in range(m)]
    for v, members in enumerate(d.vertex_elements()):
        for i, j in combinations(members, 2):
            key = (i, j)
            # exact edge cover forces |V(G_i) ∩ V(G_j)| <= 1
            if key in shared:
                raise ValueError(f"elements {i},{j} share two vertices")
            shared[key] = v
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)

    neighbors = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return ConflictGraph(m, neighbors, shared)


def check_proper(d: CliqueDecomposition, coloring: Sequence[int]) -> Verdict:
    """Verdict on a total element coloring: OK or the full conflict list."""
    if len(coloring) != len(d.elements):
        raise ValueError(
            f"coloring has {len(coloring)} entries for {len(d.elements)} elements"
        )
    graph = intersection_graph(d)
    conflicts = [
        (i, j, v)
        for (i, j), v in sorted(graph.shared_vertex.items())
        if coloring[i] == coloring[j]
    ]
    return Verdict(not conflicts, tuple(conflicts), len(set(coloring)))
