"""Quasiclusters and the bijection with clique decompositions.

An n-quasicluster is an intersecting linear hypergraph with n edges, each
of size 2..n, in which every vertex lies in at least two edges. The
correspondence with decompositions of K_n sends each K_n vertex to an edge
(the set of elements containing it) and each element to a hypergraph
vertex; vertex colorings on one side are element colorings on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .arithmetic import (
    ArithmeticCertificate,
    find_certificate,
)
from .errors import (
    EdgeBecomesEmptyError,
    ValidationError,
    VertexInOneElementError,
    Violation,
)
from .model import (
    CliqueDecomposition,
    Element,
    Verdict,
    _meetings,
    _pair_faults,
    check_proper,
    validate_decomposition,
)

HVertex = Hashable


@dataclass(frozen=True)
class Hypergraph:
    """Edges in stored order; vertex order follows first appearance."""

    edges: tuple[tuple[HVertex, ...], ...]

    @property
    def n(self) -> int:
        return len(self.edges)

    def vertex_edges(self) -> dict[HVertex, list[int]]:
        """For each vertex, the indices of the edges containing it, ascending.

        Vertices are keyed in order of first appearance.
        """
        containing: dict[HVertex, list[int]] = {}
        for idx, edge in enumerate(self.edges):
            for v in edge:
                containing.setdefault(v, []).append(idx)
        return containing

    def vertices(self) -> list[HVertex]:
        return list(self.vertex_edges())

    def degrees(self) -> dict[HVertex, int]:
        return {v: len(idxs) for v, idxs in self.vertex_edges().items()}


Quasicluster = Hypergraph


@dataclass(frozen=True)
class Correspondence:
    """Both sides of the bijection and the element -> hypergraph vertex map.

    The other map needs no table: K_n vertex v is always edge v.
    """

    decomposition: CliqueDecomposition
    quasicluster: "Hypergraph"
    element_to_vertex: Mapping[int, HVertex] = field(hash=False)


@dataclass(frozen=True)
class EdgeArithmeticResult:
    """Certificate for an edge labeling, vertex by vertex.

    ``vertex_order`` fixes which hypergraph vertex each certificate entry
    describes; ``central_edges`` maps each odd-degree vertex to the edge
    index carrying its central label.
    """

    certificate: ArithmeticCertificate
    vertex_order: tuple[HVertex, ...]
    central_edges: Mapping[HVertex, int] = field(hash=False)


def validate_quasicluster(raw_edges: Iterable[Iterable[HVertex]]) -> Quasicluster:
    """Check all quasicluster invariants, reporting every violation.

    Edges must pairwise meet in exactly one vertex (one shared vertex is
    linearity, at least one is the intersecting property), have between 2
    and n vertices, and leave no vertex of degree one. Pairs of edges are
    checked through bitmasks filled from each vertex's edge list.
    """
    edges: list[tuple[HVertex, ...]] = []
    violations: list[Violation] = []
    for idx, raw in enumerate(raw_edges):
        listed = list(raw)
        deduped: list[HVertex] = []
        seen: set[HVertex] = set()
        for v in listed:
            if v in seen:
                violations.append(Violation("DuplicateVertex", (idx, v)))
            else:
                seen.add(v)
                deduped.append(v)
        edges.append(tuple(deduped))
    n = len(edges)

    for idx, edge in enumerate(edges):
        if len(edge) > n:
            violations.append(Violation("EdgeTooLarge", (idx,)))
        if len(edge) < 2:
            violations.append(Violation("EdgeTooSmall", (idx,)))
    h = Hypergraph(tuple(edges))
    containing = h.vertex_edges()
    met, twice = _meetings(containing.values(), n)
    violations.extend(_pair_faults(met, twice, "NotIntersecting", "NotLinear"))
    for v, idxs in containing.items():
        if len(idxs) < 2:
            violations.append(Violation("DegreeOneVertex", (v,)))

    if violations:
        raise ValidationError(violations)
    return h


def decomposition_to_quasicluster(
    d: CliqueDecomposition,
) -> tuple[Quasicluster, Correspondence]:
    """Edges = element sets per K_n vertex; hypergraph vertices = elements.

    Requires every K_n vertex to lie in at least two elements, which fails
    only for the one-element decomposition {K_n}. The quasicluster a valid
    d gives is not validated again.
    """
    containing = d.vertex_elements()
    for v in range(d.n):
        if len(containing[v]) < 2:
            raise VertexInOneElementError(v)
    h = Hypergraph(tuple(tuple(members) for members in containing))
    corr = Correspondence(
        decomposition=d,
        quasicluster=h,
        element_to_vertex={i: i for i in range(len(d.elements))},
    )
    return h, corr


def quasicluster_to_decomposition(
    h: Quasicluster,
) -> tuple[CliqueDecomposition, Correspondence]:
    """K_n vertices = edge indices; element of a hypergraph vertex = its edge set.

    ``h`` must be a quasicluster (see ``validate_quasicluster``); only a
    vertex of degree one is checked for (ValidationError, DegreeOneVertex).
    """
    n = h.n
    containing = h.vertex_edges()
    lonely = [v for v, idxs in containing.items() if len(idxs) < 2]
    if lonely:
        raise ValidationError([Violation("DegreeOneVertex", (v,)) for v in lonely])
    vertex_order = _sorted_ids(containing)
    elements = tuple(Element(tuple(containing[u])) for u in vertex_order)
    d = CliqueDecomposition(n, elements)
    corr = Correspondence(
        decomposition=d,
        quasicluster=h,
        element_to_vertex={i: u for i, u in enumerate(vertex_order)},
    )
    return d, corr


def transfer_coloring(
    coloring: Sequence[int], corr: Correspondence
) -> dict[HVertex, int]:
    """Element coloring -> vertex coloring of the corresponding quasicluster.

    The input must be proper; properness and the color count carry over
    because the maps are inverse bijections between conflicts on both sides.
    """
    verdict = check_proper(corr.decomposition, coloring)
    if not verdict.ok:
        raise ValueError(
            f"coloring is improper on the decomposition: {len(verdict.conflicts)} conflicts"
        )
    return {corr.element_to_vertex[i]: c for i, c in enumerate(coloring)}


def transfer_coloring_back(
    vertex_coloring: Mapping[HVertex, int], corr: Correspondence
) -> tuple[int, ...]:
    """Vertex coloring of the quasicluster -> element coloring."""
    verdict = check_vertex_coloring(corr.quasicluster, vertex_coloring)
    if not verdict.ok:
        raise ValueError(
            f"coloring is improper on the quasicluster: {len(verdict.conflicts)} conflicts"
        )
    return tuple(
        vertex_coloring[corr.element_to_vertex[i]]
        for i in range(len(corr.element_to_vertex))
    )


def check_vertex_coloring(
    h: Hypergraph, coloring: Mapping[HVertex, int]
) -> Verdict:
    """Proper iff no edge contains two vertices of one color.

    Conflicts are reported as (clashing vertex, clashing vertex, edge index).
    """
    conflicts: list[tuple] = []
    for idx, edge in enumerate(h.edges):
        by_color: dict[int, HVertex] = {}
        for v in edge:
            c = coloring[v]
            if c in by_color:
                conflicts.append((by_color[c], v, idx))
            else:
                by_color[c] = v
    used = len(set(coloring[v] for v in h.vertices()))
    return Verdict(not conflicts, tuple(conflicts), used)


def edge_arithmetic_check(
    h: Quasicluster, labels: Sequence[int]
) -> EdgeArithmeticResult | None:
    """Certify an edge labeling: every vertex's label set must be arithmetic.

    ``labels[j]`` is the Z_n label of edge j; the map must be a bijection.
    For each vertex u the set F(u) of labels of edges through u is certified
    exactly as element sets are, by the same code path through the
    correspondence, and odd-degree vertices acquire a central edge. Central
    edges must be pairwise distinct; returns None when no choice works.
    """
    n = h.n
    if sorted(labels) != list(range(n)):
        raise ValueError("edge labeling must be a bijection onto 0..n-1")
    containing = h.vertex_edges()
    vertex_order = _sorted_ids(containing)
    raw_elements = [
        tuple(labels[j] for j in containing[u]) for u in vertex_order
    ]
    d = validate_decomposition(n, raw_elements)
    cert = find_certificate(d)
    if cert is None:
        return None
    label_to_edge = {labels[j]: j for j in range(n)}
    central_edges = {
        vertex_order[i]: label_to_edge[c] for i, c in cert.centrals
    }
    return EdgeArithmeticResult(cert, tuple(vertex_order), central_edges)


def corollary_condition(h: Quasicluster) -> bool:
    """True iff every edge contains at most one vertex of odd degree."""
    degree = h.degrees()
    return all(
        sum(1 for v in edge if degree[v] % 2 == 1) <= 1 for edge in h.edges
    )


def pad_to_uniform(h: Quasicluster) -> tuple[Hypergraph, dict[int, tuple[HVertex, ...]]]:
    """Pad every edge with fresh degree-one vertices up to size n.

    Returns the padded hypergraph and a registry mapping edge index to the
    vertices added there. Fresh ids live outside the original id space so
    stripping is exact.
    """
    n = h.n
    existing = set(h.vertices())
    registry: dict[int, tuple[HVertex, ...]] = {}
    padded: list[tuple[HVertex, ...]] = []
    for idx, edge in enumerate(h.edges):
        fresh: list[HVertex] = []
        for t in range(n - len(edge)):
            vid = f"~{idx}.{t}"
            while vid in existing:
                vid = "~" + vid
            existing.add(vid)
            fresh.append(vid)
        registry[idx] = tuple(fresh)
        padded.append(edge + tuple(fresh))
    return Hypergraph(tuple(padded)), registry


def strip_degree_one(h: Hypergraph) -> Quasicluster:
    """Remove all degree-one vertices; inverse of padding up to the registry."""
    degree = h.degrees()
    stripped = []
    for idx, edge in enumerate(h.edges):
        kept = tuple(v for v in edge if degree[v] >= 2)
        if not kept:
            raise EdgeBecomesEmptyError(idx)
        stripped.append(kept)
    return validate_quasicluster(stripped)


def extend_coloring(
    coloring: Mapping[HVertex, int], padded: Hypergraph
) -> dict[HVertex, int]:
    """Extend a proper coloring of the stripped hypergraph over pad vertices.

    Each missing vertex lies in exactly one edge; it takes the smallest
    palette color unused inside that edge, which exists because edges have
    at most n vertices and the palette has n colors.
    """
    n = padded.n
    extended = dict(coloring)
    for edge in padded.edges:
        used = {extended[v] for v in edge if v in extended}
        free = iter(c for c in range(n) if c not in used)
        for v in edge:
            if v not in extended:
                extended[v] = next(free)
    return extended


def _sorted_ids(ids: Iterable[HVertex]) -> list[HVertex]:
    """Deterministic order; ASCII digit strings sort by value so that
    file-parsed ids round-trip in the same order as their integer originals.
    Other names, '²' and '٢' among them, sort as strings."""

    def key(v: HVertex) -> tuple:
        if isinstance(v, bool):
            return (2, str(v))
        if isinstance(v, int):
            return (0, v, "")
        if isinstance(v, str) and v.isascii() and v.isdigit():
            return (0, int(v), v)
        return (1, 0, str(v))

    return sorted(ids, key=key)
