"""Named instances and the seeded random generator.

``paper_k9`` is the worked K_9 example: seven triangles (three 3-arithmetic,
four 2-arithmetic, centrals 3,4,8,2,6,1,5) completed by the fifteen
remaining pairs in ascending order. The design fixtures are stored as
explicit triple tables and validated at load; no design-theoretic
construction happens here.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import UnknownFixtureError
from .model import CliqueDecomposition, validate_decomposition

K9_TRIANGLES = (
    (0, 3, 6),
    (1, 4, 7),
    (5, 8, 2),
    (0, 2, 4),
    (4, 6, 8),
    (8, 1, 3),
    (3, 5, 7),
)

# Triangle decomposition of K_7: translates of the difference triple {0,1,3}.
FANO_TRIPLES = tuple(
    tuple(sorted(((i + d) % 7 for d in (0, 1, 3)))) for i in range(7)
)

# Triangle decomposition of K_9: rows, columns and both diagonal directions
# of the 3x3 grid (point r,c -> 3r + c).
STS9_TRIPLES = (
    (0, 1, 2),
    (3, 4, 5),
    (6, 7, 8),
    (0, 3, 6),
    (1, 4, 7),
    (2, 5, 8),
    (0, 4, 8),
    (1, 5, 6),
    (2, 3, 7),
    (0, 5, 7),
    (1, 3, 8),
    (2, 4, 6),
)


def complete_with_pairs(
    n: int, elements: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Append every uncovered pair as an order-2 element, ascending."""
    covered = {pair for elem in elements for pair in combinations(sorted(elem), 2)}
    extra = tuple(
        pair for pair in combinations(range(n), 2) if pair not in covered
    )
    return elements + extra


def trivial_edges(n: int) -> CliqueDecomposition:
    """D = E(K_n): every edge its own element."""
    return validate_decomposition(n, list(combinations(range(n), 2)))


def near_pencil(n: int) -> CliqueDecomposition:
    """One clique on 0..n-2 plus all pendant edges at n-1."""
    if n < 3:
        raise ValueError("near pencil needs n >= 3")
    elements = [tuple(range(n - 1))] + [(i, n - 1) for i in range(n - 1)]
    return validate_decomposition(n, elements)


def random_decomposition(n: int, seed: int) -> CliqueDecomposition:
    """Seeded greedy clique cover.

    Repeatedly takes the lexicographically smallest uncovered edge and grows
    it through a fresh random vertex order into a clique of uncovered edges,
    capped at a random target size, so the element mix varies with the seed.
    Always yields a valid decomposition.

    The uncovered edges are one int bitmask per vertex: bit u of ``row[v]``
    is set while the edge uv is uncovered. Rows only lose bits, so they are
    emptied in order: while ``row[a]`` is the first nonzero row, the
    smallest uncovered edge is (a, its lowest bit). The AND of the
    members' rows holds the vertices that may still join the clique, so a
    candidate costs one bit test and the scan stops once it is empty. Each
    element costs O(n) word operations plus the ``n - 3`` draws of its
    shuffle, which is most of the time at large n: n = 500 takes seconds.

    The output for each (n, seed), down to the random stream (one
    ``randint`` and one ``shuffle`` per element), is a fixed contract: the
    tests, the CLI byte pins and the benchmark pin instances through it.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    rng = random.Random(seed)
    row = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    elements: list[tuple[int, ...]] = []
    for a in range(n):
        while row[a]:
            b = (row[a] & -row[a]).bit_length() - 1
            target = rng.randint(2, n)
            clique = [a, b]
            order = [*range(a), *range(a + 1, b), *range(b + 1, n)]
            rng.shuffle(order)
            # the vertices whose edges to every member are still uncovered
            common = row[a] & row[b]
            for v in order:
                if len(clique) >= target or not common:
                    break
                if common >> v & 1:
                    clique.append(v)
                    common &= row[v]
            mask = sum(1 << v for v in clique)
            for v in clique:
                row[v] &= ~mask
            elements.append(tuple(sorted(clique)))
    return validate_decomposition(n, elements)


# name -> (the parameters it reads, a prefix of n, seed; its builder)
_FIXTURES = {
    "paper_k9": (
        (), lambda: validate_decomposition(9, complete_with_pairs(9, K9_TRIANGLES))
    ),
    "fano_k7": ((), lambda: validate_decomposition(7, FANO_TRIPLES)),
    "sts9_k9": ((), lambda: validate_decomposition(9, STS9_TRIPLES)),
    "trivial_edges": (("n",), trivial_edges),
    "near_pencil": (("n",), near_pencil),
    "random": (("n", "seed"), random_decomposition),
}


def fixture(
    name: str, n: int | None = None, seed: int | None = None
) -> CliqueDecomposition:
    """Build a named instance: ``paper_k9``, ``fano_k7``, ``sts9_k9``,
    ``trivial_edges`` and ``near_pencil`` (these two need ``n``), or
    ``random`` (needs ``n`` and ``seed``). A missing ``n`` or ``seed``, or
    one the named instance does not read, raises ValueError."""
    if name not in _FIXTURES:
        raise UnknownFixtureError(name)
    reads, build = _FIXTURES[name]
    for parameter, value in zip(("n", "seed"), (n, seed)):
        if value is None and parameter in reads:
            raise ValueError(f"{name} needs {parameter}")
        if value is not None and parameter not in reads:
            raise ValueError(f"{name} takes no {parameter}")
    return build(*(n, seed)[: len(reads)])
