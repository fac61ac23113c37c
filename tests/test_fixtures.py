"""Named instances and the seeded generator."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflcolor import (
    UnknownFixtureError,
    files,
    fixture,
    random_decomposition,
    validate_decomposition,
)


def reference_random_decomposition(n, seed):
    """The set-of-pairs generator that the bitmask rows replaced, verbatim.

    Every (n, seed) must give the same elements as ``random_decomposition``:
    tests, CLI byte pins and the benchmark pin instances through it.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    rng = random.Random(seed)
    uncovered = set(combinations(range(n), 2))
    elements: list[tuple[int, ...]] = []
    while uncovered:
        a, b = min(uncovered)
        target = rng.randint(2, n)
        clique = [a, b]
        order = [v for v in range(n) if v != a and v != b]
        rng.shuffle(order)
        for v in order:
            if len(clique) >= target:
                break
            if all(tuple(sorted((v, u))) in uncovered for u in clique):
                clique.append(v)
        elem = tuple(sorted(clique))
        elements.append(elem)
        uncovered -= set(combinations(elem, 2))
    return validate_decomposition(n, elements)


def _assert_matches_reference(n, seed):
    got = [e.vertices for e in random_decomposition(n, seed).elements]
    want = [e.vertices for e in reference_random_decomposition(n, seed).elements]
    assert got == want, (n, seed)


def test_paper_k9_layout():
    d = fixture("paper_k9")
    assert len(d.elements) == 22
    assert d.elements[0].vertices == (0, 3, 6)
    assert d.elements[6].vertices == (3, 5, 7)
    pairs = [e.vertices for e in d.elements[7:]]
    assert pairs == sorted(pairs)
    assert all(len(p) == 2 for p in pairs)


def test_trivial_edges_counts():
    assert len(fixture("trivial_edges", n=5).elements) == 10
    assert len(fixture("trivial_edges", n=7).elements) == 21


def test_near_pencil_shape():
    d = fixture("near_pencil", n=6)
    assert d.elements[0].vertices == (0, 1, 2, 3, 4)
    assert len(d.elements) == 6


def test_fano_covers_k7():
    d = fixture("fano_k7")
    assert len(d.elements) == 7
    assert all(e.order == 3 for e in d.elements)
    covered = [pair for e in d.elements for pair in combinations(e.vertices, 2)]
    assert sorted(covered) == sorted(combinations(range(7), 2))


def test_sts9_covers_k9():
    d = fixture("sts9_k9")
    assert len(d.elements) == 12
    assert all(e.order == 3 for e in d.elements)
    covered = [pair for e in d.elements for pair in combinations(e.vertices, 2)]
    assert sorted(covered) == sorted(combinations(range(9), 2))


def test_random_deterministic_per_seed():
    a = random_decomposition(8, 42)
    b = random_decomposition(8, 42)
    assert [e.vertices for e in a.elements] == [e.vertices for e in b.elements]
    c = random_decomposition(8, 43)
    assert [e.vertices for e in a.elements] != [e.vertices for e in c.elements]


def test_random_always_valid():
    for n in (*range(2, 11), 60, 100):
        for seed in range(10):
            d = random_decomposition(n, seed)
            validate_decomposition(n, [e.vertices for e in d.elements])


@pytest.mark.parametrize("n", range(2, 41))
def test_random_matches_reference(n):
    for seed in range(20):
        _assert_matches_reference(n, seed)


@pytest.mark.parametrize("n, seed", [(60, 0), (60, 1), (60, 2), (100, 0), (150, 0)])
def test_random_matches_reference_large(n, seed):
    _assert_matches_reference(n, seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10**6))
def test_random_matches_reference_property(n, seed):
    _assert_matches_reference(n, seed)


def test_random_n300_seed1_file_pinned():
    # recorded from the set-of-pairs generator's `generate random --n 300
    # --seed 1 --out` file
    text = files.serialize_instance(random_decomposition(300, 1))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "36d687e8b3b7374217e28b18e633617f34a307ac99b327f1196475674c5239ad"
    )


def test_random_mixes_element_sizes():
    sizes = {
        e.order
        for seed in range(30)
        for e in random_decomposition(9, seed).elements
    }
    assert 2 in sizes
    assert any(s >= 4 for s in sizes)


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        fixture("mystery")


def test_missing_parameters():
    with pytest.raises(ValueError):
        fixture("trivial_edges")
    with pytest.raises(ValueError):
        fixture("random", n=5)
