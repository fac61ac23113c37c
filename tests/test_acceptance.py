"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is exact; runtime caps are asserted where stated.
"""

import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from eflcolor import (
    BudgetExceededError,
    apply_labeling,
    canonical_edge_color,
    check_certificate,
    check_proper,
    check_vertex_coloring,
    chromatic_class,
    color_decomposition,
    corollary_condition,
    decomposition_to_quasicluster,
    edge_arithmetic_check,
    element_options,
    enumerate_decompositions,
    exact_chromatic_index,
    exhaustive_labeling_oracle,
    find_certificate,
    fixture,
    near_pencil,
    pad_to_uniform,
    quasicluster_to_decomposition,
    random_decomposition,
    search_labeling,
    strip_degree_one,
    transfer_coloring,
    trivial_edges,
)
from eflcolor.errors import TheoremViolationError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, expect: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "eflcolor", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


def random_pool():
    """Criterion 4(b): at least 1000 seeded random decompositions, n <= 9."""
    pool = []
    for n in range(4, 10):
        for seed in range(170):
            pool.append(random_decomposition(n, seed))
    return pool


def exhaustive_pool():
    """Criterion 4(a): every decomposition of K_n for n <= 5."""
    pool = []
    for n in range(2, 6):
        pool.extend(enumerate_decompositions(n))
    return pool


def test_criterion_1_paper_example_reproduction(tmp_path):
    start = time.time()
    inst = tmp_path / "k9.txt"
    run_cli("generate", "paper_k9", "--out", str(inst))
    proc = run_cli("color", str(inst), "--labeling", "given", "--json")
    report = json.loads(proc.stdout)
    triangle_entries = report["certificate"][:7]
    assert [e["central"] for e in triangle_entries] == [3, 4, 8, 2, 6, 1, 5]
    assert [e["step"] for e in triangle_entries[:3]] == [3, 3, 3]
    assert [e["step"] for e in triangle_entries[3:]] == [2, 2, 2, 2]
    assert all(e["kind"] == "single" for e in triangle_entries)
    assert report["colors_used"] <= 9
    # the emitted coloring passes independent verification
    col = tmp_path / "col.txt"
    run_cli("color", str(inst), "--out", str(col))
    run_cli("verify", str(inst), str(col))
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion 1] PASS worked K_9 example, centrals 3,4,8,2,6,1,5 ({elapsed:.2f}s)")


def test_criterion_2_canonical_class_structure():
    start = time.time()
    for n in range(2, 51):
        degree_total = 0
        for i in range(n):
            cls = chromatic_class(i, n)
            degree = {}
            for a, b in cls.edges:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert all(v <= 1 for v in degree.values())
            if n % 2 == 1:
                assert len(cls.isolated) == 1
            elif i % 2 == 0:
                assert len(cls.isolated) == 2
            else:
                assert len(cls.isolated) == 0
                assert len(cls.edges) == n // 2
            degree_total += len(cls.edges)
        assert degree_total == n * (n - 1) // 2
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion 2] PASS class structure for n in 2..50 ({elapsed:.2f}s)")


def test_criterion_3_all_edges_case():
    for n in range(2, 13):
        d = trivial_edges(n)
        for elem in d.elements:
            opts = element_options(elem.vertices, n)
            assert any(o.kind == "split" for o in opts)
        cert = find_certificate(d)
        assert cert is not None
        assert cert.centrals == ()
        colored = color_decomposition(d, cert)
        assert check_proper(d, colored.coloring).ok
        assert colored.colors_used <= n
        for elem, color in zip(d.elements, colored.coloring):
            a, b = elem.vertices
            assert color == canonical_edge_color(a, b, n)
    print("\n[criterion 3] PASS all-edges decompositions for n in 2..12")


def test_criterion_4_coloring_property_suite():
    start = time.time()
    violations = 0
    certified = 0
    for d in exhaustive_pool():
        cert = find_certificate(d)
        abstract = [tuple(f"v{v}" for v in e.vertices) for e in d.elements]
        searched = search_labeling(d.n, abstract, budget=500_000)
        if searched is not None:
            labeling, _, cert2 = searched
            relabeled = apply_labeling(d.n, abstract, labeling)
            try:
                colored = color_decomposition(relabeled, cert2)
            except TheoremViolationError:
                violations += 1
                continue
            assert colored.colors_used <= d.n
            certified += 1
        if cert is not None:
            try:
                colored = color_decomposition(d, cert)
            except TheoremViolationError:
                violations += 1
                continue
            assert colored.colors_used <= d.n
    for d in random_pool():
        cert = find_certificate(d)
        if cert is None:
            if d.n <= 6:
                abstract = [tuple(f"v{v}" for v in e.vertices) for e in d.elements]
                try:
                    searched = search_labeling(d.n, abstract, budget=200_000)
                except BudgetExceededError:
                    searched = None
                if searched is not None:
                    labeling, _, cert2 = searched
                    relabeled = apply_labeling(d.n, abstract, labeling)
                    try:
                        colored = color_decomposition(relabeled, cert2)
                    except TheoremViolationError:
                        violations += 1
                        continue
                    assert colored.colors_used <= d.n
                    certified += 1
            continue
        try:
            colored = color_decomposition(d, cert)
        except TheoremViolationError:
            violations += 1
            continue
        assert colored.colors_used <= d.n
        certified += 1
    elapsed = time.time() - start
    assert violations == 0
    assert certified >= 500
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"\n[criterion 4] PASS {certified} certified instances colored properly,"
        f" 0 violations ({elapsed:.1f}s)"
    )


def test_criterion_5_oracle_bound():
    checked = 0
    for d in exhaustive_pool() + random_pool():
        result = exact_chromatic_index(d)
        assert result.chi <= d.n, f"chi {result.chi} > n {d.n}"
        verdict = check_proper(d, result.witness)
        assert verdict.ok and verdict.colors_used == result.chi
        cert = find_certificate(d)
        if cert is not None:
            colored = color_decomposition(d, cert)
            assert result.chi <= colored.colors_used
        checked += 1
    assert checked >= 1000
    print(f"\n[criterion 5] PASS chi <= n on {checked} instances")


def criterion_6_pool():
    from math import gcd

    pool = []
    for n in range(3, 8):
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        for seed in range(40):
            d = random_decomposition(n, seed)
            a, b = units[seed % len(units)], seed % n
            scramble = {v: f"u{(a * v + b) % n}" for v in range(n)}
            pool.append(
                (
                    n,
                    [tuple(scramble[v] for v in e.vertices) for e in d.elements],
                )
            )
    return pool


def test_criterion_6_search_soundness_completeness():
    pool = criterion_6_pool()
    assert len(pool) == 200
    agreements = 0
    found_count = 0
    for n, abstract in pool:
        ours = search_labeling(n, abstract, budget=2_000_000)
        truth = exhaustive_labeling_oracle(n, abstract)
        assert (ours is None) == (truth is None)
        for result in (ours, truth):
            if result is not None:
                labeling, _, cert = result
                relabeled = apply_labeling(n, abstract, labeling)
                assert check_certificate(relabeled, cert)
        if ours is not None:
            found_count += 1
        agreements += 1
    print(
        f"\n[criterion 6] PASS search agrees with the n!-sweep on {agreements}"
        f" instances ({found_count} labelable)"
    )


def test_criterion_7_bijection_and_transfer_laws():
    fixtures = [
        fixture("paper_k9"),
        trivial_edges(4),
        trivial_edges(7),
        near_pencil(6),
        near_pencil(9),
        fixture("fano_k7"),
        fixture("sts9_k9"),
    ]
    for d in fixtures:
        h, corr = decomposition_to_quasicluster(d)
        back, _ = quasicluster_to_decomposition(h)
        assert [e.vertices for e in back.elements] == [e.vertices for e in d.elements]
        padded, registry = pad_to_uniform(h)
        assert all(len(e) == h.n for e in padded.edges)
        assert strip_degree_one(padded).edges == h.edges
        cert = find_certificate(d)
        if cert is not None:
            colored = color_decomposition(d, cert)
            vc = transfer_coloring(colored.coloring, corr)
            verdict = check_vertex_coloring(h, vc)
            assert verdict.ok
            assert verdict.colors_used == colored.colors_used

    agreed = 0
    seed = 0
    while agreed < 100:
        d = random_decomposition(4 + seed % 6, seed)
        seed += 1
        if len(d.elements) == 1:
            continue
        h, corr = decomposition_to_quasicluster(d)
        direct = find_certificate(d)
        through = edge_arithmetic_check(h, list(range(d.n)))
        assert (direct is None) == (through is None)
        if through is not None:
            # same centrals through the correspondence
            direct_centrals = sorted(c for _, c in direct.centrals)
            assert sorted(through.central_edges.values()) == direct_centrals
        agreed += 1
    print(f"\n[criterion 7] PASS bijection, pad/strip and transfer laws ({agreed} seeded)")


def test_criterion_8_corollary_chain():
    findings = []
    examined = 0
    pool = [near_pencil(n) for n in range(4, 13, 2)]
    pool.append(trivial_edges(8))
    pool.extend(random_decomposition(n, seed) for n in range(4, 10) for seed in range(60))
    for d in pool:
        if len(d.elements) == 1:
            continue
        h, corr = decomposition_to_quasicluster(d)
        if not corollary_condition(h):
            continue
        result = edge_arithmetic_check(h, list(range(d.n)))
        if result is None:
            continue
        examined += 1
        centrals = list(result.central_edges.values())
        if len(centrals) != len(set(centrals)):
            findings.append((d.n, [e.vertices for e in d.elements]))
        # stronger form: no two odd-degree vertices can share any candidate
        # central edge under any per-vertex option choice
        degree = h.degrees()
        vertex_edges = h.vertex_edges()
        label_to_edge = {j: j for j in range(d.n)}
        candidates = {}
        for u in result.vertex_order:
            if degree[u] % 2 == 0:
                continue
            labels = frozenset(label_to_edge[j] for j in vertex_edges[u])
            possible = set()
            for option in element_options(labels, d.n):
                if option.central is not None:
                    possible.add(option.central)
            candidates[u] = possible
        for u, v in combinations(candidates, 2):
            if candidates[u] & candidates[v]:
                findings.append((d.n, u, v))
    assert not findings, f"corollary violations: {findings}"
    assert examined >= 5
    print(f"\n[criterion 8] PASS distinct central edges on {examined} corollary instances")


def test_criterion_9_cli_determinism(tmp_path):
    inst = tmp_path / "k9.txt"
    run_cli("generate", "paper_k9", "--out", str(inst))
    col = tmp_path / "col.txt"
    run_cli("color", str(inst), "--out", str(col))
    h = tmp_path / "h.txt"
    run_cli("convert", str(inst), "--to", "hypergraph", "--out", str(h))
    commands = [
        ("generate", "paper_k9"),
        ("generate", "random", "--n", "8", "--seed", "1"),
        ("validate", str(inst)),
        ("validate", str(h), "--hypergraph"),
        ("color", str(inst), "--labeling", "given", "--explain"),
        ("color", str(inst), "--labeling", "search"),
        ("color", str(inst), "--json"),
        ("verify", str(inst), str(col)),
        ("chi", str(inst)),
        ("convert", str(inst), "--to", "hypergraph"),
        ("convert", str(h), "--to", "decomposition"),
        ("sweep", "--n-max", "4", "--mode", "exhaustive"),
        ("sweep", "--n-max", "5", "--mode", "random", "--count", "3", "--seed", "2"),
    ]
    for args in commands:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout, f"nondeterministic output: {args}"
        assert first.stderr == second.stderr
    print(f"\n[criterion 9] PASS byte-identical reruns for {len(commands)} commands")
