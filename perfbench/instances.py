"""Seeded instance streams for the benchmark workloads.

This module is the only place that decides what the program is given. It
writes plain instance files and a manifest with what the checks need to know
about each one (its element sets and, where known, its chromatic index). The
program under test only ever reads the files.

Each workload is a fixed family of instance kinds and sizes, written once per
cycle. The seed varies the inputs within that family: the label permutation
of every ``search`` instance and the generator seed of every random instance
in ``certify`` and ``chi``. Keeping the family fixed keeps the mix of slow and
fast operations, and with it the run-to-run spread, under control; the slow
kinds (the n = 10 "no labeling" proofs, the budget-outs) are in every cycle.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from eflcolor import fixtures

# Node budgets passed on the command line, well below the CLI defaults so
# that a budget-out costs about a second, not minutes. At SEARCH_BUDGET the
# n = 8 "no labeling" proofs (4.5k-6.5k nodes) finish; the n = 10 and n = 11
# instances that have no labeling, or need a long search, run out of nodes.
SEARCH_BUDGET = 10_000
# trivial_edges(13), (17) and (21) run out of CHI_BUDGET; so do some random
# instances with n >= 20.
CHI_BUDGET = 2_000

# Cycles written per workload: about what a 30 s run uses at the seed
# commit; a faster program cycles through them again.
CYCLES = {"search": 4, "certify": 8, "chi": 40}

# search: random_decomposition(n, s) for s in range(count), labels permuted.
SEARCH_FAMILY = ((8, 64), (9, 6), (10, 2), (11, 2))

CERTIFY_NAMED = ("paper_k9", "fano_k7", "sts9_k9")
CERTIFY_TRIVIAL = (15, 30, 45, 60)
CERTIFY_PENCIL = (15, 30, 45, 60)
CERTIFY_RANDOM = (12, 16, 20, 24, 28, 32, 36, 40)

CHI_NAMED = ("paper_k9", "fano_k7", "sts9_k9")
CHI_TRIVIAL = (9, 12, 13, 14, 17, 21)
CHI_PENCIL = (12, 30)
CHI_RANDOM = (10, 14, 18, 22, 24)

WORKLOADS = ("search", "certify", "chi")

KNOWN_CHI = {"paper_k9": 7, "fano_k7": 7, "sts9_k9": 4}


def write(workload: str, seed: int, directory: Path) -> Path:
    """Write every cycle's instance files and the manifest; return its path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    cycles = []
    for cycle in range(CYCLES[workload]):
        rng = random.Random(f"{workload}:{seed}:{cycle}")
        specs = _SPECS[workload](rng)
        records = []
        for name, n, elements, known_chi in specs:
            path = directory / f"c{cycle}-{name}.txt"
            path.write_text(_instance_text(n, elements), encoding="utf-8")
            records.append(
                {
                    "name": name,
                    "path": str(path),
                    "n": n,
                    "elements": elements,
                    "known_chi": known_chi,
                }
            )
        cycles.append(records)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"cycles": cycles}), encoding="utf-8")
    return manifest


def load(manifest: Path) -> list[list[dict]]:
    return json.loads(manifest.read_text(encoding="utf-8"))["cycles"]


def _instance_text(n: int, elements: list[list[int]]) -> str:
    lines = [f"n {n}"]
    lines.extend("element " + " ".join(map(str, elem)) for elem in elements)
    return "\n".join(lines) + "\n"


def _elements(d) -> list[list[int]]:
    return [list(elem.vertices) for elem in d.elements]


def _search_specs(rng: random.Random):
    # Spread each size evenly over the cycle, so that any prefix of a cycle
    # holds every size in about its share.
    counts = dict(SEARCH_FAMILY)
    queue = [(n, s) for n, count in SEARCH_FAMILY for s in range(count)]
    queue.sort(key=lambda ns: ((ns[1] + 0.5) / counts[ns[0]], ns[0]))
    specs = []
    for n, s in queue:
        d = fixtures.random_decomposition(n, s)
        perm = list(range(n))
        rng.shuffle(perm)
        elements = [sorted(perm[v] for v in elem.vertices) for elem in d.elements]
        specs.append((f"random-{n}-{s}", n, elements, None))
    return specs


def _trivial_chi(n: int) -> int:
    return n if n % 2 == 1 else n - 1


def _certify_specs(rng: random.Random):
    specs = [(name, *_named(name)) for name in CERTIFY_NAMED]
    specs += [
        (f"trivial-{n}", n, _all_pairs(n), _trivial_chi(n)) for n in CERTIFY_TRIVIAL
    ]
    specs += [
        (f"pencil-{n}", n, _elements(fixtures.near_pencil(n)), n)
        for n in CERTIFY_PENCIL
    ]
    specs += _random_specs(rng, CERTIFY_RANDOM)
    return specs


def _chi_specs(rng: random.Random):
    specs = [(name, *_named(name)) for name in CHI_NAMED]
    specs += [(f"trivial-{n}", n, _all_pairs(n), _trivial_chi(n)) for n in CHI_TRIVIAL]
    specs += [
        (f"pencil-{n}", n, _elements(fixtures.near_pencil(n)), n) for n in CHI_PENCIL
    ]
    specs += _random_specs(rng, CHI_RANDOM)
    return specs


def _named(name: str):
    d = fixtures.fixture(name)
    return d.n, _elements(d), KNOWN_CHI[name]


def _all_pairs(n: int) -> list[list[int]]:
    return _elements(fixtures.trivial_edges(n))


def _random_specs(rng: random.Random, sizes):
    specs = []
    for n in sizes:
        s = rng.randrange(1_000_000)
        d = fixtures.random_decomposition(n, s)
        specs.append((f"random-{n}-{s}", n, _elements(d), None))
    return specs


_SPECS = {"search": _search_specs, "certify": _certify_specs, "chi": _chi_specs}
