"""The operations of each workload and the checks made on their outputs.

Every operation is one ``eflcolor`` command run in-process through
``eflcolor.cli.main(argv)`` on a generated file, timed from the call to its
return. Its output is then checked from outside, untimed: the files it wrote
are parsed again, colorings are checked for properness against the instance
the benchmark generated, and the exit code must be the one the verdict
implies. An operation fails when it raises, exits with a code its verdict
does not allow, or writes output that fails its check.

The check functions are bound here at import, before a tracer wraps the
library, so checking never counts as traced work.
"""

from __future__ import annotations

import io
import json
import os
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from eflcolor import cli
from eflcolor.arithmetic import (
    ArithmeticCertificate,
    SingleCertificate,
    SplitCertificate,
    arithmetic_orderings,
    check_certificate,
    element_options,
    split_orderings,
)
from eflcolor.coloring import element_color
from eflcolor.files import parse_coloring, parse_instance
from eflcolor.model import check_proper, validate_decomposition

from instances import CHI_BUDGET, SEARCH_BUDGET


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str


class CheckFailed(Exception):
    pass


class Runner:
    """Runs operations in a closed loop and keeps their outcomes."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.busy_s = 0.0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def decided(self) -> int:
        return sum(
            not label.endswith((":budget", ":failed")) for label in self.labels
        )

    def op(self, argv: list[str], check) -> str:
        """Run one command and return its outcome label.

        ``check(result)`` returns the label, ``"<command>:<verdict>"``, where
        the verdict ``budget`` marks an undecided operation, or raises on bad
        output; the label is then ``"<command>:failed"``.
        """
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc()
        duration = perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op(duration)
        self.latencies.append(duration)
        self.busy_s += duration
        try:
            if error is not None:
                raise CheckFailed(error)
            label = check(Result(code, out.getvalue(), err.getvalue()))
        except Exception as exc:  # any check that cannot finish is a failed output
            self.failures.append(f"{' '.join(argv)}: {exc!r}")
            label = f"{argv[0]}:failed"
        self.labels.append(label)
        return label


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _expect_code(result: Result, allowed: tuple[int, ...]) -> None:
    _require(
        result.code in allowed,
        f"exit code {result.code}, expected one of {allowed}; stderr {result.stderr!r}",
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


# -- color ---------------------------------------------------------------


def _labeling_comment(text: str) -> dict[int, int]:
    for line in text.splitlines():
        if line.startswith("# labeling "):
            pairs = (tok.split("->") for tok in line[len("# labeling ") :].split())
            return {int(v): int(x) for v, x in pairs}
    raise CheckFailed("coloring file carries no labeling line")


def check_coloring(inst: dict, report: dict, coloring_text: str, searched: bool) -> int:
    """Check a written coloring and its certificate; return the colors used."""
    n = inst["n"]
    elements = inst["elements"]
    doc = parse_coloring(coloring_text)
    _require(
        sorted(doc.assignment) == list(range(len(elements))),
        "coloring does not cover the element indices",
    )
    coloring = [doc.assignment[i] for i in range(len(elements))]
    _require(coloring == report["coloring"], "file and report colorings differ")
    if searched:
        mapping = _labeling_comment(coloring_text)
        _require(
            sorted(mapping) == list(range(n)) and sorted(mapping.values()) == list(range(n)),
            "printed labeling is not a bijection onto Z_n",
        )
        _require(
            report["labeling"] == {str(v): x for v, x in mapping.items()},
            "file and report labelings differ",
        )
        elements = [[mapping[v] for v in elem] for elem in elements]
    d = validate_decomposition(n, elements)
    entries = []
    for i, claim in enumerate(report["certificate"]):
        match = [
            option
            for option in _options_at_step(d.elements[i].vertices, n, claim)
            if option.central == claim["central"]
        ]
        _require(bool(match), f"element {i}: claimed certificate entry does not exist")
        _require(
            element_color(match[0]) == coloring[i],
            f"element {i}: color differs from the forced color",
        )
        entries.append(match[0])
    _require(len(entries) == len(d.elements), "certificate does not cover every element")
    _require(
        check_certificate(d, ArithmeticCertificate(tuple(entries))),
        "certificate fails re-verification",
    )
    verdict = check_proper(d, coloring)
    _require(verdict.ok, f"coloring is improper: {verdict.conflicts[:3]}")
    used = len(set(coloring))
    _require(used == doc.colors_used == report["colors_used"], "colors-used mismatch")
    _require(used <= n, f"{used} colors for n = {n}")
    return used


def _options_at_step(vertices, n: int, claim: dict):
    """The certificate options of one kind and step, as the report claims them."""
    step = claim["step"]
    if claim["kind"] == "single":
        return [SingleCertificate(p) for p in arithmetic_orderings(vertices, step, n)]
    _require(claim["kind"] == "split", f"unknown certificate kind {claim['kind']!r}")
    return [SplitCertificate(a, b) for a, b in split_orderings(vertices, step, n)]


def no_certificate_exists(n: int, elements: list[list[int]]) -> bool:
    """True when the labeled instance has no arithmetic certificate.

    Either an element has no option at all, or the odd elements cannot be
    matched to pairwise distinct centrals (augmenting-path matching, not the
    library's backtracking).
    """
    central_options = []
    for elem in elements:
        options = element_options(elem, n)
        if not options:
            return True
        if len(elem) % 2 == 1:
            central_options.append({option.central for option in options})
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for c in central_options[i]:
            if c in seen:
                continue
            seen.add(c)
            if c not in owner or augment(owner[c], seen):
                owner[c] = i
                return True
        return False

    return not all(augment(i, set()) for i in range(len(central_options)))


def color_op(runner: Runner, inst: dict, out_path: str, searched: bool) -> int | None:
    """Run ``color``; return the colors used, or None without a coloring."""
    argv = ["color", inst["path"], "--out", out_path, "--json"]
    if searched:
        argv += ["--labeling", "search", "--budget", str(SEARCH_BUDGET)]
    used: list[int] = []

    def check(result: Result) -> str:
        _expect_code(result, (0, 3, 4) if searched else (0, 3))
        if result.code == 4:
            _require(not os.path.exists(out_path), "budget-out wrote a coloring")
            _require("budget" in result.stderr, "budget-out without a message")
            return "color:budget"
        report = json.loads(result.stdout)
        if result.code == 3:
            _require(report["ok"] is False, "exit 3 with an ok report")
            _require(not os.path.exists(out_path), "no-certificate run wrote a coloring")
            if not searched:
                _require(
                    no_certificate_exists(inst["n"], inst["elements"]),
                    "exit 3 but a certificate exists",
                )
            return "color:none"
        _require(report["ok"] is True, "exit 0 without an ok report")
        used.append(check_coloring(inst, report, _read(out_path), searched))
        return "color:found"

    _remove(out_path)
    runner.op(argv, check)
    return used[0] if used else None


# -- workloads -------------------------------------------------------------


def run_search(runner: Runner, inst: dict) -> None:
    color_op(runner, inst, _sibling(inst, "coloring"), searched=True)


def run_certify(runner: Runner, inst: dict) -> None:
    coloring_path = _sibling(inst, "coloring")
    used = color_op(runner, inst, coloring_path, searched=False)
    if used is not None:

        def check_verify(result: Result) -> str:
            _expect_code(result, (0,))
            _require(
                result.stdout.strip() == f"proper colors-used {used}",
                f"verify printed {result.stdout.strip()!r}",
            )
            return "verify:proper"

        runner.op(["verify", inst["path"], coloring_path], check_verify)

    hyper_path = _sibling(inst, "hypergraph")
    back_path = _sibling(inst, "back")
    lonely = _has_lonely_vertex(inst)

    def check_to_hypergraph(result: Result) -> str:
        _expect_code(result, (3,) if lonely else (0,))
        if result.code == 3:
            _require(not os.path.exists(hyper_path), "failed conversion wrote a file")
            return "convert:impossible"
        _require(os.path.exists(hyper_path), "conversion wrote no file")
        return "convert:hypergraph"

    _remove(hyper_path)
    runner.op(
        ["convert", inst["path"], "--to", "hypergraph", "--out", hyper_path],
        check_to_hypergraph,
    )
    if lonely:
        return

    def check_back(result: Result) -> str:
        _expect_code(result, (0,))
        back = parse_instance(_read(back_path))
        _require(back.n == inst["n"], "round trip changed n")
        _require(
            sorted(elem.vertices for elem in back.elements)
            == sorted(tuple(elem) for elem in inst["elements"]),
            "round trip changed the element sets",
        )
        return "convert:decomposition"

    _remove(back_path)
    runner.op(
        ["convert", hyper_path, "--to", "decomposition", "--out", back_path],
        check_back,
    )


def run_chi(runner: Runner, inst: dict) -> None:
    witness_path = _sibling(inst, "witness")
    n = inst["n"]
    elements = inst["elements"]

    def check(result: Result) -> str:
        _expect_code(result, (0, 4))
        if result.code == 4:
            _require(not os.path.exists(witness_path), "budget-out wrote a witness")
            _require("budget" in result.stderr, "budget-out without a message")
            return "chi:budget"
        report = json.loads(result.stdout)
        chi = report["chi"]
        doc = parse_coloring(_read(witness_path))
        witness = [doc.assignment[i] for i in range(len(elements))]
        _require(witness == report["witness"], "file and report witnesses differ")
        d = validate_decomposition(n, elements)
        _require(check_proper(d, witness).ok, "witness is improper")
        _require(len(set(witness)) == chi == doc.colors_used, "witness does not use chi colors")
        degree = max(Counter(v for elem in elements for v in elem).values())
        _require(chi >= degree, f"chi {chi} below the vertex-degree bound {degree}")
        if inst["known_chi"] is not None:
            _require(chi == inst["known_chi"], f"chi {chi}, known {inst['known_chi']}")
        return "chi:zero-node" if report["nodes_explored"] == 0 else "chi:search"

    _remove(witness_path)
    runner.op(
        ["chi", inst["path"], "--budget", str(CHI_BUDGET), "--out", witness_path, "--json"],
        check,
    )


def _has_lonely_vertex(inst: dict) -> bool:
    counts = Counter(v for elem in inst["elements"] for v in elem)
    return any(counts[v] < 2 for v in range(inst["n"]))


def _sibling(inst: dict, suffix: str) -> str:
    return inst["path"][: -len(".txt")] + f".{suffix}.txt"


RUN = {"search": run_search, "certify": run_certify, "chi": run_chi}
