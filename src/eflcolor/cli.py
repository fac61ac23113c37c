"""Command-line front end.

Subcommands: validate, color, verify, chi, convert, sweep, generate.
Exit codes are a stable contract for scripting:

* 0 success
* 1 semantic failure (invalid instance, improper coloring, violated bound)
* 2 input error (unreadable file, parse error, index mismatch, bad usage)
* 3 no arithmetic certificate / conversion impossible
* 4 search budget exceeded

Every command accepts ``--json`` to emit the same report as a JSON document.
Output is deterministic: identical inputs and seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import groupby
from operator import itemgetter

from . import files
from .arithmetic import DEFAULT_NODE_BUDGET, find_certificate, search_labeling
from .coloring import ColoredDecomposition, color_decomposition, explain_element
from .errors import (
    BudgetExceededError,
    ParseError,
    TheoremViolationError,
    UnknownFixtureError,
    ValidationError,
    VertexInOneElementError,
)
from .fixtures import fixture, random_decomposition
from .model import CliqueDecomposition, check_proper
from .oracle import (
    DEFAULT_COLORING_BUDGET,
    enumerate_decompositions,
    exact_chromatic_index,
)
from .hypergraph import (
    decomposition_to_quasicluster,
    quasicluster_to_decomposition,
)

SWEEP_EXHAUSTIVE_LIMIT = 5


class UsageError(Exception):
    """Bad usage with no file position to report (exit 2): options that
    argparse accepts one by one but not together, an unknown fixture, or
    two files that are each well formed but do not belong together."""


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report, text, code = args.handler(args)
    except (ParseError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("invalid input:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    except TheoremViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = {
            "command": args.command,
            "ok": False,
            "reason": "budget",
            "budget": exc.budget,
            "interval": exc.interval,
        }
        text, code = [], 4
    try:
        if getattr(args, "json", False):
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for line in text:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``); point stdout at devnull so the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eflcolor",
        description="validate, color and analyze clique decompositions of K_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("path")
    p.add_argument("--hypergraph", action="store_true", help="treat input as a hypergraph file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("color", help="find a certificate and color the instance")
    p.add_argument("path")
    p.add_argument("--labeling", choices=("given", "search"), default="given")
    p.add_argument("--explain", action="store_true", help="append per-element derivations")
    p.add_argument("--out", help="write the coloring file here instead of stdout")
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("instance")
    p.add_argument("coloring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("chi", help="exact chromatic index with witness")
    p.add_argument("path")
    p.add_argument("--budget", type=_count, default=DEFAULT_COLORING_BUDGET)
    p.add_argument("--out", help="write the witness coloring file here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_chi)

    p = sub.add_parser("convert", help="switch between instance and hypergraph files")
    p.add_argument("path")
    p.add_argument("--to", choices=("decomposition", "hypergraph"), required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("sweep", help="bound check over many instances")
    p.add_argument("--n-max", type=_order, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    # None: not given, which random mode reads as 20 and 0
    p.add_argument("--count", type=_count, help="instances per n in random mode (default 20)")
    p.add_argument("--seed", type=_int, help="first generator seed in random mode (default 0)")
    p.add_argument("--budget", type=_count, default=200_000, help="labeling-search node budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("generate", help="write a named fixture instance")
    p.add_argument("name")
    p.add_argument("--n", type=_order)
    p.add_argument("--seed", type=_int)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_generate)

    return parser


def _int(text: str) -> int:
    """argparse type of the integer options, read as the files read them."""
    if files.is_integer(text):
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _count(text: str) -> int:
    """argparse type of ``--budget`` and ``--count``: zero or more."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _order(text: str) -> int:
    """argparse type of ``--n`` and ``--n-max``: 2 to ``files.MAX_ORDER``."""
    value = _int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    if value > files.MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be at most {files.MAX_ORDER}, got {value}"
        )
    return value


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        return files.decode(fh.read())


def _output(text_out: str, out: str | None) -> list[str]:
    """The report lines of a command that writes ``text_out``: the text
    itself, or, with ``--out``, one line naming the file written."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text_out)
        return [f"wrote {out}"]
    return text_out.rstrip("\n").split("\n")


def _certify(
    d: CliqueDecomposition, labeling: str, budget: int
) -> tuple[ColoredDecomposition, tuple | None] | None:
    """Certify ``d`` and color it by its certificate, or None if it has none.

    With ``labeling="given"`` the vertex labels are the Z_n labels. With
    ``"search"`` a labeling is searched for first and the decomposition is
    relabeled through it; its (vertex, label) pairs come back with the
    coloring. BudgetExceededError propagates.
    """
    if labeling == "given":
        cert = find_certificate(d)
        return None if cert is None else (color_decomposition(d, cert), None)
    abstract = [elem.vertices for elem in d.elements]
    found = search_labeling(d.n, abstract, budget=budget)
    if found is None:
        return None
    chosen, relabeled, cert = found
    return color_decomposition(relabeled, cert), chosen.assignment


def _cmd_validate(args):
    text = _read(args.path)
    try:
        if args.hypergraph:
            h = files.parse_hypergraph(text)
            kind, sizes = "hypergraph", {"edges": h.n, "vertices": len(h.vertices())}
        else:
            d = files.parse_instance(text)
            kind, sizes = "decomposition", {"n": d.n, "elements": len(d.elements)}
    except ValidationError as exc:
        violations = [str(v) for v in exc.violations]
        report = {"command": "validate", "ok": False, "violations": violations}
        return report, ["invalid"] + violations, 1
    report = {"command": "validate", "ok": True, "kind": kind, **sizes, "violations": []}
    words = ["valid"] + (["hypergraph"] if args.hypergraph else [])
    words.extend(f"{key} {value}" for key, value in sizes.items())
    return report, [" ".join(words)], 0


def _cmd_color(args):
    d = files.parse_instance(_read(args.path))
    certified = _certify(d, args.labeling, args.budget)
    if certified is None:
        report = {"command": "color", "ok": False, "reason": "no certificate"}
        return report, ["no certificate"], 3
    colored, labeling_pairs = certified
    cert = colored.certificate
    comments = []
    if labeling_pairs is not None:
        comments.append(
            "labeling "
            + " ".join(f"{v}->{x}" for v, x in labeling_pairs)
        )
    explain = (
        [explain_element(i, entry) for i, entry in enumerate(cert.entries)]
        if args.explain
        else []
    )
    out_text = files.serialize_coloring(
        colored.coloring, colored.colors_used, tuple(comments + explain)
    )
    report = {
        "command": "color",
        "ok": True,
        "colors_used": colored.colors_used,
        "coloring": list(colored.coloring),
        "centrals": [list(pair) for pair in cert.centrals],
        "certificate": [
            {
                "index": i,
                "kind": entry.kind,
                "step": entry.step,
                "central": entry.central,
            }
            for i, entry in enumerate(cert.entries)
        ],
        "labeling": (
            None
            if labeling_pairs is None
            else {str(v): x for v, x in labeling_pairs}
        ),
        "explain": explain,
    }
    return report, _output(out_text, args.out), 0


def _cmd_verify(args):
    d = files.parse_instance(_read(args.instance))
    doc = files.parse_coloring(_read(args.coloring))
    if sorted(doc.assignment) != list(range(len(d.elements))):
        raise UsageError("coloring does not match the instance's element indices")
    coloring = [doc.assignment[i] for i in range(len(d.elements))]
    verdict = check_proper(d, coloring)
    report = {
        "command": "verify",
        "ok": verdict.ok,
        "colors_used": verdict.colors_used,
        "conflicts": [list(c) for c in verdict.conflicts],
    }
    if verdict.ok:
        return report, [f"proper colors-used {verdict.colors_used}"], 0
    lines = [f"improper conflicts {len(verdict.conflicts)}"]
    lines.extend(f"conflict {i} {j} at vertex {v}" for i, j, v in verdict.conflicts)
    return report, lines, 1


def _cmd_chi(args):
    d = files.parse_instance(_read(args.path))
    certified = _certify(d, "given", args.budget)
    if certified is None:
        theorem_colors = hint = None
    else:
        theorem_colors, hint = certified[0].colors_used, certified[0].coloring
    result = exact_chromatic_index(d, budget=args.budget, upper_hint=hint)
    comments = [
        f"chi {result.chi}",
        f"n {d.n}",
        f"within-n {str(result.chi <= d.n).lower()}",
    ]
    if theorem_colors is not None:
        comments.append(f"certificate-colors {theorem_colors}")
    out_text = files.serialize_coloring(result.witness, result.chi, tuple(comments))
    report = {
        "command": "chi",
        "chi": result.chi,
        "n": d.n,
        "within_n": result.chi <= d.n,
        "certificate_colors": theorem_colors,
        "witness": list(result.witness),
        "nodes_explored": result.nodes_explored,
    }
    return report, _output(out_text, args.out), 0


def _cmd_convert(args):
    if args.to == "hypergraph":
        d = files.parse_instance(_read(args.path))
        try:
            h, corr = decomposition_to_quasicluster(d)
        except VertexInOneElementError as exc:
            report = {"command": "convert", "ok": False, "reason": str(exc)}
            return report, [f"cannot convert: {exc}"], 3
        pairs = " ".join(
            f"{i}->{corr.element_to_vertex[i]}" for i in range(len(d.elements))
        )
        out_text = files.serialize_hypergraph(
            h, comments=(f"element->vertex {pairs}",)
        )
    else:
        h = files.parse_hypergraph(_read(args.path))
        d, corr = quasicluster_to_decomposition(h)
        pairs = " ".join(
            f"{corr.element_to_vertex[i]}->{i}" for i in range(len(d.elements))
        )
        out_text = files.serialize_instance(d, comments=(f"vertex->element {pairs}",))
    report = {"command": "convert", "ok": True, "to": args.to, "text": out_text}
    return report, _output(out_text, args.out), 0


def _sweep_instances(args):
    if args.mode == "exhaustive":
        if args.count is not None or args.seed is not None:
            raise UsageError("--count and --seed apply only to --mode random")
        if args.n_max > SWEEP_EXHAUSTIVE_LIMIT:
            raise UsageError(f"exhaustive sweeps stop at n={SWEEP_EXHAUSTIVE_LIMIT}")
        for n in range(2, args.n_max + 1):
            for idx, d in enumerate(enumerate_decompositions(n)):
                yield n, idx, d
    else:
        count = 20 if args.count is None else args.count
        seed = 0 if args.seed is None else args.seed
        for n in range(2, args.n_max + 1):
            for idx in range(count):
                yield n, idx, random_decomposition(n, seed + idx)


def _cmd_sweep(args):
    rows = []
    for n, idx, d in _sweep_instances(args):
        try:
            chi = exact_chromatic_index(d).chi
        except BudgetExceededError:
            chi = None
        try:
            certified = _certify(d, "given", args.budget) or _certify(
                d, "search", args.budget
            )
        except BudgetExceededError:
            certified, arith = None, "unknown"
        else:
            arith = "no" if certified is None else "yes"
        rows.append(
            {
                "n": n,
                "index": idx,
                "elements": len(d.elements),
                "chi": chi,
                "arithmetic": arith,
                "certificate_colors": (
                    None if certified is None else certified[0].colors_used
                ),
            }
        )
    total = len(rows)
    timeouts = sum(row["chi"] is None for row in rows)
    violated = sum(row["chi"] is not None and row["chi"] > row["n"] for row in rows)
    overall = _arithmetic_counts(rows)
    per_n = [
        {"n": n, **_arithmetic_counts(list(group))}
        for n, group in groupby(rows, key=itemgetter("n"))
    ]
    lines = [f"sweep mode {args.mode} n-max {args.n_max}"]
    for row in rows:
        chi, colors = row["chi"], row["certificate_colors"]
        lines.append(
            f"instance n={row['n']} idx={row['index']} elements={row['elements']}"
            f" chi={'timeout' if chi is None else chi} arithmetic={row['arithmetic']}"
            f" certificate-colors={'-' if colors is None else colors}"
        )
    for counts in per_n:
        yes, decided = counts["arithmetic_fraction"]
        lines.append(
            f"n {counts['n']} instances {counts['instances']}"
            f" arithmetic {yes}/{decided} unknown {counts['unknown']}"
        )
    yes, decided = overall["arithmetic_fraction"]
    lines.append(
        f"summary instances {total} chi-le-n {total - violated - timeouts}/{total}"
        f" arithmetic {yes}/{decided} timeouts {timeouts} unknown {overall['unknown']}"
    )
    report = {
        "command": "sweep",
        "mode": args.mode,
        "n_max": args.n_max,
        "instances": rows,
        "bound_holds": violated == 0,
        "timeouts": timeouts,
        "arithmetic_fraction": overall["arithmetic_fraction"],
        "unknown": overall["unknown"],
        "per_n": per_n,
    }
    return report, lines, 0 if violated == 0 else 1


def _arithmetic_counts(rows) -> dict:
    """How many of the sweep rows are arithmetic, out of those decided: the
    rows whose labeling search ran out of budget count only as unknown."""
    verdicts = Counter(row["arithmetic"] for row in rows)
    return {
        "instances": len(rows),
        "arithmetic_fraction": [verdicts["yes"], verdicts["yes"] + verdicts["no"]],
        "unknown": verdicts["unknown"],
    }


def _cmd_generate(args):
    try:
        d = fixture(args.name, n=args.n, seed=args.seed)
    except UnknownFixtureError:
        raise UsageError(f"unknown fixture {args.name!r}")
    except ValueError as exc:
        raise UsageError(str(exc))
    out_text = files.serialize_instance(d)
    report = {
        "command": "generate",
        "ok": True,
        "name": args.name,
        "n": d.n,
        "elements": len(d.elements),
        "text": out_text,
    }
    return report, _output(out_text, args.out), 0


_PARSER = _build_parser()  # built once, reused by every call of main

if __name__ == "__main__":
    sys.exit(main())
