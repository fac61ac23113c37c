"""Tests of the benchmark itself: its checks, its tracer and its verdicts.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eflcolor
import instances
import run
import workloads
from eflcolor.arithmetic import find_certificate
from eflcolor.model import validate_decomposition
from eflcolor.oracle import exhaustive_labeling_oracle
from tracer import LAYER_NAMES, Tracer

HERE = Path(__file__).resolve().parent

# Layers each workload must reach; every wrapped layer is reached by one.
REACHED = {
    "search": {
        "files.parse_instance",
        "files.serialize_coloring",
        "model.validate_decomposition",
        "model.intersection_graph",
        "model.check_proper",
        "arithmetic.search_labeling",
        "arithmetic.element_options",
        "arithmetic.find_certificate",
        "arithmetic.apply_labeling",
        "coloring.color_decomposition",
    },
    "certify": {
        "files.parse_instance",
        "files.serialize_instance",
        "files.parse_coloring",
        "files.serialize_coloring",
        "files.parse_hypergraph",
        "files.serialize_hypergraph",
        "model.validate_decomposition",
        "model.intersection_graph",
        "model.check_proper",
        "arithmetic.element_options",
        "arithmetic.find_certificate",
        "coloring.color_decomposition",
        "hypergraph.decomposition_to_quasicluster",
        "hypergraph.quasicluster_to_decomposition",
    },
    "chi": {
        "files.parse_instance",
        "files.serialize_coloring",
        "model.validate_decomposition",
        "model.intersection_graph",
        "arithmetic.element_options",
        "arithmetic.find_certificate",
        "oracle.exact_chromatic_index",
    },
}
NOT_REACHED = {
    "search": {"oracle.exact_chromatic_index"},
    "certify": {"arithmetic.search_labeling", "oracle.exact_chromatic_index"},
    "chi": {"arithmetic.search_labeling"},
}

# A quick slice of each workload's first cycle that still holds every
# outcome the layer checks need (chi: a budget-out, a search, zero nodes).
QUICK = {
    "search": lambda inst: inst["n"] == 8,
    "certify": lambda inst: inst["n"] <= 30,
    "chi": lambda inst: inst["name"]
    in {"paper_k9", "fano_k7", "trivial-12", "trivial-13", "pencil-12"}
    or inst["name"].startswith("random-10-"),
}


def _first_cycle(workload: str, seed: int, directory: Path) -> list[dict]:
    return instances.load(instances.write(workload, seed, directory))[0]


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(1000, 96.0) == (96.0, 959)
    assert run.tail_rank(250, 96.0) == (96.0, 239)
    assert run.tail_rank(249, 96.0) == (75.0, 186)
    assert run.tail_rank(100, 90.0) == (90.0, 89)
    assert run.tail_rank(99, 90.0) == (75.0, 74)
    assert run.tail_rank(20, 90.0) == (50.0, 9)
    assert run.tail_rank(19, 90.0) == (100.0, 18)


def test_search_none_verdicts_agree_with_exhaustive_oracle(tmp_path):
    cycle = [inst for inst in _first_cycle("search", 7, tmp_path) if inst["n"] <= 8]
    runner = workloads.Runner()
    for inst in cycle:
        workloads.run_search(runner, inst)
    assert not runner.failures
    nones = [inst for inst, label in zip(cycle, runner.labels) if label == "color:none"]
    assert nones, "the n = 8 slice should hold a 'no labeling' instance"
    for inst in nones:
        assert exhaustive_labeling_oracle(inst["n"], inst["elements"]) is None, inst["name"]


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_tracer_accounting(workload, tmp_path):
    cycle = [inst for inst in _first_cycle(workload, 3, tmp_path) if QUICK[workload](inst)]
    tracer = Tracer()
    runner = workloads.Runner(tracer)
    with tracer:
        patched = tracer.patched_attributes()
        for inst in cycle:
            workloads.RUN[workload](runner, inst)
    assert not runner.failures

    entered = {name for name, stats in tracer.stats.items() if stats.calls}
    assert REACHED[workload] <= entered
    assert not NOT_REACHED[workload] & entered

    self_total = sum(stats.self_s for stats in tracer.stats.values())
    assert all(stats.self_s >= -1e-9 for stats in tracer.stats.values())
    assert tracer.cli_self_s > 0
    assert tracer.ops == runner.attempted
    assert tracer.op_s == pytest.approx(runner.busy_s, rel=1e-9)
    assert self_total + tracer.cli_self_s == pytest.approx(tracer.op_s, rel=1e-9)

    # Every wrapped attribute holds the original object again.
    assert {f"{mod.__name__}.{attr}" for mod, attr, _ in patched} >= {
        "eflcolor.cli.search_labeling",
        "eflcolor.arithmetic.element_options",
        "eflcolor.coloring.check_proper",
    }
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original
    assert tracer.patched_attributes() == []


def test_every_layer_is_reached_by_some_workload():
    assert set().union(*REACHED.values()) == set(LAYER_NAMES)


def test_untraced_calls_pass_through(tmp_path):
    inst = _first_cycle("certify", 1, tmp_path)[0]
    text = Path(inst["path"]).read_text()
    with Tracer() as tracer:
        d = eflcolor.files.parse_instance(text)
    assert [list(elem.vertices) for elem in d.elements] == inst["elements"]
    assert all(stats.calls == 0 for stats in tracer.stats.values())


def test_color_check_rejects_a_wrong_coloring(tmp_path):
    inst = _first_cycle("certify", 1, tmp_path)[0]
    assert inst["name"] == "paper_k9"
    out = str(tmp_path / "k9.coloring.txt")
    results = []
    workloads.Runner().op(
        ["color", inst["path"], "--out", out, "--json"],
        lambda result: results.append(result) or "color:found",
    )
    report = json.loads(results[0].stdout)
    text = Path(out).read_text()
    assert workloads.check_coloring(inst, report, text, searched=False) == 9

    swapped = report["coloring"][:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    bad_text = "colors-used 9\n" + "".join(f"color {i} {c}\n" for i, c in enumerate(swapped))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_coloring(inst, dict(report, coloring=swapped), bad_text, searched=False)


def test_no_certificate_check_agrees_with_the_library(tmp_path):
    cycle = [inst for inst in _first_cycle("certify", 2, tmp_path) if inst["n"] <= 30]
    verdicts = []
    for inst in cycle:
        d = validate_decomposition(inst["n"], inst["elements"])
        expected = find_certificate(d) is None
        assert workloads.no_certificate_exists(inst["n"], inst["elements"]) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
