"""Pinned bytes of the command-line tool.

Each command runs in-process through ``cli.main`` in a directory holding the
input files below, named relative to it, so no output depends on where the
tests run. A pin is the SHA-256 of the command's stdout, stderr and exit
code. argparse's own usage and help text are left out: their wording
differs between Python versions.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from eflcolor import (
    cli,
    decomposition_to_quasicluster,
    files,
    fixture,
    random_decomposition,
    trivial_edges,
)

PINS_PATH = Path(__file__).parent / "cli_bytes.json"

K9 = fixture("paper_k9")

INPUTS = {
    "k9.txt": files.serialize_instance(K9),
    "k9h.txt": files.serialize_hypergraph(decomposition_to_quasicluster(K9)[0]),
    "bad.txt": "n 3\nelement 0 1 2\nelement 0 1\n",
    # two edges that do not meet
    "badh.txt": "edges 2\nedge A : x y\nedge B : p q\n",
    "sts9.txt": files.serialize_instance(fixture("sts9_k9")),
    "one.txt": "n 4\nelement 0 1 2 3\n",
    "e3.txt": files.serialize_instance(trivial_edges(3)),
    "proper.txt": "colors-used 3\ncolor 0 0\ncolor 1 1\ncolor 2 2\n",
    "zeros.txt": "colors-used 1\ncolor 0 0\ncolor 1 0\ncolor 2 0\n",
    # chi runs out of a 2000-node budget with 11 <= chi <= 13
    "r24.txt": files.serialize_instance(random_decomposition(24, 800875)),
}

COMMANDS = {
    "validate": "validate k9.txt",
    "validate-json": "validate k9.txt --json",
    "validate-invalid": "validate bad.txt",
    "validate-invalid-json": "validate bad.txt --json",
    "validate-hypergraph": "validate k9h.txt --hypergraph",
    "validate-hypergraph-json": "validate k9h.txt --hypergraph --json",
    "validate-hypergraph-invalid": "validate badh.txt --hypergraph",
    "validate-hypergraph-invalid-json": "validate badh.txt --hypergraph --json",
    "validate-wrong-kind": "validate k9.txt --hypergraph",
    "validate-missing": "validate missing.txt",
    "color": "color k9.txt",
    "color-explain": "color k9.txt --explain",
    "color-json": "color k9.txt --json",
    "color-explain-json": "color k9.txt --explain --json",
    "color-out": "color k9.txt --out col.txt",
    "color-search": "color k9.txt --labeling search",
    "color-search-explain": "color k9.txt --labeling search --explain",
    "color-search-explain-json": "color k9.txt --labeling search --explain --json",
    "color-search-budget-out-json": "color k9.txt --labeling search --budget 0 --json",
    "color-no-certificate": "color sts9.txt",
    "verify-proper": "verify e3.txt proper.txt",
    "verify-improper": "verify e3.txt zeros.txt",
    "verify-improper-json": "verify e3.txt zeros.txt --json",
    "chi": "chi k9.txt",
    "chi-json": "chi k9.txt --json",
    "chi-budget-out": "chi r24.txt --budget 2000",
    "chi-budget-out-json": "chi r24.txt --budget 2000 --json",
    "convert-to-hypergraph": "convert k9.txt --to hypergraph",
    "convert-to-decomposition": "convert k9h.txt --to decomposition",
    "convert-impossible-json": "convert one.txt --to hypergraph --json",
    "sweep-exhaustive": "sweep --n-max 5",
    "sweep-exhaustive-json": "sweep --n-max 5 --json",
    "sweep-exhaustive-limit": "sweep --n-max 6",
    "sweep-random": "sweep --n-max 9 --mode random --count 3",
    "sweep-random-unknown": "sweep --n-max 6 --mode random --count 5 --budget 0",
    "sweep-random-unknown-json": "sweep --n-max 6 --mode random --count 5 --budget 0 --json",
    "generate": "generate paper_k9",
    "generate-random-json": "generate random --n 7 --seed 5 --json",
    "generate-unknown": "generate nope",
}


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def digest(command: str) -> str:
    """SHA-256 of what ``eflcolor <command>`` prints and returns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(command.split())
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


PINS = json.loads(PINS_PATH.read_text())


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_pinned(key, inputs):
    assert digest(COMMANDS[key]) == PINS[key]


def test_every_pin_is_checked():
    assert set(PINS) == set(COMMANDS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            pins = {key: digest(COMMANDS[key]) for key in sorted(COMMANDS)}
        finally:
            os.chdir(here)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
