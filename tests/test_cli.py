"""Exit codes, output formats and determinism of the command-line tool."""

import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eflcolor import (
    ArithmeticCertificate,
    check_proper,
    cli,
    decomposition_to_quasicluster,
    files,
    find_certificate,
    random_decomposition,
    trivial_edges,
)

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
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr, proc.stdout)
    return proc


@pytest.fixture()
def k9(tmp_path):
    path = tmp_path / "k9.txt"
    run_cli("generate", "paper_k9", "--out", str(path))
    return path


class TestGenerate:
    def test_paper_k9_file(self, k9):
        text = k9.read_text()
        assert text.startswith("n 9\nelement 0 3 6\n")
        assert text.count("element") == 22

    def test_trivial_edges_count(self, tmp_path):
        out = tmp_path / "e7.txt"
        run_cli("generate", "trivial_edges", "--n", "7", "--out", str(out))
        assert out.read_text().count("element") == 21

    def test_random_deterministic(self):
        a = run_cli("generate", "random", "--n", "8", "--seed", "1")
        b = run_cli("generate", "random", "--n", "8", "--seed", "1")
        assert a.stdout == b.stdout

    def test_unknown_fixture_exit_2(self):
        run_cli("generate", "nope", expect=2)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("nope",), "unknown fixture 'nope'"),
            (("random", "--n", "5"), "random needs seed"),
            (("paper_k9", "--n", "3"), "paper_k9 takes no n"),
            (("fano_k7", "--seed", "1"), "fano_k7 takes no seed"),
            (("trivial_edges", "--n", "5", "--seed", "1"), "trivial_edges takes no seed"),
        ],
    )
    def test_failure_reported_by_main_without_json(self, args, message, capsys):
        assert cli.main(["generate", *args, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestValidate:
    def test_valid_exit_0(self, k9):
        proc = run_cli("validate", str(k9))
        assert "valid n 9 elements 22" in proc.stdout

    def test_duplicate_edge_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\nelement 0 1 2\nelement 0 1\n")
        proc = run_cli("validate", str(bad), expect=1)
        assert "EdgeMultiplyCovered 0 1" in proc.stdout

    def test_malformed_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n x\n")
        run_cli("validate", str(bad), expect=2)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("n 1_1\n", "line 1, column 3"),
            ("n 3\nelement 0 \u0662\n", "line 2, column 11"),
        ],
        ids=["underscore", "arabic-indic-digit"],
    )
    def test_int_quirk_exit_2(self, tmp_path, text, where):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        proc = run_cli("validate", str(bad), expect=2)
        assert where in proc.stderr and "is not an integer" in proc.stderr

    def test_missing_file_exit_2(self):
        run_cli("validate", "/nonexistent/file.txt", expect=2)

    def test_hypergraph_mode(self, tmp_path, k9):
        h = tmp_path / "h.txt"
        run_cli("convert", str(k9), "--to", "hypergraph", "--out", str(h))
        proc = run_cli("validate", str(h), "--hypergraph")
        assert "valid hypergraph edges 9" in proc.stdout

    def test_hypergraph_without_edges_exit_2(self, tmp_path):
        h = tmp_path / "empty.txt"
        h.write_text("edges 0\n")
        proc = run_cli("validate", str(h), "--hypergraph", expect=2)
        assert "line 1, column 7: edge count must be at least 2, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestColor:
    def test_paper_k9_colors(self, k9, tmp_path):
        out = tmp_path / "col.txt"
        run_cli("color", str(k9), "--labeling", "given", "--out", str(out))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "colors-used 9"
        assert lines[1:8] == [
            "color 0 6",
            "color 1 8",
            "color 2 7",
            "color 3 4",
            "color 4 3",
            "color 5 2",
            "color 6 1",
        ]

    def test_output_verifies(self, k9, tmp_path):
        out = tmp_path / "col.txt"
        run_cli("color", str(k9), "--out", str(out))
        proc = run_cli("verify", str(k9), str(out))
        assert "proper" in proc.stdout

    def test_explain_appends_cases(self, k9):
        proc = run_cli("color", str(k9), "--explain")
        assert "case (i.b)" in proc.stdout
        assert "case (ii)" in proc.stdout or "case (i.a)" in proc.stdout

    def test_invalid_instance_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\nelement 0 1 2\nelement 0 1\n")
        proc = run_cli("color", str(bad), expect=1)
        assert "EdgeMultiplyCovered" in proc.stderr

    @pytest.mark.parametrize("order", ["0", "1", "-3"])
    def test_order_below_two_exit_2(self, tmp_path, order):
        bad = tmp_path / "small.txt"
        bad.write_text(f"n {order}\nauto-edges\n")
        proc = run_cli("color", str(bad), expect=2)
        assert f"order must be at least 2, got {order}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_file_exit_2(self, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"n 3\nelement 0 1 \xff\n")
        proc = run_cli("color", str(bad), expect=2)
        assert "line 2, column 13: byte 0xff is not valid UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_byte_line_counts_only_cr_and_lf(self, tmp_path):
        # U+2028 is a line break to str.splitlines, not to the parsers
        bad = tmp_path / "bad.txt"
        bad.write_bytes("n 3\n# \u2028\nelement 0 1 ".encode() + b"\xff\n")
        proc = run_cli("validate", str(bad), expect=2)
        assert "line 3, column 13: byte 0xff is not valid UTF-8" in proc.stderr

    def test_non_arithmetic_exit_3(self, tmp_path):
        inst = tmp_path / "sts9.txt"
        run_cli("generate", "sts9_k9", "--out", str(inst))
        run_cli("color", str(inst), "--labeling", "given", expect=3)
        run_cli("color", str(inst), "--labeling", "search", expect=3)

    def test_search_mode_finds_scrambled(self, tmp_path):
        # a consecutive-block decomposition relabeled away from Z_n order
        inst = tmp_path / "scrambled.txt"
        inst.write_text(
            "n 5\nelement 4 2 0\nelement 4 3\nelement 4 1\nelement 2 3\n"
            "element 2 1\nelement 3 0\nelement 1 0\nauto-edges\n"
        )
        proc = run_cli("color", str(inst), "--labeling", "search")
        assert "# labeling" in proc.stdout

    @pytest.mark.parametrize("labeling", ["given", "search"])
    def test_json_explain_has_one_derivation_per_entry(self, labeling, k9, capsys):
        args = ["color", str(k9), "--labeling", labeling, "--explain", "--json"]
        assert cli.main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["explain"]) == len(report["certificate"]) == 22
        for i, line in enumerate(report["explain"]):
            assert line.startswith(f"element {i} ")

    def test_json_report(self, k9):
        proc = run_cli("color", str(k9), "--json")
        report = json.loads(proc.stdout)
        assert report["colors_used"] == 9
        assert report["centrals"] == [[0, 3], [1, 4], [2, 8], [3, 2], [4, 6], [5, 1], [6, 5]]


class TestVerify:
    def test_conflicts_listed(self, tmp_path):
        inst = tmp_path / "e3.txt"
        run_cli("generate", "trivial_edges", "--n", "3", "--out", str(inst))
        col = tmp_path / "zeros.txt"
        col.write_text("colors-used 1\ncolor 0 0\ncolor 1 0\ncolor 2 0\n")
        proc = run_cli("verify", str(inst), str(col), expect=1)
        assert proc.stdout.count("conflict ") == 3
        assert "conflict 0 1 at vertex 0" in proc.stdout

    def test_index_mismatch_exit_2(self, tmp_path):
        inst = tmp_path / "e3.txt"
        run_cli("generate", "trivial_edges", "--n", "3", "--out", str(inst))
        col = tmp_path / "short.txt"
        col.write_text("colors-used 1\ncolor 0 0\ncolor 1 0\n")
        run_cli("verify", str(inst), str(col), expect=2)

    def test_declared_colors_mismatch_exit_2(self, tmp_path):
        inst = tmp_path / "e3.txt"
        run_cli("generate", "trivial_edges", "--n", "3", "--out", str(inst))
        col = tmp_path / "undercount.txt"
        col.write_text("colors-used 1\ncolor 0 0\ncolor 1 1\ncolor 2 2\n")
        proc = run_cli("verify", str(inst), str(col), expect=2)
        assert "declares colors-used 1 but uses 3 colors" in proc.stderr
        assert proc.stdout == ""

    @pytest.fixture()
    def e3(self, tmp_path):
        path = tmp_path / "e3.txt"
        path.write_text(files.serialize_instance(trivial_edges(3)))
        return str(path)

    def test_declared_colors_mismatch_points_at_the_header(self, e3, tmp_path, capsys):
        col = tmp_path / "late-header.txt"
        col.write_text("# a\n# b\ncolor 0 0\ncolors-used 1\ncolor 1 1\ncolor 2 2\n")
        assert cli.main(["verify", e3, str(col)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: line 4, column 13: coloring declares colors-used 1 but uses 3 colors\n"
        )
        assert captured.out == ""

    def test_missing_header_has_no_position(self, e3, tmp_path, capsys):
        col = tmp_path / "headless.txt"
        col.write_text("# c\ncolor 0 0\n")
        assert cli.main(["verify", e3, str(col)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: missing 'colors-used <int>' header\n"
        assert captured.out == ""

    def test_index_mismatch_has_no_position(self, e3, tmp_path, capsys):
        col = tmp_path / "short.txt"
        col.write_text("colors-used 1\ncolor 0 0\ncolor 1 0\n")
        assert cli.main(["verify", e3, str(col)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: coloring does not match the instance's element indices\n"
        assert captured.out == ""


class TestBudget:
    @pytest.fixture()
    def e3(self, tmp_path):
        path = tmp_path / "e3.txt"
        run_cli("generate", "trivial_edges", "--n", "3", "--out", str(path))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ("color", "{e3}", "--labeling", "search", "--budget", "-1"),
            ("chi", "{e3}", "--budget", "-5"),
            ("sweep", "--n-max", "3", "--budget", "-1"),
        ],
    )
    def test_negative_budget_is_usage_error(self, args, e3):
        proc = run_cli(*(a.format(e3=e3) for a in args), expect=2)
        assert "usage:" in proc.stderr
        assert "--budget: must not be negative" in proc.stderr
        assert proc.stdout == ""

    def test_zero_budget_accepted(self, e3):
        proc = run_cli("chi", e3, "--budget", "0")
        assert "# chi 3" in proc.stdout
        run_cli("color", e3, "--labeling", "search", "--budget", "0", expect=4)

    def test_budget_out_json_report(self, e3):
        args = ("color", e3, "--labeling", "search", "--budget", "0")
        assert run_cli(*args, expect=4).stdout == ""
        proc = run_cli(*args, "--json", expect=4)
        assert proc.stderr == "error: search budget of 0 nodes exceeded\n"
        assert json.loads(proc.stdout) == {
            "command": "color",
            "ok": False,
            "reason": "budget",
            "budget": 0,
            "interval": None,
        }

    def test_non_integer_budget_message_unchanged(self, e3):
        proc = run_cli("chi", e3, "--budget", "x", expect=2)
        assert "argument --budget: invalid int value: 'x'" in proc.stderr


class TestSizeCaps:
    """Orders above files.MAX_ORDER and negative counts are usage errors."""

    def test_instance_order_above_cap_exit_2(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("n 501\nelement 0 1\n")
        proc = run_cli("color", str(big), expect=2)
        assert "line 1, column 3: order must be at most 500, got 501" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_hypergraph_edges_above_cap_exit_2(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("edges 501\n")
        proc = run_cli("validate", str(big), "--hypergraph", expect=2)
        assert "line 1, column 7: edge count must be at most 500, got 501" in proc.stderr

    @pytest.mark.parametrize(
        "args, option",
        [
            (("generate", "trivial_edges", "--n", "501"), "--n"),
            (("sweep", "--n-max", "501", "--mode", "random", "--count", "0"), "--n-max"),
        ],
    )
    def test_order_option_above_cap_is_usage_error(self, args, option):
        proc = run_cli(*args, expect=2)
        assert "usage:" in proc.stderr
        assert f"argument {option}: must be at most 500, got 501" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args, option, value",
        [
            (("generate", "trivial_edges", "--n", "1"), "--n", 1),
            (("sweep", "--n-max", "1"), "--n-max", 1),
            (("sweep", "--n-max", "-3", "--mode", "random"), "--n-max", -3),
        ],
    )
    def test_order_option_below_2_is_usage_error(self, args, option, value):
        proc = run_cli(*args, expect=2)
        assert "usage:" in proc.stderr
        assert f"argument {option}: must be at least 2, got {value}" in proc.stderr
        assert proc.stdout == ""

    def test_negative_count_is_usage_error(self):
        proc = run_cli("sweep", "--n-max", "3", "--mode", "random", "--count", "-2", expect=2)
        assert "argument --count: must not be negative, got -2" in proc.stderr
        assert proc.stdout == ""


class TestInProcess:
    """``cli.main`` called repeatedly in one interpreter."""

    def test_each_call_gets_its_own_defaults(self, k9, capsys):
        assert cli.main(["color", str(k9), "--labeling", "search", "--budget", "0"]) == 4
        assert "search budget of 0 nodes exceeded" in capsys.readouterr().err
        assert cli.main(["color", str(k9)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("colors-used 9\ncolor 0 6\n")
        assert "labeling" not in out

    def test_chi_deeper_than_recursion_limit_exit_4(self, tmp_path, capsys):
        # 84 elements and no certificate under the given labels, so no hint
        inst = tmp_path / "r24.txt"
        inst.write_text(files.serialize_instance(random_decomposition(24, 800875)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            code = cli.main(["chi", str(inst), "--budget", "2000"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 4
        assert (
            capsys.readouterr().err
            == "error: search budget of 2000 nodes exceeded; 11 <= chi <= 13\n"
        )

    def test_chi_budget_out_json_report_has_interval(self, tmp_path, capsys):
        inst = tmp_path / "r24.txt"
        inst.write_text(files.serialize_instance(random_decomposition(24, 800875)))
        assert cli.main(["chi", str(inst), "--budget", "2000", "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.err.endswith("; 11 <= chi <= 13\n")
        assert json.loads(captured.out) == {
            "command": "chi",
            "ok": False,
            "reason": "budget",
            "budget": 2000,
            "interval": [11, 13],
        }

    def test_violated_bound_exit_1(self, tmp_path, capsys, monkeypatch):
        d = trivial_edges(3)
        inst = tmp_path / "e3.txt"
        inst.write_text(files.serialize_instance(d))
        # one entry for all three edges gives them one color
        corrupted = ArithmeticCertificate((find_certificate(d).entries[0],) * 3)
        monkeypatch.setattr(cli, "find_certificate", lambda _: corrupted)
        assert cli.main(["color", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: certified coloring is improper: 3 conflicting pairs\n"
        assert captured.out == ""


class TestChi:
    def test_trivial_edges_4(self, tmp_path):
        inst = tmp_path / "e4.txt"
        run_cli("generate", "trivial_edges", "--n", "4", "--out", str(inst))
        proc = run_cli("chi", str(inst))
        assert "# chi 3" in proc.stdout

    def test_single_element(self, tmp_path):
        inst = tmp_path / "one.txt"
        inst.write_text("n 4\nelement 0 1 2 3\n")
        proc = run_cli("chi", str(inst))
        assert "# chi 1" in proc.stdout

    def test_paper_k9_within_n(self, k9):
        proc = run_cli("chi", str(k9), "--json")
        report = json.loads(proc.stdout)
        assert report["chi"] <= 9
        assert report["within_n"] is True
        assert report["certificate_colors"] == 9

    @pytest.mark.parametrize("n", [13, 15, 17, 19, 21])
    def test_odd_trivial_edges_decided_by_certificate(self, n, tmp_path, capsys):
        # the lower bound is n and the certificate colors with n colors, so
        # chi is decided without search
        d = trivial_edges(n)
        inst = tmp_path / f"e{n}.txt"
        inst.write_text(files.serialize_instance(d))
        assert cli.main(["chi", str(inst), "--budget", "2000", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chi"] == n
        assert report["nodes_explored"] == 0
        assert check_proper(d, report["witness"]).ok
        assert sorted(set(report["witness"])) == list(range(n))


class TestConvert:
    def test_round_trip_modulo_comments(self, k9, tmp_path):
        h = tmp_path / "h.txt"
        back = tmp_path / "back.txt"
        run_cli("convert", str(k9), "--to", "hypergraph", "--out", str(h))
        run_cli("convert", str(h), "--to", "decomposition", "--out", str(back))
        strip = lambda p: [
            l for l in Path(p).read_text().splitlines() if not l.startswith("#")
        ]
        assert strip(back) == strip(k9)

    def test_single_element_exit_3(self, tmp_path):
        inst = tmp_path / "one.txt"
        inst.write_text("n 4\nelement 0 1 2 3\n")
        run_cli("convert", str(inst), "--to", "hypergraph", expect=3)

    def test_hypergraph_without_edges_exit_2(self, tmp_path):
        h = tmp_path / "empty.txt"
        h.write_text("edges 0\n")
        proc = run_cli("convert", str(h), "--to", "decomposition", expect=2)
        assert "edge count must be at least 2, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_superscript_vertex_name_exit_0(self, tmp_path):
        # '²' passes str.isdigit() but is no integer: it sorts as a name
        h = tmp_path / "h.txt"
        h.write_text("edges 3\nedge A : ² b\nedge B : b c\nedge C : ² c\n")
        proc = run_cli("convert", str(h), "--to", "decomposition")
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("# vertex->element b->0 c->1 ²->2\nn 3\n")


class TestIntegerOptions:
    """Integer options take ASCII digits with an optional leading '-', as
    the file formats do; ``int()``'s other spellings are usage errors."""

    @pytest.mark.parametrize(
        "args, option, value",
        [
            (("generate", "trivial_edges", "--n", "٥"), "--n", "٥"),
            (("generate", "trivial_edges", "--n", "1_0"), "--n", "1_0"),
            (("generate", "trivial_edges", "--n", "+5"), "--n", "+5"),
            (("generate", "random", "--n", "5", "--seed", "١"), "--seed", "١"),
            (("sweep", "--n-max", "4", "--mode", "random", "--seed", "١"), "--seed", "١"),
        ],
    )
    def test_other_int_spellings_are_usage_errors(self, args, option, value):
        proc = run_cli(*args, expect=2)
        assert f"argument {option}: invalid int value: {value!r}" in proc.stderr
        assert proc.stdout == ""


class TestSweep:
    def test_exhaustive_n3(self):
        proc = run_cli("sweep", "--n-max", "3", "--mode", "exhaustive")
        assert "summary instances 3 chi-le-n 3/3" in proc.stdout

    def test_exhaustive_n4_bound_holds(self):
        proc = run_cli("sweep", "--n-max", "4", "--mode", "exhaustive", "--json")
        report = json.loads(proc.stdout)
        assert report["bound_holds"] is True
        assert len(report["instances"]) == 1 + 2 + 6

    def test_exhaustive_limit(self):
        run_cli("sweep", "--n-max", "6", "--mode", "exhaustive", expect=2)

    def test_exhaustive_limit_is_a_usage_error(self, capsys):
        assert cli.main(["sweep", "--n-max", "6", "--mode", "exhaustive"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: exhaustive sweeps stop at n=5\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [("--count", "99"), ("--seed", "7"), ("--count", "20")])
    def test_random_mode_flags_are_a_usage_error_when_exhaustive(self, flag, capsys):
        assert cli.main(["sweep", "--n-max", "4", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --count and --seed apply only to --mode random\n"
        assert captured.out == ""

    def test_random_mode_defaults(self):
        args = ("sweep", "--n-max", "5", "--mode", "random", "--json")
        given = ("--count", "20", "--seed", "0")
        assert run_cli(*args).stdout == run_cli(*args, *given).stdout

    def test_unknown_counts_budget_outs(self):
        args = ("sweep", "--n-max", "6", "--mode", "random", "--count", "5", "--budget", "0")
        report = json.loads(run_cli(*args, "--json").stdout)
        rows = [row for row in report["instances"] if row["arithmetic"] == "unknown"]
        assert report["unknown"] == len(rows) == 4
        summary = run_cli(*args).stdout.splitlines()[-1]
        assert summary.endswith(" timeouts 0 unknown 4")

    def test_fractions_leave_out_unknowns(self, capsys):
        args = ["sweep", "--n-max", "6", "--mode", "random", "--count", "5", "--budget", "0"]
        assert cli.main([*args, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["instances"]

        def fraction(rows):
            yes = sum(row["arithmetic"] == "yes" for row in rows)
            return [yes, yes + sum(row["arithmetic"] == "no" for row in rows)]

        assert report["arithmetic_fraction"] == fraction(rows) == [21, 21]
        assert report["per_n"] == [
            {
                "n": n,
                "instances": 5,
                "arithmetic_fraction": fraction([r for r in rows if r["n"] == n]),
                "unknown": sum(r["n"] == n and r["arithmetic"] == "unknown" for r in rows),
            }
            for n in range(2, 7)
        ]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "n 5 instances 5 arithmetic 4/4 unknown 1",
            "n 6 instances 5 arithmetic 2/2 unknown 3",
            "summary instances 25 chi-le-n 25/25 arithmetic 21/21 timeouts 0 unknown 4",
        ]

    def test_random_deterministic(self):
        args = ("sweep", "--n-max", "5", "--mode", "random", "--count", "4", "--seed", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestOutFile:
    """``--out f`` writes the bytes the command prints without it."""

    @pytest.mark.parametrize(
        "args",
        [
            ("color", "{k9}", "--explain"),
            ("color", "{k9}", "--labeling", "search"),
            ("chi", "{k9}"),
            ("convert", "{k9}", "--to", "hypergraph"),
            ("convert", "{h}", "--to", "decomposition"),
            ("generate", "random", "--n", "7", "--seed", "5"),
        ],
    )
    def test_out_file_holds_stdout(self, args, k9, tmp_path):
        h = tmp_path / "h.txt"
        run_cli("convert", str(k9), "--to", "hypergraph", "--out", str(h))
        argv = [a.format(k9=k9, h=h) for a in args]
        printed = run_cli(*argv).stdout
        out = tmp_path / "out.txt"
        proc = run_cli(*argv, "--out", str(out))
        assert proc.stdout == f"wrote {out}\n"
        assert out.read_bytes() == printed.encode("utf-8")


class TestClosedPipe:
    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # over 64 KiB of output, so the writer is still printing when the
        # reader closes the pipe
        inst = tmp_path / "e150.txt"
        inst.write_text(files.serialize_instance(trivial_edges(150)))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "eflcolor", "color", str(inst)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"colors-used 150\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err
        assert "Exception ignored" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("generate", "paper_k9"),
            ("generate", "random", "--n", "7", "--seed", "5"),
            ("sweep", "--n-max", "4", "--mode", "exhaustive"),
        ],
    )
    def test_byte_identical_runs(self, args):
        assert run_cli(*args).stdout == run_cli(*args).stdout


# Texts in the shape of one of the three formats: a header, then its
# directive lines with small and negative integers, now and then a line of
# junk. Most fail to parse; some instances parse and reach every exit code
# of color and chi. A valid hypergraph is rare among these, so a fourth
# source writes the dual quasicluster of a random decomposition, with the
# same junk line.
_INTS = st.integers(-3, 9).map(str)
_FEW = st.integers(-1, 5).map(str)
_NAMES = st.sampled_from(("a", "b", "c", "d", "e"))
_JUNK = st.lists(
    st.sampled_from(("x", ":", "#", "1.5", "0x1", "\u00e9", "\0", "\t", "\n", "n", "edge")),
    max_size=5,
)
_FORMATS = (
    (
        st.tuples(st.just("n"), _INTS),
        st.tuples(st.just("element"), st.lists(_FEW, min_size=1, max_size=4)),
        st.just(("auto-edges",)),
    ),
    (
        st.tuples(st.just("colors-used"), _FEW),
        st.tuples(st.just("color"), _FEW, _FEW),
    ),
    (
        st.tuples(st.just("edges"), _FEW),
        st.tuples(
            st.just("edge"),
            st.integers(0, 9).map(lambda i: f"E{i}"),
            st.just(":"),
            st.lists(_NAMES, min_size=1, max_size=3),
        ),
    ),
)


def _text(header, lines, junk, at) -> str:
    """The format's header, its lines, and one line of junk (maybe empty)
    inserted at index ``at`` (clipped to the end)."""
    lines = [header, *lines]
    lines.insert(at, junk)
    return "".join(
        " ".join(p if isinstance(p, str) else " ".join(p) for p in line) + "\n"
        for line in lines
    )


_FORMAT_TEXTS = st.one_of(
    st.tuples(
        header,
        st.lists(st.one_of(*lines), max_size=6),
        st.one_of(st.just(()), _JUNK),
        st.integers(0, 7),
    )
    for header, *lines in _FORMATS
).map(lambda args: _text(*args))


def _hypergraph_text(d, junk, at) -> str:
    """``d``'s dual quasicluster as ``convert --to hypergraph`` writes it,
    with one line of junk (maybe empty) inserted at index ``at``."""
    h, _ = decomposition_to_quasicluster(d)
    lines = files.serialize_hypergraph(h).splitlines()
    lines.insert(at, " ".join(junk))
    return "\n".join(lines) + "\n"


_HYPERGRAPH_TEXTS = st.tuples(
    st.builds(random_decomposition, st.integers(3, 8), st.integers(0, 10_000)).filter(
        lambda d: len(d.elements) > 1  # {K_n} has no dual
    ),
    st.one_of(st.just(()), _JUNK),
    st.integers(0, 7),
).map(lambda args: _hypergraph_text(*args))

_TEXTS = st.one_of(_FORMAT_TEXTS, _HYPERGRAPH_TEXTS)


class TestAnyTextExits:
    """Every text ends in a documented exit code, never in an exception."""

    @settings(max_examples=150, deadline=None)
    @given(first=_TEXTS, second=_TEXTS)
    def test_documented_exit_code(self, first, second, tmp_path_factory):
        where = tmp_path_factory.mktemp("fuzz")
        a, b = where / "a.txt", where / "b.txt"
        a.write_text(first, encoding="utf-8")
        b.write_text(second, encoding="utf-8")
        commands = [
            ["validate", str(a)],
            ["validate", str(a), "--hypergraph"],
            ["color", str(a)],
            ["color", str(a), "--labeling", "search", "--budget", "200"],
            ["verify", str(a), str(b)],
            ["chi", str(a), "--budget", "200"],
            ["convert", str(a), "--to", "hypergraph"],
            ["convert", str(a), "--to", "decomposition"],
        ]
        for argv in commands:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in range(5), argv
