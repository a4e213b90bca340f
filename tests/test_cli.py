"""CLI surface: ring sources, formats, exit codes, catalog round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringlab import gf, load_ring_file, parse_ring_source, product, zmod
from ringlab.cli import main
from ringlab.sources import UnknownRingSource


SRC = Path(__file__).resolve().parents[1] / "src"

# ``ringlab`` in a child process under a 2 GB address-space limit, so a
# source that allocated its tables before checking the order cap fails with a
# MemoryError instead of taking the host's memory.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from ringlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_limited_cli(*argv):
    env = {**{k: v for k, v in os.environ.items() if k != "RINGLAB_CAP"},
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", LIMITED_CLI, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120, env=env)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRingSources:
    def test_grammar(self):
        assert parse_ring_source("zmod:6").order == 6
        assert parse_ring_source("gf:4").order == 4
        assert parse_ring_source("matrix:zmod2:2").order == 16
        assert parse_ring_source("tri:zmod:2:2").order == 8
        assert parse_ring_source("eqdiag:zmod3:2").order == 9
        assert parse_ring_source("product:zmod2,zmod3").order == 6
        assert parse_ring_source("zn-alpha:3").order == 9
        assert parse_ring_source("paper:gf4-example").order == 64
        assert parse_ring_source("corner:zmod:6:3").order == 2
        assert parse_ring_source("jquot:zmod:4").order == 2
        assert parse_ring_source("extension:t41-base").order == 4

    def test_unknown_sources(self):
        for src in ("nope:3", "paper:other", "matrix:zmod2", "product:zmod2"):
            with pytest.raises((UnknownRingSource, ValueError)):
                parse_ring_source(src)

    @pytest.mark.parametrize("source, expected", [
        ("product:product:gf2,gf2,gf2", lambda: product(product(gf(2), gf(2)), gf(2))),
        ("product:gf2,product:gf2,gf2", lambda: product(gf(2), product(gf(2), gf(2)))),
        ("product:product:gf2,zmod3,product:zmod2,gf2",
         lambda: product(product(gf(2), zmod(3)), product(zmod(2), gf(2)))),
        ("product:tri:product:gf2,gf2:2,zmod2",
         lambda: product(parse_ring_source("tri:product:gf2,gf2:2"), zmod(2))),
    ])
    def test_nested_products_read_in_prefix_order(self, source, expected):
        ring, want = parse_ring_source(source), expected()
        assert ring.table_bytes() == want.table_bytes()
        assert ring.elem_names == want.elem_names

    @pytest.mark.parametrize("source", ["product:gf2,gf2,gf2", "product:gf2",
                                        "product:product:gf2,gf2"])
    def test_product_needs_two_factors(self, source):
        with pytest.raises(UnknownRingSource, match="exactly two factors"):
            parse_ring_source(source)


class TestAnalyze:
    def test_zmod3_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--ring", "zmod:3")
        assert code == 0
        assert "uniquely_clean: False" in out
        assert "uniquely_pi_clean: True" in out

    def test_gf4_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--ring", "paper:gf4-example",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["predicates"]["commutative"] is False
        assert doc["predicates"]["generalized_7_like"] is True
        assert doc["predicates"]["uniquely_pi_clean"] is True

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--ring", "zmod:4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "ring" and rows[1][0] == "Z/4"
        assert rows[1][rows[0].index("uniquely_clean")] == "true"

    def test_corrupted_file_exits_2(self, tmp_path, capsys):
        ring = zmod(6)
        doc = ring.to_json_dict()
        doc["mul"][2][3] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "--ring", f"file:{path}")
        assert code == 2
        assert "axiom" in err

    def test_valid_file_loads(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(zmod(9).to_json())
        code, out, _ = run_cli(capsys, "analyze", "--ring", f"file:{path}")
        assert code == 0 and "order 9" in out

    def test_cap_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--ring", "matrix:zmod8:2",
                               "--order-cap", "100")
        assert code == 3 and "cap" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGLAB_CAP", "5")
        code, _, err = run_cli(capsys, "analyze", "--ring", "zmod:16")
        assert code == 3

    @pytest.mark.parametrize("source, order", [("zmod:100000", 100_000),
                                               ("zn-alpha:400", 160_000)])
    def test_oversized_source_exits_3_before_allocating(self, source, order):
        proc = run_limited_cli("analyze", "--ring", source)
        assert proc.returncode == 3, proc.stderr
        assert f"ring order {order} exceeds cap 4096" in proc.stderr

    def test_corner_index_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--ring", "corner:zmod6:99")
        assert code == 2 and "out of range" in err

    def test_bad_env_cap_exits_2(self, capsys, monkeypatch):
        for value in ("abc", "0"):
            monkeypatch.setenv("RINGLAB_CAP", value)
            code, _, err = run_cli(capsys, "analyze", "--ring", "zmod:3")
            assert code == 2 and "RINGLAB_CAP" in err, value

    @pytest.mark.parametrize("change", [
        None, {"zero": "0"}, {"zero": 0.0}, {"add": 5},
        {"mul": [[0, 0, 0], [0, 1.9, 2.9], [0, 2, 1]]}, {"order": 7},
        {"order": 2, "add": [[False, True], [True, False]], "mul": [[0, 0], [0, 1]]},
        {"order": 2, "add": [["0", "1"], ["1", "0"]], "mul": [[0, 0], [0, 1]]},
        {"order": 2, "add": [[" 0", "1"], ["1", "0"]], "mul": [[0, 0], [0, 1]]},
        {"label": 5},
    ], ids=["top-level-array", "string-zero", "float-zero", "scalar-add", "float-entry",
            "wrong-order", "bool-entry", "str-entry", "padded-str-entry", "int-label"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, change):
        doc = [1, 2] if change is None else {**zmod(3).to_json_dict(), **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "--ring", f"file:{path}")
        assert code == 2 and "validation failed" in err

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "analyze", "--ring", f"file:{path}")
        assert code == 2 and "nests too deeply" in err

    def test_deeply_nested_source_exits_2(self, capsys):
        source = "corner:" * 700 + "zmod2" + ":0" * 700
        code, _, err = run_cli(capsys, "analyze", "--ring", source)
        assert code == 2 and "nests too deeply" in err

    @pytest.mark.parametrize("cap", ["0", "-6"])
    @pytest.mark.parametrize("command", [("analyze", "--ring", "zmod:6")], ids=["analyze"])
    def test_nonpositive_order_cap_exits_2(self, capsys, command, cap):
        code, _, err = run_cli(capsys, *command, "--order-cap", cap)
        assert code == 2 and "bad configuration" in err and "--order-cap" in err

    @pytest.mark.parametrize("source, zero", [
        ("product:product:gf2,gf2,gf2", "((0,0),0)"),
        ("product:gf2,product:gf2,gf2", "(0,(0,0))"),
    ])
    def test_nested_product_analyzes(self, capsys, source, zero):
        code, out, _ = run_cli(capsys, "analyze", "--ring", source)
        assert code == 0 and "(order 8)" in out
        assert "spectrum: 8 ideals, 3 prime, 3 maximal" in out
        assert f"jacobson radical: 0 ({zero})" in out

    @pytest.mark.parametrize("source", ["product:gf2,gf2,gf2", "product:gf2"])
    def test_product_without_two_factors_exits_2(self, capsys, source):
        code, out, err = run_cli(capsys, "analyze", "--ring", source)
        assert code == 2 and out == "" and "exactly two factors" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--ring", "file:/nonexistent/r.json")
        assert code == 2


class TestVerify:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorems", "T2.8,T2.10", "--jobs", "1")
        assert code == 0
        assert "[PASS] T2.8" in out and "[PASS] T2.10" in out

    def test_t41_harness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorems", "T4.1", "--jobs", "1")
        assert code == 0
        assert "[PASS] T4.1" in out

    def test_t33_prints_caveat(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorems", "T3.3", "--jobs", "1")
        assert code == 0
        assert "strongly pi-clean" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorems", "L4.6", "--jobs", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["theorem"] == "L4.6" and doc[0]["overall"] is True

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorems", "T9.9")
        assert code == 2 and "unknown suite ids" in err

    @pytest.mark.parametrize("selection", ["T2.8,T2.8", ",", ""])
    def test_repeated_or_empty_selection_exits_2(self, capsys, selection):
        code, out, err = run_cli(capsys, "verify", "--theorems", selection)
        assert code == 2 and "bad configuration" in err and out == ""

    def test_negative_jobs_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--theorems", "T2.8", "--jobs", "-3")
        assert code == 2 and "jobs" in err and out == ""

    def test_unknown_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "yaml"])
        assert exc.value.code == 2

    def test_order_cap_is_not_a_verify_option(self, capsys):
        # --order-cap and RINGLAB_CAP are analyze's build cap; verify checks
        # every catalog ring
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--order-cap", "16"])
        assert exc.value.code == 2

    def test_lattice_cap_is_not_a_verify_option(self, capsys):
        # no suite reads the full ideal lattice, so verify has no lattice cap
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lattice-cap", "16"])
        assert exc.value.code == 2

    def test_verify_ignores_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RINGLAB_CAP", "abc")
        code, out, _ = run_cli(capsys, "verify", "--theorems", "T2.8", "--jobs", "1")
        assert code == 0 and "[PASS] T2.8" in out

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        # a correct build never disagrees, so fake one verdict to check the
        # exit-code plumbing and the witness printout
        from ringlab.verify import SuiteRow, TheoremVerdict

        def fake_run(config):
            v = TheoremVerdict("T2.8")
            v.rows.append(SuiteRow("Z/3", "zmod:3", True, False, "element 2"))
            return [v]

        monkeypatch.setattr("ringlab.cli.run_verify", fake_run)
        code, out, _ = run_cli(capsys, "verify", "--theorems", "T2.8")
        assert code == 4
        assert "DISAGREE zmod:3" in out and "element 2" in out


class TestCatalog:
    def test_list_count(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        count = int(out.splitlines()[0].split()[0])
        assert count >= 40

    def test_filter_membership(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list", "--filter", "uniquely_pi_clean")
        assert code == 0
        listed = {line.split()[0] for line in out.splitlines()[1:]}
        assert {"zmod:3", "zn-alpha:3", "paper:gf4-example"} <= listed
        assert "matrix:zmod2:2" not in listed

    def test_unknown_filter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "list", "--filter", "no_such_predicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_csv_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["provenance", "order"]
        assert len(rows) >= 41

    def test_dump_round_trips_byte_identically(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "catalog", "dump", "--dir", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) >= 40
        for row in manifest[:15]:
            path = tmp_path / row["file"]
            ring = load_ring_file(path)
            assert ring.to_json() == path.read_text(encoding="utf-8")
            assert ring.order == row["order"]

    def test_dump_io_error_exits_5(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code, _, err = run_cli(capsys, "catalog", "dump", "--dir", str(blocker))
        assert code == 5


class TestOutputFile:
    def test_analyze_out(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--ring", "zmod:6",
                               "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["order"] == 6

    @pytest.mark.parametrize("argv", [
        ("analyze", "--ring", "zmod:3"),
        ("verify", "--theorems", "T2.8", "--jobs", "1"),
        ("catalog", "list"),
    ], ids=["analyze", "verify", "catalog-list"])
    def test_unwritable_out_exits_5(self, tmp_path, capsys, argv):
        target = tmp_path / "missing-dir" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 5 and "IO error" in err and out == ""
