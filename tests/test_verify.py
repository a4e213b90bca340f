"""Suite runner: verdicts, skips, determinism, parallelism."""

from __future__ import annotations

import json

import pytest

from ringlab import (RunConfig, cli, matrix_ring, ring_report, run_verify, subsets, verify,
                     zmod)
from ringlab.construct import RingCatalogEntry, build_from_provenance
from ringlab.verify import ALL_SUITE_IDS, _t41_verdict


@pytest.fixture(scope="module")
def verdicts(catalog):
    return run_verify(RunConfig(jobs=1), catalog)


def capped_lattice(cap):
    """``subsets.ideal_lattice`` with its order cap pinned to ``cap``."""
    lattice = subsets.ideal_lattice
    return lambda r, order_cap=cap: lattice(r, order_cap=min(order_cap, cap))


class TestRunVerify:
    def test_every_suite_passes(self, verdicts):
        assert [v.theorem for v in verdicts] == list(ALL_SUITE_IDS)
        for v in verdicts:
            assert v.overall, (v.theorem, [r.to_json_dict() for r in v.disagreements()])

    def test_equivalence_rows_cover_catalog(self, verdicts, catalog):
        by_id = {v.theorem: v for v in verdicts}
        n = len(catalog)
        for tid in ("T2.2", "T2.8", "T2.10", "T3.7", "collapse", "radical-triple"):
            v = by_id[tid]
            assert len(v.rows) + len(v.skipped) == n
            assert len(v.rows) == n  # nothing skipped at default caps

    def test_conditional_suites_skip_with_reasons(self, verdicts):
        by_id = {v.theorem: v for v in verdicts}
        assert by_id["C2.12"].skipped
        assert all("local" in reason for _, reason in by_id["C2.12"].skipped)
        assert by_id["radical-set"].skipped
        assert all("uniquely pi-clean" in reason for _, reason in by_id["radical-set"].skipped)

    def test_no_suite_reads_the_full_lattice(self, verdicts, monkeypatch):
        # the spectrum suites read only the ideals above J, so no suite needs
        # ideal_lattice, and no lattice cap could skip a ring
        def refuse(*args, **kwargs):
            raise AssertionError("a suite read the full ideal lattice")

        monkeypatch.setattr(subsets, "ideal_lattice", refuse)
        # a fresh catalog, so no ring holds a spectrum from an earlier test
        patched = run_verify()
        assert [v.to_json_dict() for v in patched] == [v.to_json_dict() for v in verdicts]

    def test_radical_set_ignores_the_lattice_cap(self, verdicts, monkeypatch):
        # radical-set compares the unit-shift set with J, neither of which
        # reads the ideal lattice, so a lattice cap skips none of its rings
        monkeypatch.setattr(subsets, "ideal_lattice", capped_lattice(4))
        (capped,) = run_verify(RunConfig(theorems=("radical-set",), jobs=1))
        assert capped.skipped
        assert all(reason == "not uniquely pi-clean" for _, reason in capped.skipped)
        by_id = {v.theorem: v for v in verdicts}
        assert capped.to_json_dict() == by_id["radical-set"].to_json_dict()

    def test_lattice_cap_skips_only_suites_that_read_the_lattice(self, verdicts, monkeypatch):
        # the spectrum suites read only the ideals above J, so at cap 16 the
        # 11 catalog rings of larger order lose no rows: each suite skips
        # only the rings whose hypothesis is unmet
        lattice_suites = ("T3.3", "C3.4", "T3.7", "T3.9", "C3.10-set", "T4.7-3", "C4.8",
                          "radical-triple")
        monkeypatch.setattr(subsets, "ideal_lattice", capped_lattice(16))
        out = run_verify(RunConfig(theorems=lattice_suites, jobs=1))
        by_id = {v.theorem: v for v in out}
        counts = {tid: (len(v.rows), len(v.skipped)) for tid, v in by_id.items()}
        assert counts == {"T3.3": (70, 0), "C3.4": (70, 0), "T3.7": (70, 0),
                          "T3.9": (70, 0), "C3.10-set": (64, 6), "T4.7-3": (70, 0),
                          "C4.8": (70, 0), "radical-triple": (70, 0)}
        for tid in ("T3.3", "C3.4"):
            rows = {r.provenance: r for r in by_id[tid].rows}
            for source in ("matrix:zmod3:2", "tri:zmod3:2"):
                assert (rows[source].lhs, rows[source].rhs) == (False, False), (tid, source)
        for v in out:
            for provenance, why in v.skipped:
                assert why.startswith("hypothesis unmet"), (v.theorem, provenance, why)
        full = {v.theorem: v.to_json_dict() for v in verdicts}
        assert {tid: v.to_json_dict() for tid, v in by_id.items()} == {
            tid: full[tid] for tid in lattice_suites}

    def test_suites_that_read_no_lattice_build_none(self, monkeypatch):
        calls = []
        build = subsets._block_product
        monkeypatch.setattr(subsets, "_block_product",
                            lambda r, floor: calls.append(r) or build(r, floor))
        # a fresh catalog, so no ring holds a lattice from an earlier test
        run_verify(RunConfig(theorems=("collapse", "L4.6"), jobs=1))
        assert calls == []

    def test_t33_carries_caveat(self, verdicts):
        by_id = {v.theorem: v for v in verdicts}
        assert "strongly pi-clean" in by_id["T3.3"].caveat

    def test_filter_selects_suites(self, catalog):
        out = run_verify(RunConfig(theorems=("T2.8", "T4.1"), jobs=1), catalog)
        assert [v.theorem for v in out] == ["T2.8", "T4.1"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(theorems=("T77",))

    @pytest.mark.parametrize("theorems", [("T2.8", "T2.8"), ("T4.1", "T2.8", "T4.1"), ()])
    def test_repeated_or_empty_selection_rejected(self, theorems):
        with pytest.raises(ValueError):
            RunConfig(theorems=theorems)

    def test_every_given_ring_is_checked(self):
        # no order cap filters the catalog: a ring of order 144 gets its row
        source = "product:zmod12,zmod12"
        catalog = [RingCatalogEntry(build_from_provenance(source), source)]
        (v,) = run_verify(RunConfig(theorems=("T2.8",), jobs=1), catalog)
        assert [(r.provenance, r.agree) for r in v.rows] == [(source, True)]
        assert v.skipped == []

    def test_parallel_matches_sequential(self, catalog):
        seq = run_verify(RunConfig(theorems=("T2.10", "L4.6"), jobs=1), catalog)
        par = run_verify(RunConfig(theorems=("T2.10", "L4.6"), jobs=2), catalog)
        assert [v.to_json_dict() for v in seq] == [v.to_json_dict() for v in par]

    def test_parallel_checks_the_given_rings(self):
        # provenance is only a tag: it may not parse, may name another ring,
        # and may repeat; both modes must check the ring objects themselves
        custom = [
            RingCatalogEntry(zmod(6), "my-z6"),
            RingCatalogEntry(zmod(4), "zmod:9"),
            RingCatalogEntry(matrix_ring(zmod(2), 2), "dup"),
            RingCatalogEntry(zmod(3), "dup"),
        ]
        suites = ("collapse", "C2.12", "L4.6")
        seq = run_verify(RunConfig(theorems=suites, jobs=1), custom)
        par = run_verify(RunConfig(theorems=suites, jobs=2), custom)
        assert [v.to_json_dict() for v in seq] == [v.to_json_dict() for v in par]
        collapse = seq[0]
        assert [(r.ring, r.provenance) for r in collapse.rows] == [
            ("Z/6", "my-z6"), ("Z/4", "zmod:9"), ("M2(Z/2)", "dup"), ("Z/3", "dup")]
        assert [r.lhs for r in collapse.rows] == [True, True, False, True]
        assert seq[1].skipped == [("my-z6", "not a local ring"), ("dup", "not a local ring")]

    def test_pool_is_no_larger_than_the_work(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
        custom = [RingCatalogEntry(zmod(2), "a"), RingCatalogEntry(zmod(3), "b")]
        run_verify(RunConfig(theorems=("collapse",), jobs=64), custom)
        assert sizes == [2]

    def test_default_runs_in_process(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("the default run started a process pool")

        with monkeypatch.context() as m:
            m.setattr(verify, "ProcessPoolExecutor", no_pool)
            assert RunConfig().jobs == 1
            verdicts = run_verify()
            assert cli.main(["verify", "--format", "json"]) == 0
        default = capsys.readouterr().out
        assert json.loads(default) == [v.to_json_dict() for v in verdicts]
        # the pool path still runs when asked for, and prints the same bytes
        assert cli.main(["verify", "--format", "json", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == default

    def test_json_stable_across_runs(self, catalog):
        a = run_verify(RunConfig(theorems=("T2.4", "radical-set"), jobs=1), catalog)
        b = run_verify(RunConfig(theorems=("T2.4", "radical-set"), jobs=1), catalog)
        assert json.dumps([v.to_json_dict() for v in a]) == \
            json.dumps([v.to_json_dict() for v in b])


class TestT41Harness:
    def test_base_row_is_true_biconditional(self):
        verdict = _t41_verdict()
        rows = {r.provenance: r for r in verdict.rows}
        base = rows["extension:t41-base"]
        assert base.lhs and base.rhs and base.agree

    def test_each_mutation_flips_both_sides(self):
        verdict = _t41_verdict()
        assert verdict.overall
        muts = [r for r in verdict.rows if r.provenance != "extension:t41-base"]
        assert len(muts) == 3
        for row in muts:
            assert not row.lhs and not row.rhs and row.agree
            assert row.witness.startswith("breaks: ")


class TestObservations:
    def test_powers_of_two_record(self, verdicts):
        by_id = {v.theorem: v for v in verdicts}
        obs = by_id["obs-2powers"]
        assert obs.overall
        data = {r.provenance: r.witness for r in obs.rows}
        # p = 3: 2^1 = 2 in Z/4 is uniquely clean (1 + 1)
        assert "2^1=2:unique" in data["zmod:4"]
        # p = 7: 2^1 = 2 in Z/8
        assert "zmod:8" in data


class TestRingReport:
    def test_report_fields(self):
        rep = ring_report(zmod(4))
        assert rep["order"] == 4
        assert rep["predicates"]["uniquely_clean"] is True
        assert rep["jacobson_radical"] == [0, 2]
        assert rep["radical_unit_set"] == [0, 2]
        assert rep["spectrum"]["ideal_count"] == 3
        assert rep["j_star"] == [0, 2]

    def test_verdict_json_shape(self, verdicts):
        doc = verdicts[0].to_json_dict()
        assert set(doc) >= {"theorem", "overall", "rows", "skipped"}
        assert all(set(r) == {"ring", "provenance", "lhs", "rhs", "agree", "witness"}
                   for r in doc["rows"])


class TestConfig:
    def test_effective_jobs(self):
        assert RunConfig(jobs=3).effective_jobs() == 3
        assert RunConfig(jobs=0).effective_jobs() >= 1
