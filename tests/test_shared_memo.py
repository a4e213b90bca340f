"""One memo per distinct table, within one catalog.

``construct.default_catalog`` lets the rings it builds with equal canonical
tables share one memo (``FiniteRing.share_memo``), and every ring derived
from them later joins in.  These tests pin that a verify run builds each
table's costly values once, that a second run does the same work as the
first, that nothing is shared outside one catalog, and that labels and ring
references stay with the ring object that asks.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter, defaultdict

import pytest

from ringlab import cli, construct, predicates, subsets, verify
from ringlab.core import FiniteRing
from ringlab.errors import NotIdempotent

# the primary sources whose canonical tables repeat an earlier source's
TWIN_PAIRS = [("zmod:2", "gf:2"), ("zmod:3", "gf:3"), ("zmod:5", "gf:5"),
              ("zmod:7", "gf:7"), ("gf:4", "zn-alpha:2"),
              ("eqdiag:zmod2:2", "extension:t41-base")]

COUNTED = ("power_matrix", "uniquely_pi_clean", "spectrum")


@pytest.fixture
def builds(monkeypatch) -> list[tuple[str, bytes]]:
    """(key, table bytes) of every ``COUNTED`` value built while the test
    runs, outside ``verify._t41_verdict``, whose spec rings are built outside
    any catalog."""
    built: list[tuple[str, bytes]] = []
    in_t41: list[bool] = []
    memo, t41_verdict = FiniteRing.memo, verify._t41_verdict

    def counting(self, key, build):
        if in_t41 or key not in COUNTED:
            return memo(self, key, build)

        def counted():
            built.append((key, self.table_bytes()))
            return build()

        return memo(self, key, counted)

    def flagged():
        in_t41.append(True)
        try:
            return t41_verdict()
        finally:
            in_t41.pop()

    monkeypatch.setattr(FiniteRing, "memo", counting)
    monkeypatch.setattr(verify, "_t41_verdict", flagged)
    return built


def test_a_run_builds_each_value_once_per_table(builds):
    verify.run_verify()
    # without shared memos a run built the power matrix 437 times and ran
    # the uniquely-pi-clean scan 358 times, for 64 distinct tables
    assert {key for key, _ in builds} == set(COUNTED)
    assert max(Counter(builds).values()) == 1
    assert len({table for _, table in builds}) == 64


def test_a_second_run_does_the_same_work(builds):
    verify.run_verify()
    first = Counter(key for key, _ in builds)
    del builds[:]
    verify.run_verify()
    assert Counter(key for key, _ in builds) == first


def test_two_cli_runs_print_the_same_bytes():
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "--format", "json"]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


def test_primary_twins_share_a_memo(catalog):
    primary = catalog[:len(construct.CATALOG_SOURCES)]
    sharing = defaultdict(list)
    for entry in primary:
        sharing[id(entry.ring._memo)].append(entry.provenance)
    assert sorted(tuple(group) for group in sharing.values() if len(group) > 1) == \
        sorted(TWIN_PAIRS)


def test_twins_keep_their_labels(catalog):
    rings = {entry.provenance: entry.ring for entry in catalog}
    for first, second in TWIN_PAIRS:
        a, b = rings[first], rings[second]
        assert a.label != b.label
        assert predicates.predicate_vector(a).label == a.label
        assert predicates.predicate_vector(b).label == b.label
        assert predicates.predicate_vector(a).values == predicates.predicate_vector(b).values
    assert predicates.predicate_vector(rings["gf:2"]).label == "GF(2)"
    assert predicates.predicate_vector(rings["zmod:2"]).label == "Z/2"


def test_ideals_and_spectra_name_the_ring_that_asks(catalog_rings):
    for r in catalog_rings:
        sp = subsets.spectrum(r)
        assert sp.ring is r, r.label
        assert all(i.ring is r for i in (*sp.maximal, *sp.prime, *sp.j_spec,
                                         sp.j_star, sp.prime_radical)), r.label
        assert subsets.jacobson_radical(r).ring is r, r.label
        assert all(i.ring is r for i in subsets.ideal_lattice(r)), r.label
        assert subsets.units(r).ring is r, r.label


def test_derived_rings_join_their_catalog(catalog):
    first: dict[bytes, FiniteRing] = {}
    for entry in catalog:
        first.setdefault(entry.ring.table_bytes(), entry.ring)
    for entry in catalog:
        r = entry.ring
        derived = [subsets.radical_quotient(r)]
        derived += [construct.corner(r, e) for e in subsets.idempotents(r).members]
        for ring in derived:
            assert ring._memo is first[ring.table_bytes()]._memo, (r.label, ring.label)


def test_nothing_is_shared_outside_one_catalog():
    one, two = construct.default_catalog(), construct.default_catalog()
    assert not {id(e.ring._memo) for e in one} & {id(e.ring._memo) for e in two}
    z2, f2 = construct.zmod(2), construct.gf(2)
    assert z2.table_bytes() == f2.table_bytes() and z2._memo is not f2._memo
    assert construct.corner(z2, 0)._memo is not construct.corner(f2, 0)._memo


def test_corner_at_one_is_the_ring(catalog_rings):
    for r in catalog_rings:
        assert construct.corner(r, r.one) is r, r.label
        assert construct.corner(r, r.one, "any label") is r, r.label
        others = sorted(set(range(r.order)) - set(subsets.idempotents(r).members))
        if others:
            with pytest.raises(NotIdempotent):
                construct.corner(r, others[0])
