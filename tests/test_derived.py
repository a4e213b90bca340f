"""Corners, quotients and the structured constructors skip the axiom scan.

A subset with zero, its own identity and closure under + and *, a quotient
by a two-sided ideal, and Z/n, Z/p[x]/(f), R x S and the matrix families are
rings by theorem (see the ``core`` module docstring), so the library does not
validate them.  These tests run the skipped scan on every derived ring the
catalog and the suites build and on the large constructor outputs (the
catalog's constructor outputs are revalidated in ``test_construct``), and
guard that the library itself does not run it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from ringlab import construct, core, subsets
from ringlab.core import FiniteRing, load_ring_json, validate_tables
from ringlab.sources import parse_ring_source
from ringlab.verify import RunConfig, ring_report, run_verify

# the ladder-analyze rungs; GF(2)^7 nested, byte-identical to chained products
LADDER = ["matrix:zmod2:3", "eqdiag:gf4:3", "paper:gf4-example",
          "product:product:product:product:product:product:gf2,gf2,gf2,gf2,gf2,gf2,gf2"]


def _validate(ring: FiniteRing) -> None:
    validate_tables(ring.add_table, ring.mul_table, ring.zero, ring.one, ring.order)


@pytest.fixture
def validations(monkeypatch) -> list[int]:
    """The order of each ring ``validate_tables`` checks while the test runs."""
    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(args[4])
        return validate_tables(*args, **kwargs)

    monkeypatch.setattr(core, "validate_tables", counting)
    return calls


def test_catalog_corners_and_radical_quotients_validate(catalog):
    derived = [e for e in catalog if e.provenance.startswith(("corner:", "jquot:"))]
    assert {e.provenance.split(":")[0] for e in derived} == {"corner", "jquot"}
    for entry in derived:
        _validate(entry.ring)


def test_every_ring_a_verify_run_derives_validates(monkeypatch):
    built: list[FiniteRing] = []
    for name in ("subring", "quotient_by"):
        def record(self, *args, _method=getattr(FiniteRing, name)):
            ring = _method(self, *args)
            built.append(ring)
            return ring
        monkeypatch.setattr(FiniteRing, name, record)

    run_verify(RunConfig(jobs=1))
    labels = [ring.label for ring in built]
    # the corner-quotient suite's corners "e<e>(R)e<e>" and R/J (the
    # catalog, T2.2, corner-quotient and T3.7's R/J*); T3.3 reads its torsion
    # quotients R/P from R's power matrix and builds none
    assert any(re.fullmatch(r"e(\d+)\(.*\)e\1", label) for label in labels)
    assert any(label.endswith("/J") for label in labels)
    for ring in built:
        _validate(ring)


def test_corners_and_quotients_skip_the_scan(validations):
    r = construct.build_from_provenance("paper:gf4-example")
    corners = [construct.corner(r, e) for e in subsets.idempotents(r).members]
    quotients = [subsets.quotient_ring(r, subsets.jacobson_radical(r))]
    quotients += [subsets.quotient_ring(r, p) for p in subsets.spectrum(r).prime]
    assert len(corners) > 1 and len(quotients) > 1
    assert validations == []


def test_only_extensions_validate_among_the_primary_sources(validations):
    extensions = [s for s in construct.CATALOG_SOURCES if s.startswith("extension:")]
    assert len(extensions) == 4
    for source in construct.CATALOG_SOURCES:
        del validations[:]
        construct.build_from_provenance(source)
        assert len(validations) == (source in extensions), source


@pytest.mark.parametrize("source", LADDER)
def test_ladder_rungs_skip_the_scan(validations, source):
    ring_report(parse_ring_source(source), lattice_order_cap=1024)
    assert validations == []


def test_tables_from_outside_are_validated(validations):
    r = construct.zmod(6)
    FiniteRing.from_tables("copy", r.add_table, r.mul_table, r.zero, r.one)
    load_ring_json(r.to_json())
    assert validations == [6, 6]


@pytest.mark.large
@pytest.mark.parametrize("source", [
    "matrix:gf4:2", "matrix:zmod2:3", "tri:zmod3:3", "tri:zmod2:4", "zmod:1024",
    "eqdiag:gf4:3", "zn-alpha:16", "product:zmod16,zn-alpha:4"])
def test_large_constructor_outputs_validate(source):
    ring = parse_ring_source(source)
    assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
    _validate(ring)
