"""Corners and quotients are built without the axiom scan.

A subset with zero, its own identity and closure under + and *, and a
quotient by a two-sided ideal, are rings by theorem (see the ``core`` module
docstring), so the library does not validate them again.  These tests run
the skipped scan on every derived ring the catalog and the suites build, and
guard that the library itself does not run it.
"""

from __future__ import annotations

import re

from ringlab import construct, core, subsets
from ringlab.core import FiniteRing, validate_tables
from ringlab.verify import RunConfig, run_verify


def _validate(ring: FiniteRing) -> None:
    validate_tables(ring.add_table, ring.mul_table, ring.zero, ring.one, ring.order)


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
    # the corner-quotient suite's corners "e<e>(R)e<e>", R/J (the catalog,
    # T2.2 and corner-quotient) and the unlabelled R/P and R/J* of T3.3, T3.7
    assert any(re.fullmatch(r"e(\d+)\(.*\)e\1", label) for label in labels)
    assert any(label.endswith("/J") for label in labels)
    assert any(label.endswith(")") and "/(" in label for label in labels)
    for ring in built:
        _validate(ring)


def test_corners_and_quotients_skip_the_scan(monkeypatch):
    r = construct.build_from_provenance("paper:gf4-example")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[4])
        return validate_tables(*args, **kwargs)

    monkeypatch.setattr(core, "validate_tables", counting)
    corners = [construct.corner(r, e) for e in subsets.idempotents(r).members]
    quotients = [subsets.quotient_ring(r, subsets.jacobson_radical(r))]
    quotients += [subsets.quotient_ring(r, p) for p in subsets.spectrum(r).prime]
    assert len(corners) > 1 and len(quotients) > 1
    assert calls == []
    # a table handed in from outside is still validated in full
    FiniteRing.from_tables("copy", r.add_table, r.mul_table, r.zero, r.one)
    assert calls == [r.order]
