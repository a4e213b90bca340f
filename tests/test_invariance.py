"""Oracles that share no code with the library's own scans.

Relabelling: a ring's predicates, class sizes, radicals and characterization
values cannot depend on which indices its elements carry, so they must not
move under ``ring.relabeled(permutation)``, and its ideal, prime and maximal
sets must be the same sets once each index is mapped back.

Closed forms for Z/n: |U(Z/n)| = phi(n), Z/n has 2^omega(n) idempotents,
its nilpotents, which form J(Z/n), number n / prod(p | n), its ideals
are the d(n) ideals dZ/n for d | n, and its primes the omega(n) ideals pZ/n
for p | n.  Ideal counts of other families: the Boolean ring GF(2)^k has 2^k
ideals, T_2(F_q) has Catalan(3) = 5, and the ideals of a product R x S of
unital rings are the products I x J, so their count is the product of the
factors' counts; its primes are P x S and R x Q for P prime in R and Q prime
in S, and its maximal ideals likewise, so those counts add.  The right-hand
sides come from sympy.
"""

from __future__ import annotations

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import catalan, divisor_count, primefactors, totient

from ringlab import (
    CHARACTERIZATION_IDS,
    RingCatalogEntry,
    RunConfig,
    central_elements,
    central_idempotents,
    characterization,
    gf,
    idempotents,
    jacobson_radical,
    nilpotents,
    potents,
    predicate_vector,
    product,
    run_verify,
    spectrum,
    units,
    upper_triangular,
    zmod,
)
from ringlab.sources import parse_ring_source
from ringlab.subsets import ideal_lattice

CLASSES = (units, idempotents, central_idempotents, nilpotents, potents, central_elements)


def invariants(r) -> dict:
    return {
        "predicates": predicate_vector(r).values,
        "class_sizes": [len(cls(r).members) for cls in CLASSES],
        "radical_sizes": [len(i.members) for i in (
            jacobson_radical(r), spectrum(r).j_star, spectrum(r).prime_radical)],
        "characterizations": {t: characterization(r, t) for t in CHARACTERIZATION_IDS},
    }


def ideal_sets(r, old_of) -> dict:
    """The ideal, prime and maximal sets, each member k read as old_of[k]."""
    sp = spectrum(r)
    parts = {"all_ideals": ideal_lattice(r), "prime": sp.prime, "maximal": sp.maximal}
    return {part: {frozenset(old_of[k] for k in i.members) for i in ideals}
            for part, ideals in parts.items()}


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_relabelling_changes_nothing(catalog, data):
    ring = data.draw(st.sampled_from([e.ring for e in catalog if e.ring.order <= 32]),
                     label="ring")
    old_order = data.draw(st.permutations(range(ring.order)), label="old_order")
    relabelled = ring.relabeled(old_order)
    assert invariants(relabelled) == invariants(ring)
    assert ideal_sets(relabelled, old_order) == ideal_sets(ring, range(ring.order))


@pytest.mark.parametrize("source", [
    "product:product:gf2,zmod3,zmod4",
    "product:zmod2,product:tri:gf2:2,gf3",
    "product:product:matrix:zmod2:2,gf2,zmod3",
])
def test_relabelling_a_composed_ring_changes_nothing(source):
    ring = parse_ring_source(source)
    old_order = np.random.default_rng(11).permutation(ring.order).tolist()
    relabelled = ring.relabeled(old_order)
    assert invariants(relabelled) == invariants(ring)
    assert ideal_sets(relabelled, old_order) == ideal_sets(ring, range(ring.order))
    catalog = [RingCatalogEntry(r, source) for r in (ring, relabelled)]
    for verdict in run_verify(RunConfig(jobs=1), catalog):
        if verdict.theorem in ("T4.1", "obs-2powers"):  # rows of fixed rings, not the catalog's
            continue
        # one row or one skip per ring, the same for both
        assert len(verdict.rows) in (0, 2) and verdict.rows[:1] == verdict.rows[1:], \
            verdict.theorem
        assert len(verdict.skipped) in (0, 2) and verdict.skipped[:1] == verdict.skipped[1:], \
            verdict.theorem


@pytest.mark.parametrize("n", range(1, 121))
def test_zmod_closed_forms(n):
    r = zmod(n)
    assert len(units(r).members) == totient(n)
    assert len(idempotents(r).members) == 2 ** len(primefactors(n))
    radical_order = n // prod(primefactors(n))
    assert len(nilpotents(r).members) == radical_order
    assert len(jacobson_radical(r).members) == radical_order
    assert len(ideal_lattice(r)) == divisor_count(n)
    assert len(spectrum(r).prime) == len(primefactors(n))


def test_zmod_2310_closed_forms():
    r = zmod(2 * 3 * 5 * 7 * 11)
    assert len(ideal_lattice(r, order_cap=4096)) == divisor_count(2310)
    assert len(spectrum(r).prime) == len(primefactors(2310))


@pytest.mark.parametrize("k", range(1, 6))
def test_boolean_ring_ideal_count(k):
    r = gf(2)
    for _ in range(k - 1):
        r = product(r, gf(2))
    assert len(ideal_lattice(r)) == 2 ** k


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_triangular_ideal_count(q):
    assert len(ideal_lattice(upper_triangular(gf(q), 2))) == catalan(3)


def test_product_ideal_count(catalog):
    pairs = [entry.provenance.removeprefix("product:").split(",") for entry in catalog
             if entry.provenance.startswith("product:")]
    assert pairs
    for left, right in pairs + [["zmod:4", "gf:4"]]:
        r, s = parse_ring_source(left), parse_ring_source(right)
        r_s = product(r, s)
        rs = spectrum(r_s)
        assert len(ideal_lattice(r_s)) == \
            len(ideal_lattice(r)) * len(ideal_lattice(s)), (left, right)
        for part in ("prime", "maximal"):
            assert len(getattr(rs, part)) == \
                len(getattr(spectrum(r), part)) + len(getattr(spectrum(s), part)), \
                (left, right, part)
