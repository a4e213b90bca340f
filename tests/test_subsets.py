"""Element classes, radicals, ideal lattices and spectra."""

from __future__ import annotations

import numpy as np
import pytest

from ringlab import (
    Ideal,
    LatticeCapExceeded,
    NotProperIdeal,
    all_ideals,
    central_idempotents,
    gf,
    idempotents,
    ideal_generated_by,
    is_commutative,
    j_spec,
    j_star,
    jacobson_radical,
    matrix_ring,
    maximal_ideals,
    nilpotents,
    potents,
    prime_ideals,
    prime_radical,
    quotient,
    quotient_is_torsion,
    quotient_ring,
    spectrum,
    units,
    zmod,
)
from ringlab.sources import parse_ring_source
from ringlab.subsets import ideal_lattice, radical_quotient


def reference_ideal(ring, xs):
    """Independent oracle: the additive closure of every product r*x*s."""
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.zero] = True
    for x in xs:
        mask[ring.mul_table[ring.mul_table[:, x], :].ravel()] = True
    while True:
        mem = np.flatnonzero(mask)
        grown = mask.copy()
        grown[ring.add_table[np.ix_(mem, mem)].ravel()] = True
        if (grown == mask).all():
            return tuple(mem.tolist())
        mask = grown


def reference_lattice(ring):
    """Independent oracle: join-closure of the principal ideals, every new
    ideal summed with every ideal found so far, each sum by ``np.unique``."""
    found = {reference_ideal(ring, [x]) for x in range(ring.order)}
    frontier = list(found)
    while frontier:
        new = []
        for a in frontier:
            for b in list(found):
                s = tuple(np.unique(ring.add_table[np.ix_(a, b)]).tolist())
                if s not in found:
                    found.add(s)
                    new.append(s)
        frontier = new
    return sorted(found, key=lambda m: (len(m), m))


def brute_force_units(ring):
    """Independent oracle: two-sided inverse search by double loop."""
    out = []
    for x in range(ring.order):
        if any(ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one
               for y in range(ring.order)):
            out.append(x)
    return tuple(out)


class TestElementClasses:
    def test_units_zmod(self):
        assert units(zmod(6)).members == (1, 5)
        assert units(zmod(4)).members == (1, 3)

    def test_units_matrix_ring_against_brute_force(self):
        m2 = matrix_ring(zmod(2), 2)
        assert units(m2).members == brute_force_units(m2)
        assert len(units(m2).members) == 6

    def test_idempotents(self):
        assert idempotents(zmod(6)).members == (0, 1, 3, 4)
        assert central_idempotents(zmod(6)).members == (0, 1, 3, 4)
        assert idempotents(zmod(4)).members == (0, 1)

    def test_matrix_ring_has_noncentral_idempotent(self):
        m2 = matrix_ring(zmod(2), 2)
        idem = set(idempotents(m2).members)
        central = set(central_idempotents(m2).members)
        assert central == {0, m2.one}
        assert idem > central
        e11 = m2.elem_names.index("[[1,0],[0,0]]")
        e12 = m2.elem_names.index("[[0,1],[0,0]]")
        assert e11 in idem
        assert m2.mul(e11, e12) != m2.mul(e12, e11)

    def test_nilpotents_and_potents(self):
        assert nilpotents(zmod(4)).members == (0, 2)
        assert potents(zmod(4)).members == (0, 1, 3)
        assert potents(zmod(6)).members == (0, 1, 2, 3, 4, 5)
        assert nilpotents(zmod(3)).members == (0,)

    def test_classes_verify(self, catalog_rings):
        for ring in catalog_rings[:25]:
            for fn in (units, idempotents, central_idempotents, nilpotents, potents):
                assert fn(ring).verify()


class TestJacobsonRadical:
    def test_examples(self):
        assert jacobson_radical(zmod(4)).members == (0, 2)
        assert jacobson_radical(zmod(6)).members == (0,)
        assert jacobson_radical(matrix_ring(zmod(2), 2)).members == (0,)

    def test_members_have_unit_power_shifts(self, catalog_rings):
        for ring in catalog_rings:
            unit_set = set(units(ring).members)
            for x in jacobson_radical(ring).members:
                trail = ring.power_trail(x)
                assert all(ring.sub(p, ring.one) in unit_set
                           for p in trail.distinct_powers)


class TestIdealGeneration:
    def test_principal_examples(self):
        assert ideal_generated_by(zmod(6), [2]).members == (0, 2, 4)
        z5 = zmod(5)
        assert ideal_generated_by(z5, [1]).members == tuple(range(5))

    def test_e11_generates_whole_matrix_ring(self):
        m2 = matrix_ring(zmod(2), 2)
        e11 = m2.elem_names.index("[[1,0],[0,0]]")
        assert len(ideal_generated_by(m2, [e11]).members) == 16

    def test_unit_generates_ring_iff_on_abelian_members(self, catalog_rings):
        from ringlab import is_abelian
        for ring in catalog_rings:
            if not is_abelian(ring):
                continue
            unit_set = set(units(ring).members)
            for x in range(ring.order):
                whole = len(ideal_generated_by(ring, [x]).members) == ring.order
                assert whole == (x in unit_set)


class TestLatticeReference:
    @pytest.fixture(scope="class")
    def rings(self, catalog_rings):
        # reversed labels move zero and one off indices 0 and 1
        return catalog_rings + [r.relabeled(range(r.order - 1, -1, -1)) for r in catalog_rings]

    def test_lattice_matches_reference(self, rings):
        for ring in rings:
            assert [i.members for i in all_ideals(ring)] == reference_lattice(ring), ring.label

    def test_generated_ideals_match_reference(self, rings):
        for ring in rings:
            n = ring.order
            assert ideal_generated_by(ring, []).members == (ring.zero,)
            for x in range(n):
                assert ideal_generated_by(ring, [x]).members == reference_ideal(ring, [x])
                pair = [x, (3 * x + 1) % n]
                assert ideal_generated_by(ring, pair).members == reference_ideal(ring, pair)


class TestLatticeAndSpectrum:
    def test_zmod12_lattice(self):
        ideals = all_ideals(zmod(12))
        assert len(ideals) == 6
        members = {i.members for i in ideals}
        assert (0, 6) in members and (0, 4, 8) in members

    def test_zmod4_lattice(self):
        assert len(all_ideals(zmod(4))) == 3

    def test_matrix_ring_is_simple(self):
        assert len(all_ideals(matrix_ring(zmod(2), 2))) == 2

    def test_primes_and_maximals(self):
        z6 = zmod(6)
        assert {p.members for p in prime_ideals(z6)} == {(0, 2, 4), (0, 3)}
        assert {m.members for m in maximal_ideals(z6)} == {(0, 2, 4), (0, 3)}
        z4 = zmod(4)
        assert {p.members for p in prime_ideals(z4)} == {(0, 2)}
        z12 = zmod(12)
        primes = {p.members for p in prime_ideals(z12)}
        assert primes == {(0, 2, 4, 6, 8, 10), (0, 3, 6, 9)}
        assert (0, 4, 8) not in primes and (0, 6) not in primes

    def test_prime_equals_maximal_catalog_wide(self, catalog_rings):
        for ring in catalog_rings:
            sp = spectrum(ring)
            assert {p.members for p in sp.prime} == {m.members for m in sp.maximal}

    def test_prime_test_matches_definition(self, catalog_rings):
        # reference: some a*r*b escapes P for every a, b outside P, over all r
        for ring in catalog_rings:
            mul = ring.mul_table
            primes = {p.members for p in spectrum(ring).prime}
            for ideal in all_ideals(ring):
                outside = np.flatnonzero(~ideal.mask())
                arb = mul[mul[np.ix_(outside, np.arange(ring.order))]][:, :, outside]
                prime = len(outside) > 0 and (~ideal.mask()[arb]).any(axis=1).all()
                assert prime == (ideal.members in primes), (ring.label, ideal.members)

    def test_j_spec_filters_by_radical(self, catalog_rings):
        for ring in catalog_rings[:25]:
            jset = set(jacobson_radical(ring).members)
            sp = spectrum(ring)
            expected = [p for p in sp.prime if jset <= set(p.members)]
            assert [p.members for p in sp.j_spec] == [p.members for p in expected]
            assert j_spec(ring) == sp.j_spec

    def test_radicals_examples(self):
        z12 = zmod(12)
        assert j_star(z12).members == (0, 6)
        assert prime_radical(z12).members == (0, 6)
        assert j_star(zmod(6)).members == (0,)
        assert j_star(matrix_ring(zmod(2), 2)).members == (0,)

    def test_radical_triple_equality(self, catalog_rings):
        for ring in catalog_rings:
            j = jacobson_radical(ring).members
            assert j == j_star(ring).members == prime_radical(ring).members

    def test_nilpotent_inclusions(self, catalog_rings):
        for ring in catalog_rings:
            nil = set(nilpotents(ring).members)
            pr = set(prime_radical(ring).members)
            assert pr <= nil
            if is_commutative(ring):
                assert nil <= pr

    def test_lattice_cap(self):
        with pytest.raises(LatticeCapExceeded):
            all_ideals(zmod(12), order_cap=4)

    @pytest.mark.parametrize("source, count", [
        ("zmod:12", 6),
        ("eqdiag:zmod2:3", 7),      # one of its ideals is not principal
        ("product:gf2,zmod6", 8),   # every ideal is principal
    ])
    def test_lattice_count_cap(self, source, count):
        ring = parse_ring_source(source)
        with pytest.raises(LatticeCapExceeded):
            all_ideals(ring, count_cap=count - 1)
        assert len(all_ideals(ring, count_cap=count)) == count
        # The lattice is stored once, free of caps, and held to every caller's caps.
        with pytest.raises(LatticeCapExceeded):
            all_ideals(ring, count_cap=count - 1)
        j_star(ring)
        with pytest.raises(LatticeCapExceeded):
            j_star(ring, order_cap=ring.order - 1)
        assert ideal_lattice(ring, order_cap=64) is ideal_lattice(ring, order_cap=128)

    def test_spectrum_json_shape(self):
        doc = spectrum(zmod(6)).to_json_dict()
        assert doc["ring"] == "Z/6"
        flags = {tuple(i["members"]): i for i in doc["ideals"]}
        assert flags[(0, 3)]["prime"] and flags[(0, 3)]["maximal"]
        assert not flags[(0,)]["prime"]
        assert flags[(0, 3)]["contains_J"]


class TestQuotientTorsion:
    def test_examples(self):
        z6 = zmod(6)
        p = [i for i in prime_ideals(z6) if i.members == (0, 2, 4)][0]
        assert quotient_is_torsion(z6, p)
        z12 = zmod(12)
        four = [i for i in all_ideals(z12) if i.members == (0, 4, 8)][0]
        assert not quotient_is_torsion(z12, four)
        z3 = zmod(3)
        zero_ideal = [i for i in all_ideals(z3) if i.members == (0,)][0]
        assert quotient_is_torsion(z3, zero_ideal)

    def test_whole_ring_rejected(self):
        z4 = zmod(4)
        with pytest.raises(NotProperIdeal):
            quotient_is_torsion(z4, Ideal(z4, (0, 1, 2, 3)))

    def test_quotient_memo_keeps_each_label(self):
        z12 = zmod(12)
        j = Ideal(z12, (0, 6))
        assert quotient_ring(z12, j).label == "Z/12/(2)"
        assert quotient(z12, j, "Z12/J").label == "Z12/J"
        assert quotient_ring(z12, j) is quotient_ring(z12, j, "Z/12/(2)")

    def test_radical_quotient_is_built_once(self):
        z12 = zmod(12)
        q = radical_quotient(z12)
        assert q.label == "Z/12/J" and q.order == 6
        assert radical_quotient(z12) is q
        # an unlabelled quotient by J reuses it, as T3.3 and T3.7 do
        assert quotient_ring(z12, jacobson_radical(z12)) is q


class TestIdealInvariants:
    def test_ideal_verify_rejects_non_ideals(self):
        z6 = zmod(6)
        assert not Ideal(z6, (0, 2)).verify()   # not closed under addition: 2+2=4
        assert not Ideal(z6, (1, 2)).verify()   # missing zero
        assert Ideal(z6, (0, 2, 4)).verify()

    def test_gf_fields_have_trivial_radical(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert jacobson_radical(gf(q)).members == (0,)
