"""Element classes, radicals, ideal lattices and spectra."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ringlab import (
    Ideal,
    InternalInvariantViolation,
    LatticeCapExceeded,
    NotAnIdeal,
    NotIdempotent,
    NotProperIdeal,
    central_elements,
    central_idempotents,
    corner,
    gf,
    idempotents,
    ideal_generated_by,
    is_commutative,
    jacobson_radical,
    matrix_ring,
    nilpotents,
    potents,
    product,
    quotient,
    quotient_is_torsion,
    quotient_ring,
    spectrum,
    units,
    zmod,
)
from ringlab import ring_report, subsets
from ringlab.construct import build_from_provenance
from ringlab.predicates import local_witness
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


def reference_is_prime(ring, members):
    """Independent oracle: proper, and some a*r*b escapes for every a, b outside.

    Whether aRb lies in P depends only on the cosets a + P and b + P, so a
    and b run over the least element of each coset outside P.  A pair whose
    a*b (r = 1) escapes is settled; every r is tried on the other pairs, a
    block of pairs at a time.
    """
    mask = np.zeros(ring.order, dtype=bool)
    mask[list(members)] = True
    if mask.all():
        return False
    least = ring.add_table[:, list(members)].min(axis=1)
    outside = np.flatnonzero((least == np.arange(ring.order)) & ~mask)
    mul = ring.mul_table
    a, b = np.nonzero(mask[mul[np.ix_(outside, outside)]])
    a, b = outside[a], outside[b]
    step = max(1, (1 << 20) // ring.order)
    for i in range(0, len(a), step):
        arb = mul[mul[a[i:i + step]], b[i:i + step, None]]  # [pair, r]: a*r*b
        if not (~mask[arb]).any(axis=1).all():
            return False
    return True


def reference_spectrum(ring):
    """Oracle: the spectrum as read off the full lattice, before it was read
    off the ideals above J.  The candidates are the ideals that contain every
    block idempotent but one; the primes are the candidates that pass
    ``reference_is_prime``, the maximal ideals the maximal candidates."""
    blocks = subsets._blocks(ring)
    candidates = [i.members for i in ideal_lattice(ring, order_cap=ring.order)
                  if (~i.mask()[blocks]).sum() == 1]
    maximal = [c for c in candidates if not any(set(c) < set(d) for d in candidates)]
    prime = [c for c in candidates if reference_is_prime(ring, c)]
    jset = set(jacobson_radical(ring).members)

    def meet(ideals):
        return tuple(sorted(set(range(ring.order)).intersection(*map(set, ideals))))

    return {"maximal": maximal, "prime": prime,
            "j_spec": [p for p in prime if jset <= set(p)],
            "j_star": meet(maximal), "prime_radical": meet(prime)}


def spectrum_parts(ring):
    sp = spectrum(ring)
    return {"maximal": [m.members for m in sp.maximal], "prime": [p.members for p in sp.prime],
            "j_spec": [p.members for p in sp.j_spec], "j_star": sp.j_star.members,
            "prime_radical": sp.prime_radical.members}


def brute_force_local_witness(ring):
    """Independent oracle: the first closure failure of the non-units, by
    plain loops: a sum of two non-units, then r*m, then m*r, that is a unit."""
    units = set(brute_force_units(ring))
    nonunits = [x for x in range(ring.order) if x not in units]
    if not nonunits:
        return ()
    everything = range(ring.order)
    for pairs, op in (([(a, b) for a in nonunits for b in nonunits], ring.add),
                      ([(r, m) for r in everything for m in nonunits], ring.mul),
                      ([(m, r) for m in nonunits for r in everything], ring.mul)):
        for a, b in pairs:
            if op(a, b) in units:
                return a, b
    return None


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
            ideals = ideal_lattice(ring)
            assert [i.members for i in ideals] == reference_lattice(ring), ring.label

    def test_spectrum_matches_full_lattice_oracle(self, rings):
        # the spectrum reads only the ideals above J; the oracle reads them all
        for ring in rings:
            assert spectrum_parts(ring) == reference_spectrum(ring), ring.label

    @pytest.mark.parametrize("source, blocks", [
        ("product:product:product:gf2,gf2,gf2,gf2", 4),
        ("zmod:30", 3),
        ("product:zmod4,zmod6", 3),
        ("product:matrix:zmod2:2,zmod3", 2),
    ])
    def test_composed_spectrum_matches_reference(self, source, blocks):
        # rings of several blocks, whose lattice is built block by block
        ring = parse_ring_source(source)
        assert len(subsets._blocks(ring)) == blocks
        for r in (ring, ring.relabeled(range(ring.order - 1, -1, -1))):
            sp = spectrum(r)
            ideals = reference_lattice(r)
            assert [i.members for i in ideal_lattice(r)] == ideals, r.label
            assert {p.members for p in sp.prime} == {
                i for i in ideals if reference_is_prime(r, i)}, r.label
            assert {m.members for m in sp.maximal} == {
                i for i in ideals if len(i) < r.order
                and not any(len(j) < r.order and set(i) < set(j) for j in ideals)}, r.label

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
        ideals = ideal_lattice(zmod(12))
        assert len(ideals) == 6
        members = {i.members for i in ideals}
        assert (0, 6) in members and (0, 4, 8) in members

    def test_zmod4_lattice(self):
        assert len(ideal_lattice(zmod(4))) == 3

    def test_matrix_ring_is_simple(self):
        assert len(ideal_lattice(matrix_ring(zmod(2), 2))) == 2

    def test_primes_and_maximals(self):
        z6 = zmod(6)
        assert {p.members for p in spectrum(z6).prime} == {(0, 2, 4), (0, 3)}
        assert {m.members for m in spectrum(z6).maximal} == {(0, 2, 4), (0, 3)}
        z4 = zmod(4)
        assert {p.members for p in spectrum(z4).prime} == {(0, 2)}
        z12 = zmod(12)
        primes = {p.members for p in spectrum(z12).prime}
        assert primes == {(0, 2, 4, 6, 8, 10), (0, 3, 6, 9)}
        assert (0, 4, 8) not in primes and (0, 6) not in primes

    def test_prime_equals_maximal_catalog_wide(self, catalog_rings):
        for ring in catalog_rings:
            sp = spectrum(ring)
            assert {p.members for p in sp.prime} == {m.members for m in sp.maximal}

    def test_prime_test_matches_definition(self, catalog_rings):
        for ring in catalog_rings:
            primes = {p.members for p in spectrum(ring).prime}
            for ideal in ideal_lattice(ring):
                prime = reference_is_prime(ring, ideal.members)
                assert prime == (ideal.members in primes), (ring.label, ideal.members)
                # the test itself, on the ideals that are not candidates too
                assert prime == subsets._is_prime_ideal(ring, ideal), (ring.label, ideal.members)

    def test_j_spec_filters_by_radical(self, catalog_rings):
        for ring in catalog_rings[:25]:
            jset = set(jacobson_radical(ring).members)
            sp = spectrum(ring)
            expected = [p for p in sp.prime if jset <= set(p.members)]
            assert [p.members for p in sp.j_spec] == [p.members for p in expected]

    def test_radicals_examples(self):
        sp = spectrum(zmod(12))
        assert sp.j_star.members == sp.prime_radical.members == (0, 6)
        assert spectrum(zmod(6)).j_star.members == (0,)
        assert spectrum(matrix_ring(zmod(2), 2)).j_star.members == (0,)

    def test_radical_triple_equality(self, catalog_rings):
        for ring in catalog_rings:
            j = jacobson_radical(ring).members
            sp = spectrum(ring)
            assert j == sp.j_star.members == sp.prime_radical.members

    def test_nilpotent_inclusions(self, catalog_rings):
        for ring in catalog_rings:
            nil = set(nilpotents(ring).members)
            pr = set(spectrum(ring).prime_radical.members)
            assert pr <= nil
            if is_commutative(ring):
                assert nil <= pr

    def test_lattice_cap(self):
        with pytest.raises(LatticeCapExceeded):
            ideal_lattice(zmod(12), order_cap=4)

    @pytest.mark.parametrize("source, count", [
        ("zmod:12", 6),
        ("eqdiag:zmod2:3", 7),      # one of its ideals is not principal
        ("product:gf2,zmod6", 8),   # every ideal is principal
        ("product:product:product:product:gf2,gf2,gf2,gf2,gf2", 2 ** 5),  # GF(2)^5
    ])
    def test_lattice_count_cap(self, source, count, monkeypatch):
        # the count guard is a fixed constant; each side of it gets a fresh ring
        monkeypatch.setattr(subsets, "DEFAULT_LATTICE_COUNT_CAP", count - 1)
        with pytest.raises(LatticeCapExceeded, match=f"more than {count - 1} ideals"):
            ideal_lattice(parse_ring_source(source))
        monkeypatch.setattr(subsets, "DEFAULT_LATTICE_COUNT_CAP", count)
        ring = parse_ring_source(source)
        assert len(ideal_lattice(ring)) == count
        # The lattice is stored once, free of the order cap, and held to every caller's.
        ideal_lattice(ring)
        with pytest.raises(LatticeCapExceeded):
            ideal_lattice(ring, order_cap=ring.order - 1)
        assert ideal_lattice(ring, order_cap=64) is ideal_lattice(ring, order_cap=128)

    def test_count_refusal_is_stored(self, monkeypatch):
        # Z/12 has 6 ideals; the refusal is kept in the ring's memo, so a
        # second reader is refused without a second enumeration
        monkeypatch.setattr(subsets, "DEFAULT_LATTICE_COUNT_CAP", 5)
        calls = []
        build = subsets._block_product
        monkeypatch.setattr(subsets, "_block_product",
                            lambda r, floor: calls.append(r) or build(r, floor))
        ring = zmod(12)
        messages = []
        for _ in range(2):
            with pytest.raises(LatticeCapExceeded) as exc:
                ideal_lattice(ring)
            messages.append(str(exc.value))
        assert len(calls) == 1
        assert messages == [str(LatticeCapExceeded(12, 5, "more than 5 ideals"))] * 2
        # the order cap is still checked before the memo is read
        with pytest.raises(LatticeCapExceeded, match=r"cap 4\)$"):
            ideal_lattice(ring, order_cap=4)

    def test_zero_radical_shares_the_lattice(self, monkeypatch):
        # with J = 0 the ideals above J are the lattice: one enumeration
        calls = []
        build = subsets._block_product
        monkeypatch.setattr(subsets, "_block_product",
                            lambda r, floor: calls.append(r) or build(r, floor))
        ring = zmod(6)
        spectrum(ring)
        assert ideal_lattice(ring) and len(calls) == 1

    @pytest.mark.parametrize("fake", ["whole ring", "central idempotent"])
    def test_non_nilpotent_radical_is_refused(self, fake, monkeypatch):
        # the spectrum reads only the ideals above J, which is sound only
        # because J is nilpotent; a J that is not must raise
        ring = product(zmod(2), gf(4))
        if fake == "whole ring":
            ideal = Ideal(ring, tuple(range(ring.order)))
        else:
            e = next(e for e in central_idempotents(ring).members if e not in (ring.zero, ring.one))
            ideal = ideal_generated_by(ring, [e])
            assert 1 < len(ideal.members) < ring.order
        monkeypatch.setattr(subsets, "jacobson_radical", lambda r: ideal)
        with pytest.raises(InternalInvariantViolation, match="not nilpotent"):
            spectrum(ring)

    def test_nilpotency_index_within_log2_order(self, catalog_rings):
        for ring in catalog_rings:
            j = jacobson_radical(ring)
            k = subsets._nilpotency_index(ring, j)
            assert 2 ** k <= ring.order or ring.order == 1, ring.label  # Z/1: J = 0 = J^1
            # the least k: J^(k-1) is not zero, J^k is, by plain products
            power, least = j.members, 1
            while power != (ring.zero,):
                products = np.unique(ring.mul_table[np.ix_(power, j.members)])
                power, least = reference_ideal(ring, products.tolist()), least + 1
            assert k == least, ring.label

    def test_spectrum_json_shape(self):
        # ring_report is the one rendering of the spectrum
        doc = json.loads(json.dumps(ring_report(zmod(6))))
        assert doc["ring"] == "Z/6"
        assert doc["spectrum"] == {"ideal_count": 4, "prime": [[0, 3], [0, 2, 4]],
                                   "maximal": [[0, 3], [0, 2, 4]], "j_spec_count": 2}
        assert doc["j_star"] == doc["prime_radical"] == [0]


def reference_quotient_is_torsion(ring, p):
    """Oracle: the torsion test on a built R/P, before it was read from R's
    power matrix: every nonzero coset has a power row that reaches 1 + P."""
    q = quotient_ring(ring, p)
    hits_one = (q.power_matrix() == q.one).any(axis=1)
    return bool(np.delete(hits_one, q.zero).all())


class TestQuotientTorsion:
    def test_matches_the_quotient_on_every_catalog_prime(self, catalog_rings):
        seen = set()
        for ring in catalog_rings:
            for p in spectrum(ring).j_spec:
                seen.add(quotient_is_torsion(ring, p))
                assert quotient_is_torsion(ring, p) == reference_quotient_is_torsion(ring, p), \
                    (ring.label, p.members)
        assert seen == {True, False}

    @pytest.mark.large
    @pytest.mark.parametrize("source", ["tri:zmod2:4", "eqdiag:gf4:3"])
    def test_matches_the_quotient_on_large_rings(self, source):
        ring = parse_ring_source(source)
        for p in spectrum(ring).j_spec:
            assert quotient_is_torsion(ring, p) == reference_quotient_is_torsion(ring, p)

    def test_a_set_that_is_not_an_ideal_is_rejected(self):
        z6 = zmod(6)
        with pytest.raises(NotAnIdeal):
            quotient_is_torsion(z6, Ideal(z6, (0, 2)))

    def test_examples(self):
        z6 = zmod(6)
        p = [i for i in spectrum(z6).prime if i.members == (0, 2, 4)][0]
        assert quotient_is_torsion(z6, p)
        z12 = zmod(12)
        four = [i for i in ideal_lattice(z12) if i.members == (0, 4, 8)][0]
        assert not quotient_is_torsion(z12, four)
        z3 = zmod(3)
        zero_ideal = [i for i in ideal_lattice(z3) if i.members == (0,)][0]
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


class TestCornerMemo:
    def test_corner_is_built_once_per_label(self):
        z6 = zmod(6)
        for e in idempotents(z6).members:
            assert corner(z6, e) is corner(z6, e)
        assert corner(z6, 3).label == "e3(Z/6)e3"
        assert corner(z6, 3, "C3").label == "C3"
        assert corner(z6, 3) is corner(z6, 3, "e3(Z/6)e3")

    def test_unlabelled_corner_reuses_the_catalog_corner(self, catalog):
        primary = {e.provenance: e.ring for e in catalog}
        for entry in catalog:
            if not entry.provenance.startswith("corner:"):
                continue
            source, _, e = entry.provenance[len("corner:"):].rpartition(":")
            parent = primary[source]
            assert corner(parent, int(e)) is entry.ring, entry.provenance
            assert entry.ring.label == f"corner {e} of {parent.label}"

    def test_non_idempotent_raises_on_every_call(self):
        z6 = zmod(6)
        for _ in range(3):
            with pytest.raises(NotIdempotent):
                corner(z6, 2)
        assert not [k for k in z6._memo if "corner" in repr(k)]


def reference_central_mask(ring):
    """Independent oracle: x is central when its row of the mul table equals its column."""
    mul = np.asarray(ring.mul_table)
    return (mul == mul.T).all(axis=1)


def check_central_classes(ring):
    mask = reference_central_mask(ring)
    idem = np.diagonal(ring.mul_table) == np.arange(ring.order)
    assert central_elements(ring).members == tuple(np.flatnonzero(mask).tolist()), ring.label
    assert central_idempotents(ring).members == \
        tuple(np.flatnonzero(mask & idem).tolist()), ring.label


class TestCentralMask:
    def test_catalog_matches_full_compare(self, catalog_rings):
        for ring in catalog_rings:
            # reversed labels move zero and one off indices 0 and 1
            for r in (ring, ring.relabeled(range(ring.order - 1, -1, -1))):
                check_central_classes(r)

    @pytest.mark.large
    @pytest.mark.parametrize("source", ["tri:gf4:3", "matrix:gf4:2"])
    def test_large_rings_match_full_compare(self, source):
        check_central_classes(parse_ring_source(source))


def _is_two_sided(ring, members):
    """Independent oracle: every product r*x and x*r stays in the set."""
    inside = set(members)
    return all(ring.mul(r, x) in inside and ring.mul(x, r) in inside
               for x in members for r in range(ring.order))


class TestQuotientNeedsTwoSidedIdeal:
    def test_right_ideal_of_triangular_ring_rejected(self):
        r = build_from_provenance("tri:zmod2:2")
        assert r.name_of(4) == "[[0,1],[0,1]]"
        right = tuple(sorted({int(v) for v in r.mul_table[4]}))  # 4R
        assert right == (0, 4) and not _is_two_sided(r, right)
        with pytest.raises(NotAnIdeal):
            quotient_ring(r, Ideal(r, right))
        with pytest.raises(NotAnIdeal):
            quotient(r, right)

    def test_one_sided_principal_ideals_rejected(self):
        r = build_from_provenance("paper:gf4-example")
        one_sided = set()
        for x in range(r.order):
            for side in (r.mul_table[x], r.mul_table[:, x]):  # xR and Rx
                members = tuple(sorted({int(v) for v in side}))
                if not _is_two_sided(r, members):
                    one_sided.add(members)
        assert len(one_sided) == 6
        for members in sorted(one_sided):
            assert not Ideal(r, members).verify()
            with pytest.raises(NotAnIdeal):
                quotient_ring(r, Ideal(r, members))
            with pytest.raises(NotAnIdeal):
                quotient_ring(r, Ideal(r, members), "labelled")


class TestIdealInvariants:
    def test_ideal_verify_rejects_non_ideals(self):
        z6 = zmod(6)
        assert not Ideal(z6, (0, 2)).verify()   # not closed under addition: 2+2=4
        assert not Ideal(z6, (1, 2)).verify()   # missing zero
        assert Ideal(z6, (0, 2, 4)).verify()

    def test_ideal_verify_rejects_bad_member_lists(self):
        z6 = zmod(6)
        assert not Ideal(z6, ()).verify()
        assert not Ideal(z6, (0, 6)).verify()   # no such element
        assert not Ideal(z6, (-1, 0)).verify()

    def test_ideal_witness(self):
        z6 = zmod(6)
        assert z6.ideal_witness((0, 2, 4)) is None
        for members in ((), (0, 6), (-1, 0)):
            assert z6.ideal_witness(members) == (), members
        assert z6.ideal_witness((0, 2)) == (2, 2)   # 2 + 2 = 4

    def test_ideal_witness_of_a_right_ideal_is_a_product(self):
        m2 = matrix_ring(zmod(2), 2)
        e = next(x for x in idempotents(m2).members if x not in (m2.zero, m2.one))
        right = tuple(sorted({int(v) for v in m2.mul_table[e]}))   # eR
        assert not _is_two_sided(m2, right)
        r, m = m2.ideal_witness(right)
        assert m in right and m2.mul(r, m) not in right

    def test_local_witness_matches_brute_force(self, catalog_rings):
        for ring in catalog_rings:
            assert local_witness(ring) == brute_force_local_witness(ring), ring.label

    @pytest.mark.parametrize("members", [(-3, 0), (0, 6)])
    def test_ideal_mask_rejects_out_of_range_members(self, members):
        # (-3, 0) would otherwise mark index 3
        with pytest.raises(ValueError, match="out of range"):
            Ideal(zmod(6), members).mask()

    def test_ideal_mask_is_memoised_read_only(self, catalog_rings):
        for ring in catalog_rings:
            for ideal in ideal_lattice(ring):
                mask = ideal.mask()
                reference = np.zeros(ring.order, dtype=bool)
                reference[list(ideal.members)] = True
                np.testing.assert_array_equal(mask, reference)
                assert not mask.flags.writeable and ideal.mask() is mask

    def test_gf_fields_have_trivial_radical(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert jacobson_radical(gf(q)).members == (0,)
