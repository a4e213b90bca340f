"""Clean-family predicates, characterizations, lifting, and the vectors."""

from __future__ import annotations

import time

import numpy as np
import pytest

from ringlab import (
    CHARACTERIZATION_IDS,
    CleanWitness,
    Ideal,
    characterization,
    clean_decompositions,
    gf,
    gf4_triangular_example,
    ideal_generated_by,
    idempotents_lift_mod,
    idempotents_lift_uniquely_mod,
    is_abelian,
    is_boolean,
    is_clean,
    is_commutative,
    is_exchange,
    is_generalized_n_like,
    is_local,
    is_periodic,
    is_potent_ring,
    is_potently_j_clean,
    is_strongly_clean,
    is_strongly_pi_regular,
    is_uniquely_clean,
    is_uniquely_clean_element,
    is_uniquely_nil_clean_element,
    is_uniquely_pi_clean,
    is_uniquely_pi_clean_element,
    is_uniquely_pi_nil_clean,
    jacobson_radical,
    matrix_ring,
    pi_clean_witness,
    predicate_vector,
    quotient_ring,
    radical_unit_set,
    upper_triangular,
    zmod,
)
from ringlab import core, predicates, subsets
from ringlab.construct import SUPPORTED_FIELD_ORDERS
from ringlab.predicates import GENERALIZED_RANGE, generalized_n_like_witness
from ringlab.sources import parse_ring_source
from ringlab.subsets import spectrum


def reference_n_like_witness(ring, n):
    """Oracle: the first row-major (a, b) with (ab)^n - a b^n - a^n b + ab != 0,
    each of the four terms gathered over the whole n x n grid."""
    idx = np.arange(ring.order)
    if n > 64:  # x^n by repeated squaring
        pow_n = np.array([ring.pow(int(x), n) for x in idx])
    else:
        pow_n = idx
        for _ in range(n - 1):
            pow_n = ring.mul_table[pow_n, idx]
    ab = ring.mul_table
    t1 = pow_n[ab]                      # (ab)^n
    t2 = ring.mul_table[:, pow_n]       # a * b^n
    t3 = ring.mul_table[pow_n, :]       # a^n * b
    neg = ring.neg_table
    total = ring.add_table[ring.add_table[t1, neg[t2]], ring.add_table[ab, neg[t3]]]
    bad = np.argwhere(total != ring.zero)
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def zmod_n_like_witness(m, n):
    """Oracle for Z/m in Python integers: the first row-major failing (a, b)."""
    for a in range(m):
        for b in range(m):
            if ((a * b) ** n - a * b ** n - a ** n * b + a * b) % m:
                return a, b
    return None


def brute_force_decompositions(ring, a):
    """Oracle: scan every (e, u) pair directly from the definitions."""
    idem = [e for e in range(ring.order) if ring.mul(e, e) == e]
    unit = set()
    for x in range(ring.order):
        if any(ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one
               for y in range(ring.order)):
            unit.add(x)
    return [(e, u) for e in idem for u in unit if ring.add(e, u) == a]


class TestCleanDecompositions:
    def test_zmod3_element2_splits_twice(self):
        assert clean_decompositions(zmod(3), 2) == [(0, 2), (1, 1)]

    def test_zmod3_element1_unique(self):
        assert clean_decompositions(zmod(3), 1) == [(0, 1)]

    def test_zmod4_element2_unique(self):
        assert clean_decompositions(zmod(4), 2) == [(1, 1)]

    def test_against_brute_force(self, catalog_rings):
        for ring in catalog_rings:
            if ring.order > 12:
                continue
            for a in range(ring.order):
                assert sorted(clean_decompositions(ring, a)) == \
                    sorted(brute_force_decompositions(ring, a))

    def test_clean_witness_verifies(self):
        z3 = zmod(3)
        w = CleanWitness(z3, target=2, exponent=2, idempotent=1, complement=0, kind="J-clean")
        assert w.verify()
        assert not CleanWitness(z3, 2, 1, 0, 1, "nil-clean").verify()

    def test_p_clean_witness_above_the_old_lattice_cap(self):
        # the prime radical is read off the ideals above J, so a P-clean
        # witness verifies on a ring of order 512, over the lattice cap of 256
        m3 = parse_ring_source("matrix:zmod2:3")
        w = CleanWitness(m3, target=m3.one, exponent=1, idempotent=m3.one, complement=m3.zero,
                         kind="P-clean")
        assert w.verify()

    def test_pi_clean_witness(self):
        w = pi_clean_witness(zmod(3), 2)
        assert (w.exponent, w.idempotent, w.complement) == (2, 0, 1) and w.verify()
        m2 = matrix_ring(zmod(2), 2)
        e11 = m2.elem_names.index("[[1,0],[0,0]]")
        assert pi_clean_witness(m2, e11) is None


@pytest.mark.parametrize("predicate", [
    clean_decompositions, is_uniquely_clean_element, is_uniquely_pi_clean_element,
    is_uniquely_nil_clean_element, pi_clean_witness])
@pytest.mark.parametrize("a", [-1, 6])
def test_element_predicates_reject_out_of_range_indices(predicate, a):
    # numpy would wrap -1 round to element 5 and fail on 6 with a bare IndexError
    with pytest.raises(ValueError, match="out of range"):
        predicate(zmod(6), a)


@pytest.mark.parametrize("call", [
    lambda r, a: r.power_trail(a),
    lambda r, a: r.pow(a, 2),
    lambda r, a: ideal_generated_by(r, [0, a]),
], ids=["power_trail", "pow", "ideal_generated_by"])
@pytest.mark.parametrize("a", [-1, 6])
def test_element_apis_reject_out_of_range_indices(call, a):
    # each goes through the one element check of Elem: -1 would otherwise
    # stand for 5 (power_trail(-1) listed -1 and 5 as distinct powers)
    with pytest.raises(ValueError, match="out of range"):
        call(zmod(6), a)


class TestUniquelyPiClean:
    def test_zmod3(self):
        assert is_uniquely_pi_clean_element(zmod(3), 2) == (True, 2)
        assert is_uniquely_pi_clean(zmod(3))
        assert not is_uniquely_clean(zmod(3))
        assert is_clean(zmod(3))

    def test_zmod4_uniquely_clean(self):
        z4 = zmod(4)
        assert is_uniquely_clean(z4)
        assert all(is_uniquely_pi_clean_element(z4, a) == (True, 1) for a in range(4))

    def test_matrix_ring_fails(self):
        m2 = matrix_ring(zmod(2), 2)
        assert not is_uniquely_pi_clean(m2)
        assert is_clean(m2)

    def test_zmod6_strongly_clean(self):
        assert is_clean(zmod(6))
        assert is_strongly_clean(zmod(6))


class TestStructuralPredicates:
    def test_exchange_everywhere(self, catalog_rings):
        assert all(is_exchange(r) for r in catalog_rings)

    def test_strongly_pi_regular_everywhere(self, catalog_rings):
        assert all(is_strongly_pi_regular(r) for r in catalog_rings)

    def test_periodic_everywhere(self, catalog_rings):
        assert all(is_periodic(r) for r in catalog_rings)

    def test_abelian_examples(self):
        assert is_abelian(zmod(6))
        assert not is_abelian(matrix_ring(zmod(2), 2))
        assert not is_abelian(upper_triangular(zmod(2), 2))

    def test_potent_examples(self):
        assert is_potent_ring(zmod(6))
        assert not is_potent_ring(zmod(4))

    def test_potent_implies_commutative(self, catalog_rings):
        for ring in catalog_rings:
            if is_potent_ring(ring):
                assert is_commutative(ring)

    def test_boolean_and_local(self):
        assert is_boolean(zmod(2))
        assert not is_boolean(zmod(3))
        assert is_local(zmod(4))
        assert not is_local(zmod(6))
        assert not is_local(zmod(1))

    def test_potently_j_clean(self):
        assert is_potently_j_clean(zmod(4))
        assert is_potently_j_clean(zmod(6))
        m2 = matrix_ring(zmod(2), 2)
        # radical is zero, and nilpotent matrices are not potent
        assert not is_potently_j_clean(m2)


class TestUniquelyNilClean:
    def test_examples(self):
        assert is_uniquely_nil_clean_element(zmod(4), 2)
        assert is_uniquely_nil_clean_element(zmod(3), 1)
        assert not is_uniquely_nil_clean_element(zmod(6), 5)

    def test_ring_level_equals_abelian_periodic(self, catalog_rings):
        for ring in catalog_rings:
            assert is_uniquely_pi_nil_clean(ring) == (is_abelian(ring) and is_periodic(ring))


class TestGeneralizedNLike:
    def test_gf4_example_is_7_like(self):
        assert is_generalized_n_like(gf4_triangular_example(), 7)

    def test_boolean_ring_is_n_like_for_all_n(self):
        z2 = zmod(2)
        assert all(is_generalized_n_like(z2, n) for n in range(2, 10))

    def test_zmod4_n2_matches_integer_oracle(self):
        expected = all(
            ((a * b) ** 2 - a * b ** 2 - a ** 2 * b + a * b) % 4 == 0
            for a in range(4) for b in range(4)
        )
        assert is_generalized_n_like(zmod(4), 2) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            is_generalized_n_like(zmod(4), 1)
        with pytest.raises(ValueError):
            generalized_n_like_witness(zmod(3), 0)

    @pytest.mark.parametrize("block_cells", [None, 1, 50])
    def test_witnesses_match_reference(self, catalog_rings, monkeypatch, block_cells):
        # small blocks put block boundaries, and witnesses past the first
        # block, inside the catalog's orders
        if block_cells is not None:
            monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", block_cells)
        # reversed labels move zero and one off indices 0 and 1
        rings = catalog_rings + [r.relabeled(range(r.order - 1, -1, -1)) for r in catalog_rings]
        for ring in rings:
            for n in GENERALIZED_RANGE:
                assert generalized_n_like_witness(ring, n) == reference_n_like_witness(ring, n), \
                    (ring.label, n)

    def test_witness_past_the_first_block(self):
        # GF(8) x GF(8) is 8-like and Z/3 is not, so at n = 8 every row whose
        # Z/3 coordinate is 0 or 1 holds, and the first failing row is 2 * 64
        ring = parse_ring_source("product:zmod3,product:gf8,gf8")
        first_rows = core._ROW_BLOCK_CELLS // 16 // ring.order
        witness = generalized_n_like_witness(ring, 8)
        assert witness == reference_n_like_witness(ring, 8)
        assert witness[0] >= first_rows > 0

    def test_one_scan_per_difference_vector(self, monkeypatch):
        scans = []

        def counted(ring, d):
            scans.append(ring.label)
            return scan(ring, d)

        scan = predicates._n_like_scan
        monkeypatch.setattr(predicates, "_n_like_scan", counted)
        # x^n = x in a Boolean ring, so d = 0 for every n; in Z/3, x^n - x
        # is x^3 - x = 0 for odd n and x^2 - x for even n
        for ring, distinct in ((parse_ring_source("product:" * 6 + "gf2" + ",gf2" * 6), 1),
                               (zmod(3), 2)):
            scans.clear()
            witnesses = [generalized_n_like_witness(ring, n) for n in GENERALIZED_RANGE]
            assert len(scans) == distinct, ring.label
            assert witnesses == [reference_n_like_witness(ring, n) for n in GENERALIZED_RANGE]

    def test_one_power_chain_per_ring(self, monkeypatch):
        # every n reads x^n from the power matrix: the only power gathers
        # are those of its one build, one per column past the first
        gathers = []

        def counted(mul, powers):
            gathers.append(len(mul))
            return step(mul, powers)

        step = core._next_powers
        monkeypatch.setattr(core, "_next_powers", counted)
        ring = parse_ring_source("matrix:zmod2:2")
        larger = (10, 13, 10 ** 12 + 7)
        witnesses = [generalized_n_like_witness(ring, n) for n in GENERALIZED_RANGE]
        built = len(gathers)  # counted before the matrix is read below
        assert built == ring.power_matrix().shape[1] - 1 > 0
        witnesses += [generalized_n_like_witness(ring, n) for n in larger]
        assert len(gathers) == built
        assert witnesses == [reference_n_like_witness(ring, n)
                             for n in (*GENERALIZED_RANGE, *larger)]
        for m in (6, 12):
            assert generalized_n_like_witness(zmod(m), 11) == zmod_n_like_witness(m, 11), m

    def test_powers_past_the_chain_match_repeated_squaring(self, catalog_rings):
        for ring in catalog_rings:
            for n in (*range(2, 45), 10 ** 12 + 7):
                assert predicates._nth_powers(ring, n).tolist() == \
                    [ring.pow(x, n) for x in range(ring.order)], (ring.label, n)

    def test_huge_exponent_takes_no_time_linear_in_n(self):
        def expected(n):  # Z/12 in Python integers, with modular powers
            return next(((a, b) for a in range(12) for b in range(12) if (
                pow(a * b, n, 12) - a * pow(b, n, 12) - pow(a, n, 12) * b + a * b) % 12), None)

        for n in (10 ** 5, 10 ** 18 + 1):
            started = time.perf_counter()
            assert generalized_n_like_witness(zmod(12), n) == expected(n), n
            assert time.perf_counter() - started < 0.1, n

    @pytest.mark.parametrize("q", SUPPORTED_FIELD_ORDERS)
    def test_field_closed_form(self, q):
        # in a field the identity is (a^n - a)(b^n - b) = 0, i.e. x^n = x for all x
        for n in GENERALIZED_RANGE:
            assert is_generalized_n_like(gf(q), n) == ((n - 1) % (q - 1) == 0), n

    def test_zmod_witnesses_match_integer_oracle(self):
        for m in range(1, 41):
            for n in GENERALIZED_RANGE:
                assert generalized_n_like_witness(zmod(m), n) == zmod_n_like_witness(m, n), (m, n)


class TestSplitCounts:
    def test_matches_one_gather_over_parts(self, catalog_rings):
        # the old formula: per a, gather a - p for every p in parts; the
        # scan gathers over the complement instead when it is the smaller set
        sides = set()
        rings = catalog_rings + [r.relabeled(range(r.order - 1, -1, -1)) for r in catalog_rings]
        for ring in rings:
            complements = (subsets._units_mask(ring), subsets._nilpotent_mask(ring),
                           jacobson_radical(ring).mask())
            parts_list = (subsets._idempotent_array(ring),
                          np.flatnonzero(subsets._potent_mask(ring)), np.arange(ring.order))
            for complement in complements:
                for parts in parts_list:
                    expected = complement[ring.add_table[:, ring.neg_table[parts]]].sum(axis=1)
                    np.testing.assert_array_equal(
                        predicates._split_counts(ring, complement, parts), expected)
                    sides.add(int(complement.sum()) < len(parts))
        assert sides == {False, True}


class TestIdempotentLifting:
    def test_zmod4_lifts_mod_radical(self):
        z4 = zmod(4)
        j = jacobson_radical(z4)
        assert idempotents_lift_mod(z4, j)
        assert idempotents_lift_uniquely_mod(z4, j)

    def test_zero_ideal_lifts_trivially(self, catalog_rings):
        for ring in catalog_rings[:15]:
            zero = Ideal(ring, (ring.zero,))
            assert idempotents_lift_mod(ring, zero)
            assert idempotents_lift_uniquely_mod(ring, zero)

    def test_non_unique_lifting_detected(self):
        t2 = upper_triangular(zmod(2), 2)
        j = jacobson_radical(t2)
        assert idempotents_lift_mod(t2, j)
        assert not idempotents_lift_uniquely_mod(t2, j)


class TestRadicalUnitSet:
    def test_examples(self):
        assert radical_unit_set(zmod(4)) == (0, 2)
        assert radical_unit_set(zmod(3)) == (0,)
        assert radical_unit_set(zmod(6)) == (0,)

    def test_equals_radical_on_uniquely_pi_clean(self, catalog_rings):
        for ring in catalog_rings:
            if is_uniquely_pi_clean(ring):
                assert radical_unit_set(ring) == jacobson_radical(ring).members


class TestCharacterizations:
    def test_spot_examples(self):
        assert characterization(zmod(3), "T2.8")
        assert characterization(zmod(4), "C2.9")
        assert not characterization(matrix_ring(zmod(2), 2), "T4.7-2")

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            characterization(zmod(4), "T9.9")

    @pytest.mark.parametrize("tid", [t for t in CHARACTERIZATION_IDS
                                     if t not in ("C2.9", "C3.4", "C2.12", "C3.10-set")])
    def test_uniquely_pi_clean_equivalences(self, tid, catalog_rings):
        for ring in catalog_rings:
            assert characterization(ring, tid) == is_uniquely_pi_clean(ring), \
                f"{tid} disagrees on {ring.label}"

    @pytest.mark.parametrize("tid", ["C2.9", "C3.4"])
    def test_uniquely_clean_equivalences(self, tid, catalog_rings):
        for ring in catalog_rings:
            assert characterization(ring, tid) == is_uniquely_clean(ring), \
                f"{tid} disagrees on {ring.label}"

    def test_local_ring_equivalence_c212(self, catalog_rings):
        locals_seen = 0
        for ring in catalog_rings:
            if is_local(ring):
                locals_seen += 1
                assert characterization(ring, "C2.12") == is_uniquely_pi_clean(ring)
        assert locals_seen >= 10

    def test_c310_set_under_hypotheses(self, catalog_rings):
        checked = 0
        for ring in catalog_rings:
            sp = spectrum(ring)
            if is_uniquely_pi_clean(ring) and \
                    {p.members for p in sp.prime} == {m.members for m in sp.maximal}:
                checked += 1
                assert characterization(ring, "C3.10-set")
        assert checked >= 30

    def test_local_uniquely_pi_clean_quotient_potent(self, catalog_rings):
        for ring in catalog_rings:
            if is_local(ring) and is_uniquely_pi_clean(ring):
                q = quotient_ring(ring, jacobson_radical(ring))
                assert is_potent_ring(q)


class TestImplications:
    def test_battery(self, catalog_rings):
        for ring in catalog_rings:
            upc = is_uniquely_pi_clean(ring)
            if upc:
                assert is_abelian(ring) and is_exchange(ring)
                assert is_strongly_clean(ring)
            if is_uniquely_clean(ring):
                assert upc
            if is_abelian(ring) and is_potently_j_clean(ring):
                assert upc
            if any(is_generalized_n_like(ring, n) for n in range(2, 10)):
                assert upc
            if is_potently_j_clean(ring):
                assert is_exchange(ring)

    def test_finite_scale_collapse(self, catalog_rings):
        for ring in catalog_rings:
            assert is_uniquely_pi_clean(ring) == is_abelian(ring)


class TestPredicateVector:
    def test_reevaluation_reproduces_values(self):
        first = predicate_vector(zmod(6))
        again = predicate_vector(zmod(6))  # memoised
        fresh = predicate_vector(zmod(6).relabeled(range(6)))
        assert first.values == again.values == fresh.values

    def test_witnesses_for_false_predicates(self):
        m2 = matrix_ring(zmod(2), 2)
        vec = predicate_vector(m2)
        assert not vec.values["abelian"]
        e, r = vec.witnesses["abelian"]
        assert m2.mul(e, e) == e and m2.mul(e, r) != m2.mul(r, e)
        a, b = vec.witnesses["commutative"]
        assert m2.mul(a, b) != m2.mul(b, a)

    def test_csv_projection_shape(self):
        vec = predicate_vector(zmod(5))
        header = vec.csv_header()
        row = vec.csv_row()
        assert len(header) == len(row)
        assert header[0] == "ring" and row[0] == "Z/5"

    def test_uniquely_clean_witness_is_minimal(self):
        vec = predicate_vector(zmod(3))
        assert vec.witnesses["uniquely_clean"] == (2,)
