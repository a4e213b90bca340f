"""Constructors, bimodule specs, ideal extensions, and the catalog."""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from ringlab import (
    BimoduleLawViolation,
    BimoduleSpec,
    ClosureViolation,
    FiniteRing,
    Ideal,
    NoIdentity,
    NotAnIdeal,
    NotDistributive,
    NotIdempotent,
    OrderCapExceeded,
    UnsupportedFieldOrder,
    corner,
    equal_diagonal_subring,
    gf,
    gf4_triangular_example,
    ideal_extension,
    idempotents,
    is_commutative,
    is_local,
    is_uniquely_pi_clean,
    jacobson_radical,
    matrix_ring,
    nilpotents,
    predicate_vector,
    product,
    quotient,
    quotient_ring,
    strict_upper_bimodule,
    units,
    upper_triangular,
    zmod,
    zn_alpha,
)
from ringlab import construct
from ringlab.construct import SUPPORTED_FIELD_ORDERS, T41_SPECS, _encode, build_from_provenance


# Closed forms over F_q, computed without the library.

def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)| = prod_{i<k} (q^k - q^i)."""
    out = 1
    for i in range(k):
        out *= q ** k - q ** i
    return out


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^k."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def matrix_idempotent_count(q: int, k: int) -> int:
    """An idempotent of M_k(F_q) is a projection: a rank-r image plus a
    complementary kernel, of which there are q^(r(k-r))."""
    return sum(gaussian_binomial(k, r, q) * q ** (r * (k - r)) for r in range(k + 1))


class TestBasicConstructors:
    def test_zmod(self):
        assert zmod(3).order == 3
        assert zmod(1).order == 1
        with pytest.raises(ValueError):
            zmod(0)

    def test_gf4(self):
        g = gf(4)
        assert g.order == 4
        assert len(units(g).members) == 3
        t, t1 = g.elem_names.index("t"), g.elem_names.index("t+1")
        assert g.mul(t, t1) == g.one

    def test_gf_prime_fields_match_zmod(self):
        for q in (2, 3, 5, 7):
            assert gf(q).table_bytes() == zmod(q).table_bytes()

    def test_gf8_gf9_are_fields(self):
        # every supported field has q - 1 units, GF(8) and GF(9) included
        for q in SUPPORTED_FIELD_ORDERS:
            assert len(units(gf(q)).members) == q - 1, q

    def test_unsupported_field_order(self):
        with pytest.raises(UnsupportedFieldOrder):
            gf(6)

    def test_zn_alpha(self):
        assert zn_alpha(2).table_bytes() == gf(4).table_bytes()
        za3 = zn_alpha(3)
        assert za3.order == 9 and is_commutative(za3) and is_uniquely_pi_clean(za3)
        za4 = zn_alpha(4)
        assert za4.order == 16 and is_commutative(za4)

    def test_product(self):
        pr = product(zmod(2), zmod(3))
        assert pr.order == 6
        assert is_uniquely_pi_clean(pr)
        with pytest.raises(OrderCapExceeded):
            product(zmod(100), zmod(100), order_cap=4096)


class TestMatrixShapedRings:
    def test_matrix_ring_m2z2(self):
        m2 = matrix_ring(zmod(2), 2)
        assert m2.order == 16
        assert len(units(m2).members) == 6
        assert m2.name_of(m2.one) == "[[1,0],[0,1]]"

    def test_matrix_ring_counts_match_formulas(self):
        # |GL2(Fq)| = (q^2-1)(q^2-q); idempotent count is 2 + q^2 + q;
        # M_k(F_q) has q^(k^2-k) nilpotents (Fine & Herstein, 1958)
        for q, k in ((2, 1), (2, 2), (3, 2), (4, 2)):
            mk = matrix_ring(gf(q), k)
            assert len(units(mk).members) == gl_order(q, k)
            assert len(idempotents(mk).members) == matrix_idempotent_count(q, k)
            assert len(nilpotents(mk).members) == q ** (k * k - k)
        for q in (2, 3):
            assert matrix_idempotent_count(q, 2) == 2 + q * q + q

    def test_matrix_multiplication_spot_check(self):
        m2 = matrix_ring(zmod(3), 2)

        def idx(a, b, c, d):
            return m2.elem_names.index(f"[[{a},{b}],[{c},{d}]]")

        # [[1,2],[0,1]] * [[2,0],[1,1]] = [[4,2],[1,1]] = [[1,2],[1,1]] mod 3
        assert m2.mul(idx(1, 2, 0, 1), idx(2, 0, 1, 1)) == idx(1, 2, 1, 1)

    def test_upper_triangular(self):
        t2 = upper_triangular(zmod(2), 2)
        assert t2.order == 8
        t3 = upper_triangular(zmod(3), 2)
        assert t3.order == 27
        assert not is_uniquely_pi_clean(t2)

    def test_triangular_radical_is_strict_upper_part(self):
        # |J(T_k(F_q))| = q^(k(k-1)/2)
        for q, k in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3)):
            assert len(jacobson_radical(upper_triangular(gf(q), k)).members) == q ** (k * (k - 1) // 2)

    def test_equal_diagonal(self):
        ed = equal_diagonal_subring(zmod(2), 2)
        assert ed.order == 4
        assert is_commutative(ed) and is_local(ed)
        # isomorphic to Z/2[x]/(x^2): two nilpotents, two units
        assert len(nilpotents(ed).members) == 2
        assert len(units(ed).members) == 2
        assert equal_diagonal_subring(zmod(3), 2).order == 9
        assert is_uniquely_pi_clean(equal_diagonal_subring(zmod(3), 2))
        assert equal_diagonal_subring(zmod(2), 3).order == 16
        # local with residue field F_q: (q-1) q^(k(k-1)/2) units
        for q, k in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)):
            ed = equal_diagonal_subring(gf(q), k)
            assert len(units(ed).members) == (q - 1) * q ** (k * (k - 1) // 2)

    def test_matrix_family_closure_is_checked(self):
        from ringlab.construct import _matrix_ring
        with pytest.raises(ClosureViolation):
            _matrix_ring("off-diagonal", zmod(2), 2, [(0, 1), (1, 0)])
        # the showcase with its Frobenius tie replaced by a non-multiplicative map
        f = gf(4)
        homes = [(0, 0), (0, 1), (0, 2)]
        not_frobenius = np.array([0, 1, 2, 2])
        with pytest.raises(ClosureViolation):
            _matrix_ring("bad tie", f, 3, homes,
                         [((1, 1), 0, not_frobenius), ((2, 2), 0, np.arange(4))])

    def test_matrix_family_sums_are_checked(self):
        from ringlab.construct import _matrix_ring
        # [[a, b], [0, a^2]] over Z/3: squaring is multiplicative, not additive
        with pytest.raises(ClosureViolation):
            _matrix_ring("sq-tie", zmod(3), 2, [(0, 0), (0, 1)],
                         [((1, 1), 0, np.array([0, 1, 1]))])

    def test_matrix_family_identity_is_checked(self):
        from ringlab.construct import _matrix_ring
        # [[a, b], [0, 0]] is closed under both operations but has no identity
        with pytest.raises(NoIdentity):
            _matrix_ring("row", zmod(2), 2, [(0, 0), (0, 1)])

    def test_order_caps(self):
        with pytest.raises(OrderCapExceeded):
            matrix_ring(zmod(9), 2)
        with pytest.raises(OrderCapExceeded):
            equal_diagonal_subring(zmod(2), 5, order_cap=512)


class TestCornerAndQuotient:
    def test_corner_of_product_projection(self):
        pr = product(zmod(2), zmod(3))
        e = next(i for i in idempotents(pr).members if pr.name_of(i) == "(1,0)")
        c = corner(pr, e)
        assert c.table_bytes() == zmod(2).table_bytes()

    def test_corner_requires_idempotent(self):
        with pytest.raises(NotIdempotent):
            corner(zmod(4), 2)

    def test_corner_trivial_cases(self):
        z6 = zmod(6)
        assert corner(z6, z6.one).table_bytes() == z6.table_bytes()
        assert corner(z6, 0).order == 1

    def test_quotient_z12_by_six(self):
        q = quotient(zmod(12), (0, 6))
        assert q.order == 6
        assert q.table_bytes() == zmod(6).table_bytes()
        assert predicate_vector(q).values == predicate_vector(zmod(6)).values

    def test_subring_rejects_non_closed_set(self):
        z6 = zmod(6)
        with pytest.raises(ClosureViolation):
            z6.subring([0, 1, 2], 1, "not closed under +")
        with pytest.raises(ClosureViolation):
            z6.subring([0, 2, 4], 1, "misses its identity")
        assert z6.subring([0, 3], 3, "e3 Z/6 e3").order == 2

    def test_subring_checks_its_identity(self):
        z6 = zmod(6)
        # closed under + and *, but 2*2 = 4
        with pytest.raises(NoIdentity):
            z6.subring([0, 2, 4], 2, "2 fixes no member but 0")
        assert z6.subring([0, 2, 4], 4, "e4 Z/6 e4").table_bytes() == zmod(3).table_bytes()

    @pytest.mark.parametrize("members, one", [([-3, 0], 3), ([0, 3], -3), ([0, 3, 6], 3)])
    def test_subring_rejects_out_of_range_indices(self, members, one):
        # -3 would otherwise wrap round to 3, and {0, 3} is a subring of Z/6
        with pytest.raises(ClosureViolation, match="out of range"):
            zmod(6).subring(members, one, "x")

    def test_quotient_rejects_non_ideal(self):
        with pytest.raises(NotAnIdeal):
            quotient(zmod(12), (0, 5))

    def test_quotient_checks_the_ring_it_is_given(self):
        # (0, 2, 4) is an ideal of Z/6, but not of Z/12: 2 + 4 = 6
        with pytest.raises(NotAnIdeal):
            quotient(zmod(12), Ideal(zmod(6), (0, 2, 4)))
        z6 = zmod(6)
        with pytest.raises(NotAnIdeal):
            quotient_ring(z6, Ideal(z6, (0, 2)))  # 2 + 2 = 4


def _set_cell(table: np.ndarray, value: int) -> np.ndarray:
    out = table.copy()
    out[1, 1] = value
    return out


class TestBimoduleSpecs:
    def test_strict_upper_bimodule_validates(self):
        spec = strict_upper_bimodule(zmod(2), 2)
        spec.validate()
        assert spec.s_order == 2
        assert spec.s_is_idempotent_free()
        assert spec.s_has_quasi_inverses()
        assert spec.idempotents_act_centrally()

    def test_named_specs_validate_and_target_one_condition(self):
        conds_of = {}
        for name, (builder, broken) in T41_SPECS.items():
            spec = builder()
            spec.validate()
            conds_of[name] = {
                "base ring uniquely pi-clean": is_uniquely_pi_clean(spec.base),
                "idempotents act centrally": spec.idempotents_act_centrally(),
                "quasi-inverses in S": spec.s_has_quasi_inverses(),
            }
        base = conds_of["t41-base"]
        assert all(base.values())
        for name, (_, broken) in T41_SPECS.items():
            if broken is None:
                continue
            flipped = [k for k, v in conds_of[name].items() if v != base[k]]
            assert flipped == [broken], name

    def test_law_violation_detected(self):
        spec = strict_upper_bimodule(zmod(3), 2)
        bad_left = spec.left.copy()
        bad_left[2, 1] = 0  # 2*s = 0 while 1*s + 1*s = 2s: breaks additivity in R
        broken = BimoduleSpec(spec.label, spec.base, spec.s_add, spec.s_mul, bad_left, spec.right)
        with pytest.raises(NotDistributive) as err:
            ideal_extension(broken)
        assert err.value.witness

    def test_actions_shifted_by_an_element_of_order_2_rejected(self):
        # s1s2 + r1s2 + s1r2 is unchanged when one t = -t is added to every
        # entry of both actions, so the tables of R x S cannot see the shift
        spec = T41_SPECS["t41-base"][0]()
        shifted = replace(spec, left=spec.s_add[spec.left, 1], right=spec.s_add[spec.right, 1])
        with pytest.raises(BimoduleLawViolation):
            ideal_extension(shifted)

    def test_lawful_spec_without_identity_action_rejected_at_extension(self):
        # the zero action satisfies every bimodule law, but the extension then
        # has no multiplicative identity and must fail ring validation
        spec = strict_upper_bimodule(zmod(2), 2)
        zero_left = np.zeros_like(spec.left)
        zero_right = np.zeros_like(spec.right)
        lawful = BimoduleSpec("zero-action", spec.base, spec.s_add, spec.s_mul,
                              zero_left, zero_right)
        lawful.validate()
        from ringlab import NoIdentity
        with pytest.raises(NoIdentity):
            ideal_extension(lawful)

    def test_shape_mismatch_rejected(self):
        spec = strict_upper_bimodule(zmod(2), 2)
        with pytest.raises(BimoduleLawViolation):
            BimoduleSpec(spec.label, spec.base, spec.s_add, spec.s_mul,
                         spec.left[:1], spec.right).validate()

    @pytest.mark.parametrize("malform", [
        lambda s: replace(s, s_mul=_set_cell(s.s_mul, 2)),
        lambda s: replace(s, left=_set_cell(s.left, 2)),
        lambda s: replace(s, right=_set_cell(s.right, 2)),
        lambda s: replace(s, s_mul=_set_cell(s.s_mul, -1)),
        lambda s: replace(s, left=_set_cell(s.left, -1)),
        lambda s: replace(s, s_add=s.s_add.tolist(), s_mul=s.s_mul.tolist()),
        lambda s: replace(s, left=s.left.tolist()),
        lambda s: replace(s, s_mul=s.s_mul.astype(float)),
        lambda s: replace(s, s_mul=s.s_mul[:, :1]),
    ], ids=["s_mul-too-big", "left-too-big", "right-too-big", "s_mul-negative",
            "left-negative", "list-s-tables", "list-left", "float-s_mul", "non-square-s_mul"])
    def test_malformed_spec_rejected(self, malform):
        spec = malform(strict_upper_bimodule(zmod(2), 2))
        with pytest.raises(BimoduleLawViolation):
            spec.validate()
        with pytest.raises(BimoduleLawViolation):
            ideal_extension(spec)


class TestIdealExtension:
    def test_base_extension_is_uniquely_pi_clean(self):
        spec = T41_SPECS["t41-base"][0]()
        ext = ideal_extension(spec)
        assert ext.order == 4
        assert is_uniquely_pi_clean(ext)
        assert spec.s_is_idempotent_free()

    def test_zero_bimodule_gives_base_back(self):
        base = zmod(6)
        spec = BimoduleSpec("0", base,
                            np.zeros((1, 1), dtype=np.int32), np.zeros((1, 1), dtype=np.int32),
                            np.zeros((6, 1), dtype=np.int32), np.zeros((1, 6), dtype=np.int32))
        ext = ideal_extension(spec)
        assert ext.table_bytes() == base.table_bytes()

    def test_equal_diagonal_matches_extension_by_strict_uppers(self):
        for base, k in ((zmod(2), 2), (zmod(3), 2), (zmod(2), 3)):
            ed = equal_diagonal_subring(base, k)
            ext = ideal_extension(strict_upper_bimodule(base, k))
            assert ed.order == ext.order
            assert len(units(ed).members) == len(units(ext).members)
            assert len(idempotents(ed).members) == len(idempotents(ext).members)
            assert predicate_vector(ed).values == predicate_vector(ext).values


class TestGf4Example:
    def test_shape_and_classification(self):
        g = gf4_triangular_example()
        assert g.order == 64
        assert not is_commutative(g)
        assert is_uniquely_pi_clean(g)
        for a in range(64):
            assert g.pow(a, 7) == a or g.pow(a, 2) == g.zero

    def test_validates(self):
        g = gf4_triangular_example()
        FiniteRing.from_tables(g.label, g.add_table, g.mul_table, g.zero, g.one)


class TestCatalog:
    def test_size_and_contents(self, catalog):
        assert len(catalog) >= 40
        provs = {e.provenance for e in catalog}
        assert {"zmod:3", "gf:4", "matrix:zmod2:2", "paper:gf4-example",
                "extension:t41-base", "zn-alpha:3"} <= provs

    def test_sources_are_distinct_and_cover_the_expectations(self, catalog):
        sources = construct.CATALOG_SOURCES
        assert len(set(sources)) == len(sources)
        assert set(construct.CATALOG_EXPECTED) <= set(sources)
        assert [e.provenance for e in catalog[:len(sources)]] == list(sources)
        assert all(e.expected == construct.CATALOG_EXPECTED.get(e.provenance) for e in catalog)

    def test_contains_nonabelian_and_noncommutative_upc(self, catalog):
        by_prov = {e.provenance: e.ring for e in catalog}
        m2 = by_prov["matrix:zmod2:2"]
        from ringlab import is_abelian
        assert not is_abelian(m2)
        showcase = by_prov["paper:gf4-example"]
        assert is_uniquely_pi_clean(showcase) and not is_commutative(showcase)

    def test_expected_classifications_hold(self, catalog):
        for entry in catalog:
            if not entry.expected:
                continue
            vec = predicate_vector(entry.ring)
            for name, (value, _why) in entry.expected.items():
                assert vec.values[name] == value, (entry.provenance, name)

    def test_every_entry_revalidates(self, catalog):
        for entry in catalog:
            r = entry.ring
            FiniteRing.from_tables(r.label, r.add_table, r.mul_table, r.zero, r.one)

    def test_provenance_reexecutes_byte_identically(self, catalog):
        for entry in catalog:
            rebuilt = build_from_provenance(entry.provenance)
            assert rebuilt.table_bytes() == entry.ring.table_bytes(), entry.provenance

    def test_catalog_deterministic(self, catalog):
        from ringlab import default_catalog
        again = default_catalog()
        assert [e.provenance for e in again] == [e.provenance for e in catalog]
        for a, b in zip(again, catalog):
            assert a.ring.table_bytes() == b.ring.table_bytes()

    def test_no_byte_duplicates(self, catalog):
        seen = {}
        for e in catalog:
            key = e.ring.table_bytes()
            # explicit entries may duplicate each other (gf:2 vs zmod:2);
            # derived corner/quotient entries must not duplicate anything
            if e.provenance.startswith(("corner:", "jquot:")):
                assert key not in seen, (e.provenance, seen.get(key))
            seen.setdefault(key, e.provenance)


# ---------------------------------------------------------------------------
# matrix tables against plain matrix arithmetic, sharing no code with the builder


def _entries(ring: FiniteRing, base: FiniteRing, k: int) -> np.ndarray:
    """Each element's k x k entries as base indices, parsed from its name."""
    pos = {name: i for i, name in enumerate(base.elem_names)}
    out = np.empty((ring.order, k, k), dtype=np.int64)
    for x, name in enumerate(ring.elem_names):
        rows = name[2:-2].split("],[")
        out[x] = [[pos[entry] for entry in row.split(",")] for row in rows]
    return out


def _lookup_by_name(ring: FiniteRing, base: FiniteRing, matrices: np.ndarray) -> np.ndarray:
    """The index of the element named by each k x k matrix of base indices."""
    k = matrices.shape[-1]
    names = np.asarray(base.elem_names, dtype=object)[matrices]
    rows = ["[" + functools.reduce(lambda a, b: a + "," + b, [names[..., r, c] for c in range(k)])
            + "]" for r in range(k)]
    text = "[" + functools.reduce(lambda a, b: a + "," + b, rows) + "]"
    index = {name: i for i, name in enumerate(ring.elem_names)}
    return np.array([index[t] for t in np.ravel(text)]).reshape(text.shape)


@pytest.mark.parametrize("source, base, k", [
    ("matrix:zmod3:2", zmod(3), 2),
    ("tri:zmod2:3", zmod(2), 3),
    ("eqdiag:gf4:2", gf(4), 2),
    ("paper:gf4-example", gf(4), 3),
    pytest.param("matrix:gf4:2", gf(4), 2, marks=pytest.mark.large),
])
def test_matrix_tables_match_matrix_arithmetic(source, base, k):
    ring = build_from_provenance(source)
    entries = _entries(ring, base, k)
    np.testing.assert_array_equal(entries[ring.zero], np.full((k, k), base.zero))
    np.testing.assert_array_equal(entries[ring.one], np.where(np.eye(k), base.one, base.zero))
    a, b = entries[:, None], entries[None, :]  # left and right operand of every pair
    sums = base.add_table[a, b]
    products = np.empty_like(sums)
    for r in range(k):
        for c in range(k):
            cell = np.full(sums.shape[:2], base.zero, dtype=np.int64)
            for mid in range(k):
                cell = base.add_table[cell, base.mul_table[a[..., r, mid], b[..., mid, c]]]
            products[..., r, c] = cell
    np.testing.assert_array_equal(_lookup_by_name(ring, base, sums), ring.add_table)
    np.testing.assert_array_equal(_lookup_by_name(ring, base, products), ring.mul_table)


def test_encode_leaves_its_digits_unchanged():
    digits = [np.arange(12, dtype=np.int32).reshape(3, 4) % q for q in (3, 2, 3)]
    before = [d.copy() for d in digits]
    index = _encode(iter(digits), 3)
    assert index.dtype == np.int32
    assert all(index is not d for d in digits)
    np.testing.assert_array_equal(index, (before[0] * 3 + before[1]) * 3 + before[2])
    for d, copy in zip(digits, before):
        np.testing.assert_array_equal(d, copy)


@pytest.mark.parametrize("source", ["tri:zmod2:3", "eqdiag:gf4:2", "paper:gf4-example"])
def test_matrix_builds_leave_encoded_digits_unchanged(source, monkeypatch):
    # every digit table a build folds, the cells and the held tie tables among
    # them, must read the same after the fold as before it
    folded = []

    def checked(digits, q):
        digits = list(digits)
        copies = [np.copy(d) for d in digits]
        index = _encode(iter(digits), q)
        folded.append((digits, copies))
        return index

    monkeypatch.setattr(construct, "_encode", checked)
    build_from_provenance(source)
    assert folded
    for digits, copies in folded:
        for d, copy in zip(digits, copies):
            np.testing.assert_array_equal(d, copy)
