"""Ring table validation, element arithmetic, power trails, serialization."""

from __future__ import annotations

import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from ringlab import (
    Elem,
    FiniteRing,
    NoIdentity,
    NonAssociativeMul,
    NotAbelianGroupUnderAdd,
    NotDistributive,
    OrderCapExceeded,
    RingMismatch,
    RingValidationError,
    load_ring_json,
    matrix_ring,
    product,
    zmod,
)
from ringlab import core, predicates, subsets
from ringlab.core import _check_quadratic_axioms, _first_mismatch, validate_tables
from ringlab.sources import parse_ring_source


def modular_tables(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n


class TestValidation:
    def test_zmod4_tables_valid(self):
        add, mul = modular_tables(4)
        ring = FiniteRing.from_tables("Z/4", add, mul, 0, 1)
        assert ring.order == 4

    def test_zero_ring_valid(self):
        ring = FiniteRing.from_tables("0", [[0]], [[0]], 0, 0)
        assert ring.order == 1 and ring.zero == ring.one == 0

    def test_corrupted_zmod6_mul_rejected_with_witness(self):
        add, mul = modular_tables(6)
        mul = mul.copy()
        assert mul[2][3] == 0
        mul[2][3] = 1
        with pytest.raises((NotDistributive, NonAssociativeMul)) as exc:
            FiniteRing.from_tables("Z/6-broken", add, mul, 0, 1)
        assert len(exc.value.witness) >= 2

    def test_zero_one_collision_rejected(self):
        add, mul = modular_tables(4)
        with pytest.raises(RingValidationError):
            FiniteRing.from_tables("bad", add, mul, 0, 0)

    def test_out_of_range_entry(self):
        add, mul = modular_tables(3)
        add = add.copy()
        add[1][1] = 7
        with pytest.raises(RingValidationError):
            FiniteRing.from_tables("bad", add, mul, 0, 1)

    def test_broken_identity(self):
        add, mul = modular_tables(4)
        mul = mul.copy()
        mul[1][2] = 3
        with pytest.raises((NoIdentity, NotDistributive, NonAssociativeMul)):
            FiniteRing.from_tables("bad", add, mul, 0, 1)

    def test_non_commutative_add(self):
        add, mul = modular_tables(4)
        add = add.copy()
        add[1][2] = 0
        with pytest.raises(NotAbelianGroupUnderAdd):
            FiniteRing.from_tables("bad", add, mul, 0, 1)

    def test_order_cap(self):
        # the loader checks its cap before it validates; from_tables has none
        doc = zmod(8).to_json()
        with pytest.raises(OrderCapExceeded, match="ring order 8 exceeds cap 4"):
            load_ring_json(doc, order_cap=4)
        assert load_ring_json(doc, order_cap=8).order == 8


class TestCorruptionSweep:
    """Any single-entry corruption of a catalog table is rejected, or the
    mutated tables happen to form a valid ring again (decided by the same
    exact validation)."""

    N_CORRUPT = 1000

    def test_catalog_accepts_and_corruptions_reject(self, catalog):
        rng = np.random.default_rng(20240817)
        for entry in catalog:
            ring = entry.ring
            n = ring.order
            validate_tables(ring.add_table, ring.mul_table, ring.zero, ring.one, n)
            if n == 1:
                continue
            for table_name in ("add_table", "mul_table"):
                base = getattr(ring, table_name)
                coords = rng.integers(0, n, size=(self.N_CORRUPT, 2))
                bumps = rng.integers(1, n, size=self.N_CORRUPT)
                rejected = 0
                for (i, j), bump in zip(coords, bumps):
                    mutated = base.copy()
                    mutated[i, j] = (mutated[i, j] + bump) % n
                    add = mutated if table_name == "add_table" else ring.add_table
                    mul = mutated if table_name == "mul_table" else ring.mul_table
                    try:
                        validate_tables(add, mul, ring.zero, ring.one, n)
                        # allowed but very rare: the corruption landed on
                        # another valid ring; the scan above re-verified it
                    except RingValidationError as err:
                        assert err.axiom
                        rejected += 1
                assert rejected >= 0.99 * self.N_CORRUPT, (entry.provenance, table_name)


def _outcome(check, *args):
    """(type, message, witness) of the error a check raises, or None."""
    try:
        check(*args)
    except RingValidationError as err:
        return type(err), str(err), err.witness
    return None


def _full_scan(add: np.ndarray, mul: np.ndarray) -> None:
    """Check distributivity and both associativities on every triple.

    The laws are checked in a fixed order, each over every first index a
    before the next law starts, so a rejection names the first failing law
    and its lexicographically least witness (a, b, c).
    """
    laws = (
        (lambda a: mul[add[a], :], lambda a: add[mul[a, None, :], mul], NotDistributive,
         "right: (x{0}+x{1})*x{2} != x{0}*x{2} + x{1}*x{2}"),
        (lambda a: mul[a, add], lambda a: add[mul[a, :, None], mul[a, None, :]], NotDistributive,
         "left: x{0}*(x{1}+x{2}) != x{0}*x{1} + x{0}*x{2}"),
        (lambda a: add[add[a], :], lambda a: add[a, add], NotAbelianGroupUnderAdd,
         "(x{0}+x{1})+x{2} != x{0}+(x{1}+x{2})"),
        (lambda a: mul[mul[a], :], lambda a: mul[a, mul], NonAssociativeMul,
         "(x{0}*x{1})*x{2} != x{0}*(x{1}*x{2})"),
    )
    for lhs, rhs, error, message in laws:
        for a in range(add.shape[0]):
            left, right = lhs(a), rhs(a)
            if not np.array_equal(left, right):
                witness = (a, *_first_mismatch(left, right))
                raise error(message.format(*witness), witness)


# each cubic law: its message, its error class, and whether it holds at one
# triple (a, b, c), read from the tables
_LAWS = (
    ("right: (x{0}+x{1})*x{2} != x{0}*x{2} + x{1}*x{2}", NotDistributive,
     lambda add, mul, a, b, c: mul[add[a, b], c] == add[mul[a, c], mul[b, c]]),
    ("left: x{0}*(x{1}+x{2}) != x{0}*x{1} + x{0}*x{2}", NotDistributive,
     lambda add, mul, a, b, c: mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]),
    ("(x{0}+x{1})+x{2} != x{0}+(x{1}+x{2})", NotAbelianGroupUnderAdd,
     lambda add, mul, a, b, c: add[add[a, b], c] == add[a, add[b, c]]),
    ("(x{0}*x{1})*x{2} != x{0}*(x{1}*x{2})", NonAssociativeMul,
     lambda add, mul, a, b, c: mul[mul[a, b], c] == mul[a, mul[b, c]]),
)


def _assert_matches_full_scan(add, mul, zero, one):
    """Validation gives the verdict of the full cubic scan, and a rejection
    names one cubic law, with that law's error class and a witness that
    breaks it."""
    add, mul = np.asarray(add, dtype=np.int32), np.asarray(mul, dtype=np.int32)
    _check_quadratic_axioms(add, mul, zero, one)
    reference = _outcome(_full_scan, add, mul)
    outcome = _outcome(validate_tables, add, mul, zero, one, add.shape[0])
    assert (outcome is None) == (reference is None), (outcome, reference)
    if outcome is not None:
        error, message, witness = outcome
        named = [(cls, holds) for text, cls, holds in _LAWS if message == text.format(*witness)]
        assert len(named) == 1, message
        (cls, holds), = named
        assert error is cls and not holds(add, mul, *witness), message
    return outcome


def _sweep_corruptions(base, rng, count):
    """Validate ``count`` one-cell corruptions of a ring's tables (of + alone,
    of + at a cell and its mirror, of *) against the full scan; returns how
    many passed the O(n^2) checks and how many of those were rejected."""
    n = base.order
    checked = rejected = 0
    kinds = ("add", "symmetric add", "mul")
    for kind in (kinds * count)[:count]:
        add, mul = base.add_table.copy(), base.mul_table.copy()
        table = mul if kind == "mul" else add
        i, j = rng.integers(0, n, size=2)
        table[i, j] = (table[i, j] + rng.integers(1, n)) % n
        if kind == "symmetric add":
            table[j, i] = table[i, j]
        try:
            _check_quadratic_axioms(add, mul, base.zero, base.one)
        except RingValidationError:
            continue
        checked += 1
        rejected += _assert_matches_full_scan(add, mul, base.zero, base.one) is not None
    return checked, rejected


def bilinear_algebra(k, seed):
    """GF(2)^k under xor, with a product bilinear in random structure
    constants and the first basis vector (index 1) as identity: distributive,
    and for most seeds not associative."""
    n = 1 << k
    consts = np.random.default_rng(seed).integers(0, n, size=(k, k))
    consts[0, :] = consts[:, 0] = 1 << np.arange(k)
    idx = np.arange(n)
    bits = (idx[:, None] >> np.arange(k)) & 1
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mul ^= np.outer(bits[:, i], bits[:, j]) * consts[i, j]
    return idx[:, None] ^ idx[None, :], mul


def _additive_span(ring, gens):
    """Every sum of generators, by a plain breadth-first closure."""
    span, frontier = {ring.zero}, [ring.zero]
    while frontier:
        frontier = [ring.add(x, int(g)) for x in frontier for g in gens
                    if ring.add(x, int(g)) not in span]
        span.update(frontier)
    return span


class TestGeneratorCheck:
    """The check on an additive generating set gives the verdict of the full
    scan, and a rejection's witness breaks the law its message names."""

    N_CORRUPT = 4

    def test_agrees_with_full_scan_on_catalog_corruptions(self, catalog_rings):
        rng = np.random.default_rng(20261018)
        checked = rejected = 0
        for ring in catalog_rings:
            n = ring.order
            relabeled = ring.relabeled(rng.permutation(n))
            for base in (ring, relabeled):
                assert _assert_matches_full_scan(base.add_table, base.mul_table,
                                                 base.zero, base.one) is None
                if n == 1:
                    continue
                swept = _sweep_corruptions(base, rng, 3 * self.N_CORRUPT)
                checked, rejected = checked + swept[0], rejected + swept[1]
        assert checked > 500 and rejected > 0.9 * checked

    def test_agrees_with_full_scan_past_the_first_block(self, catalog_rings, monkeypatch):
        # blocks of a few rows put most failures past the first block
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", 50)
        rng = np.random.default_rng(20261020)
        swept = [_sweep_corruptions(ring.relabeled(rng.permutation(ring.order)), rng, 12)
                 for ring in catalog_rings if ring.order > 1]
        assert sum(rejected for _, rejected in swept) > 300

    @pytest.mark.large
    @pytest.mark.parametrize("source", ["eqdiag:gf4:3", "matrix:zmod2:3", "matrix:gf4:2",
                                        "product:zmod4,zmod64"])
    def test_agrees_with_full_scan_on_large_corruptions(self, source):
        ring = parse_ring_source(source)
        rng = np.random.default_rng(ring.order)
        relabeled = ring.relabeled(rng.permutation(ring.order))
        checked, rejected = _sweep_corruptions(relabeled, rng, 20)
        assert checked > 10 and rejected == checked

    @staticmethod
    def _switched_latin_squares():
        # Z/64 with the intercalate {1, 33} x {1, 33} switched.
        z_add, z_mul = modular_tables(64)
        z_add = z_add.copy()
        z_add[1, 1] = z_add[33, 33] = 34
        z_add[1, 33] = z_add[33, 1] = 2
        # The Boolean ring GF(2)^6 (xor, and; identity 63) with the
        # intercalate {3, 15} x {3, 15} switched.  No switched cell lies in
        # the row of 0 or of a single bit, so distributivity over the
        # generators 1, 2, 4, ... and associativity on them still hold, and
        # only Light's test sees that + is not associative.
        idx = np.arange(64)
        b_add, b_mul = idx[:, None] ^ idx[None, :], idx[:, None] & idx[None, :]
        b_add[3, 3] = b_add[15, 15] = 12
        b_add[3, 15] = b_add[15, 3] = 0
        return [(z_add, z_mul, 1, (1, 1, 62)), (b_add, b_mul, 63, (2, 1, 3))]

    def test_rejects_non_associative_commutative_latin_square(self):
        for add, mul, one, (x, y, z) in self._switched_latin_squares():
            assert np.array_equal(add, add.T)
            assert (np.sort(add, axis=0) == np.arange(64)[:, None]).all()
            assert add[add[x, y], z] != add[x, add[y, z]]
            assert _assert_matches_full_scan(add, mul, 0, one) is not None

    def test_rejects_one_sided_distributivity(self):
        # The zero-preserving self-maps of Z/4, under pointwise + and
        # composition, form a near-ring of order 64: composition is
        # associative with the identity map as one, and distributes over +
        # on one side only.  Map f is index f(1) + 4 f(2) + 16 f(3).
        idx = np.arange(64)
        values = np.stack([0 * idx, idx % 4, idx // 4 % 4, idx // 16], axis=1)
        weights = np.array([0, 1, 4, 16])
        add = ((values[:, None, :] + values[None, :, :]) % 4) @ weights
        compose = values[idx[:, None, None], values[None, :, :]] @ weights  # f(g(x))
        for mul in (compose, compose.T):
            error, message, _ = _assert_matches_full_scan(add, mul, 0, 57)
            assert error is NotDistributive
            assert message.startswith("left" if mul is compose else "right")

    def test_rejects_non_associative_bilinear_product(self):
        add, mul = bilinear_algebra(6, seed=6)
        error, _, (a, b, c) = _assert_matches_full_scan(add, mul, 0, 1)
        assert error is NonAssociativeMul
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]

    def test_rejects_order_512_bilinear_product_quickly(self):
        # distributive but not associative, so a scan of every triple would
        # meet no failure before associativity of *
        add, mul = bilinear_algebra(9, seed=9)
        started = time.perf_counter()
        with pytest.raises(NonAssociativeMul) as exc:
            validate_tables(add, mul, 0, 1, 512)
        elapsed = time.perf_counter() - started
        a, b, c = exc.value.witness
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]
        assert elapsed < 1.0

    @pytest.mark.parametrize("ring, cell", [
        (zmod(12), (3, 4)),
        (product(zmod(4), zmod(9)), (10, 19)),
    ], ids=["order-12", "order-36"])
    def test_both_distributive_laws_fail_report_breaks_its_law(self, ring, cell):
        # A symmetric corruption of + that breaks left distributivity at a
        # smaller first index than right distributivity, and associativity
        # of + too.  The full scan names the right law; validation reports
        # the first failure in its own order, Light's test at the generator
        # 1, and its witness breaks the law it names.
        add, mul = ring.add_table.copy(), ring.mul_table
        add[cell] = add[cell[::-1]] = ring.zero
        right = mul[add, :] != add[mul[:, None, :], mul[None, :, :]]  # (a+b)*c
        left = mul[:, add] != add[mul[:, :, None], mul[:, None, :]]   # a*(b+c)
        assert np.argwhere(left)[0][0] < np.argwhere(right)[0][0]
        assert _outcome(_full_scan, add, mul)[1].startswith("right: ")
        error, _, witness = _assert_matches_full_scan(add, mul, ring.zero, ring.one)
        assert error is NotAbelianGroupUnderAdd and witness[1] == 1

    def test_generator_counts(self, catalog_rings):
        for n in (2, 12, 64, 81, 128):
            assert len(zmod(n).additive_generators()) == 1
        power = zmod(2)
        for k in range(1, 7):
            assert len(power.additive_generators()) == k
            power = product(power, zmod(2))
        assert len(matrix_ring(zmod(2), 3).additive_generators()) == 9
        for ring in catalog_rings:
            gens = ring.additive_generators()
            assert 2 ** len(gens) <= ring.order
            assert len(_additive_span(ring, gens)) == ring.order
            assert ring.additive_generators() is gens

    def test_validation_allocates_no_table_sized_temporary(self):
        ring = parse_ring_source("tri:zmod2:4")
        relabeled = ring.relabeled(np.random.default_rng(21).permutation(ring.order))
        tracemalloc.start()
        try:
            validate_tables(relabeled.add_table, relabeled.mul_table,
                            relabeled.zero, relabeled.one, ring.order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < relabeled.add_table.nbytes

    def test_agrees_with_full_scan_on_non_cyclic_corruptions(self):
        # several generators, so the walks leave rows out and the later
        # generators meet the corruptions; one or two cells of + (mirrored,
        # or on the diagonal) or of *
        rng = np.random.default_rng(20261022)
        z2 = zmod(2)
        bases = [product(z2, zmod(4)), product(product(z2, z2), z2), product(zmod(4), zmod(4)),
                 product(z2, zmod(8)), matrix_ring(z2, 2), product(zmod(3), zmod(3))]
        checked = rejected = 0
        for ring in bases:
            assert len(ring.additive_generators()) > 1
            for trial in range(300):
                base = ring.relabeled(rng.permutation(ring.order))
                n = base.order
                add, mul = base.add_table.copy(), base.mul_table.copy()
                kind = trial // 2 % 3
                for _ in range(1 + trial % 2):
                    i, j = (int(v) for v in rng.integers(0, n, size=2))
                    if kind == 0:
                        add[i, j] = add[j, i] = rng.integers(0, n)
                    elif kind == 1:
                        add[i, i] = rng.integers(0, n)
                    else:
                        mul[i, j] = rng.integers(0, n)
                try:
                    _check_quadratic_axioms(add, mul, base.zero, base.one)
                except RingValidationError:
                    continue
                checked += 1
                rejected += _assert_matches_full_scan(add, mul, base.zero, base.one) is not None
        assert checked > 1000 and rejected > 0.8 * checked

    @staticmethod
    def _klein_tables(*cells):
        """The Boolean ring GF(2)^2 (xor, and; one at 3), with + changed at
        each cell (i, j, v) and its mirror."""
        idx = np.arange(4)
        add = idx[:, None] ^ idx[None, :]
        for i, j, v in cells:
            add[i, j] = add[j, i] = v
        return add, idx[:, None] & idx[None, :]

    def test_walk_that_meets_itself_fails_on_the_row_of_minus_g(self):
        # Z/4 with 1 + 2 = 2: the walk 0, 1, 2, 2 from the generator 1 meets
        # 2 twice, and Light's test fails on the row of 3, where 3 + 1 = 0
        add, mul = modular_tables(4)
        add[1, 2] = add[2, 1] = 2
        walk = core._coset_walk(add[1], np.array([0]), np.arange(4) == 0)
        assert walk.ravel().tolist()[:4] == [0, 1, 2, 2]
        error, _, witness = _assert_matches_full_scan(add, mul, 0, 1)
        assert error is NotAbelianGroupUnderAdd and witness == (3, 1, 2)

    def test_generators_whose_translations_do_not_commute(self, monkeypatch):
        # 1 + 1 = 0 closes the walk of 1 on the rows 0 and 1, which pass;
        # with 2 + 3 = 3, 2 + (1 + 2) = 3 but 1 + (2 + 2) = 1, so the
        # generator 2 fails before any of its rows is read
        read = []
        blocks = core._row_blocks
        monkeypatch.setattr(core, "_row_blocks", lambda rows, width: read.append(rows) or
                            blocks(rows, width))
        add, mul = self._klein_tables((2, 3, 3))
        error, _, witness = _assert_matches_full_scan(add, mul, 0, 3)
        assert error is NotAbelianGroupUnderAdd and witness == (1, 2, 2)
        assert read == [2]

    def test_generator_row_that_is_not_a_permutation(self):
        # 1 + 2 = 2 makes row 1 hold 2 twice, though the walk 0, 1, 0 of the
        # generator 1 meets no element twice: Light's test fails on its
        # relation row 1
        add, mul = self._klein_tables((1, 2, 2))
        assert sorted(add[1]) != [0, 1, 2, 3]
        error, _, witness = _assert_matches_full_scan(add, mul, 0, 3)
        assert error is NotAbelianGroupUnderAdd and witness == (1, 1, 3)

    def test_validation_generators_are_the_ring_generators(self, catalog_rings):
        rng = np.random.default_rng(31)
        for ring in catalog_rings:
            for base in (ring, ring.relabeled(rng.permutation(ring.order))):
                assert core._check_on_generators(base.add_table, base.mul_table, base.zero) \
                    == base.additive_generators().tolist(), ring.label

    def test_group_table_reads_n_minus_1_plus_G_rows_per_law(self, catalog_rings, monkeypatch):
        # each generator's rows go through one _row_blocks walk, and both
        # laws read them
        read = []
        blocks = core._row_blocks
        monkeypatch.setattr(core, "_row_blocks", lambda rows, width: read.append(rows) or
                            blocks(rows, width))
        rng = np.random.default_rng(32)
        for ring in catalog_rings + [matrix_ring(zmod(2), 3)]:
            base = ring.relabeled(rng.permutation(ring.order))
            read.clear()
            validate_tables(base.add_table, base.mul_table, base.zero, base.one, base.order)
            assert sum(read) == ring.order - 1 + len(base.additive_generators()), ring.label


def _reference_ideal_witness(ring, members):
    """The first pair that leaves ``members``: a row-major scan of the
    member sums, then the products (r, m), then the products (m, r)."""
    mem = np.asarray(members, dtype=np.intp)
    mask = np.zeros(ring.order, dtype=bool)
    mask[mem] = True
    everything = np.arange(ring.order)
    for rows, cols, table in ((mem, mem, ring.add_table), (everything, mem, ring.mul_table),
                              (mem, everything, ring.mul_table)):
        escapes = np.argwhere(~mask[table[np.ix_(rows, cols)]])
        if len(escapes):
            i, j = escapes[0]
            return int(rows[i]), int(cols[j])
    return None


class TestIdealWitness:
    """``ideal_witness`` decides on the additive generators, and a set that
    fails gets the first escaping pair of a full scan."""

    def test_matches_full_scan_on_catalog_subsets(self, catalog_rings):
        rng = np.random.default_rng(20261019)
        scanned = 0
        for ring in catalog_rings:
            unit = np.zeros(ring.order, dtype=bool)
            unit[list(subsets.units(ring).members)] = True
            candidates = [ideal.members for ideal in subsets.ideal_lattice(ring)]
            candidates += [np.flatnonzero(unit), np.flatnonzero(~unit)]
            # additive subgroups, given in a shuffled order; those that are
            # not ideals pass the generator check's premise and reach the scan
            spans = [rng.permutation(sorted(_additive_span(ring, rng.integers(0, ring.order, k))))
                     for k in (1, 1, 2)]
            for members in candidates + spans:
                if len(members) == 0:
                    continue
                expected = _reference_ideal_witness(ring, members)
                assert ring.ideal_witness(members) == expected, (ring.label, members)
            scanned += sum(_reference_ideal_witness(ring, span) is not None for span in spans)
        assert scanned > 50

    def test_first_escaping_sum_past_the_first_block(self):
        # in Z/256, S = 2Z/256 together with 1 + 8Z/256: the rows of 8Z/256
        # keep every sum in S, and 2 + 1 = 3 is the first sum that leaves it
        ring = zmod(256)
        eights = list(range(0, 256, 8))
        members = eights + [x for x in range(0, 256, 2) if x % 8] + [1 + x for x in eights]
        first_rows = core._ROW_BLOCK_CELLS // 16 // len(members)
        witness = ring.ideal_witness(members)
        assert witness == _reference_ideal_witness(ring, members) == (2, 1)
        assert members.index(2) >= first_rows > 0
        # the witness depends on the member order, and so does its memo entry
        assert ring.ideal_witness(sorted(members)) == \
            _reference_ideal_witness(ring, sorted(members)) == (1, 2)
        assert ring.ideal_witness(members) == (2, 1)


class TestArithmetic:
    def test_mul_examples(self):
        z6 = zmod(6)
        assert z6.mul(2, 3) == 0
        z4 = zmod(4)
        assert z4.pow(3, 2) == 1
        z3 = zmod(3)
        assert z3.pow(2, 2) == 1

    def test_pow_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            zmod(5).pow(2, 0)

    def test_elem_operators(self):
        z6 = zmod(6)
        a, b = z6.elem(2), z6.elem(5)
        assert (a + b).index == 1
        assert (a * b).index == 4
        assert (-a).index == 4
        assert (a - b).index == 3
        assert (b ** 2).index == 1

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            zmod(4).elem(1) + zmod(5).elem(1)

    def test_elem_index_range(self):
        with pytest.raises(ValueError):
            Elem(9, zmod(4))

    def test_pow_is_multiplicative_on_small_rings(self, catalog_rings):
        small = [r for r in catalog_rings if r.order <= 16]
        assert small
        for ring in small:
            n = ring.order
            for x in range(n):
                powers = [None, ring.pow(x, 1)]
                for k in range(2, 2 * n + 1):
                    powers.append(ring.mul(powers[-1], x))
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        assert ring.pow(x, j + k) == ring.mul(powers[j], powers[k])


class TestPowerTrail:
    def test_zmod6_element2(self):
        trail = zmod(6).power_trail(2)
        assert trail.distinct_powers == (2, 4)
        assert trail.cycle_start == 0

    def test_zmod4_element2(self):
        trail = zmod(4).power_trail(2)
        assert trail.distinct_powers == (2, 0)
        assert trail.cycle_start == 1

    def test_identity_trail(self, catalog_rings):
        for ring in catalog_rings[:10]:
            trail = ring.power_trail(ring.one)
            assert trail.distinct_powers == (ring.one,)
            assert trail.cycle_start == 0

    def test_trail_length_bounded_by_order(self, catalog_rings):
        for ring in catalog_rings:
            for trail in ring.trails():
                assert len(trail.distinct_powers) <= ring.order
                nxt = ring.mul(trail.distinct_powers[-1], trail.base)
                assert nxt == trail.distinct_powers[trail.cycle_start]

    def test_periodic_exponents_distinct(self, catalog_rings):
        for ring in catalog_rings:
            for trail in ring.trails():
                m, n = trail.periodic_exponents()
                assert m < n
                assert ring.pow(trail.base, m) == ring.pow(trail.base, n)

    def test_power_matrix_matches_trails(self, catalog_rings):
        # the per-element trail loop is the reference for the whole-ring matrix
        for ring in catalog_rings + [zmod(64).relabeled(list(range(63, -1, -1)))]:
            powers = ring.power_matrix()
            trails = ring.trails()
            longest = max(len(t.distinct_powers) for t in trails)
            assert powers.shape == (ring.order, longest + 1)
            for x, trail in enumerate(trails):
                k = len(trail.distinct_powers)
                assert tuple(powers[x, :k]) == trail.distinct_powers
                for j in range(k, longest + 1):
                    # x^(j+1) repeats its trail with the trail's period
                    period = k - trail.cycle_start
                    back = trail.cycle_start + (j - trail.cycle_start) % period
                    assert powers[x, j] == trail.distinct_powers[back]


def _fresh(ring):
    """The same tables on a new ring object, with nothing memoised."""
    return FiniteRing(ring.label, ring.order, ring.add_table, ring.mul_table,
                      ring.zero, ring.one, ring.elem_names)


# the whole-ring kernels, each as a comparable value of one ring; all but
# ``power_matrix`` walk their rows through ``core._row_blocks``
_BLOCKED_KERNELS = {
    "power_matrix": lambda r: r.power_matrix().tobytes(),
    "jacobson_radical": lambda r: subsets.jacobson_radical(r).members,
    "right_multiples": lambda r: predicates._multiples(r).tobytes(),
    "left_multiples": lambda r: predicates._multiples(r, left=True).tobytes(),
    "split_counts": lambda r: predicates._split_counts(
        r, subsets._units_mask(r), subsets._idempotent_array(r)).tobytes(),
    "corner_counts": lambda r: (predicates._corner_counts(r, left=False).tobytes(),
                                predicates._corner_counts(r, left=True).tobytes()),
    "some_power": lambda r: predicates._some_power(r, subsets._units_mask(r)).tobytes(),
    "strongly_pi_regular": predicates.strongly_pi_regular_witness,
    "radical_unit_set": predicates.radical_unit_set,
}


class TestRowBlocks:
    """Catalog rings fit in one row block at the default constant, so each
    kernel is also run with blocks of a few rows, which puts block
    boundaries inside every ring."""

    @pytest.mark.parametrize("cells", [1, 50])
    @pytest.mark.parametrize("kernel", list(_BLOCKED_KERNELS))
    def test_kernel_matches_one_block(self, catalog_rings, monkeypatch, kernel, cells):
        compute = _BLOCKED_KERNELS[kernel]
        expected = [compute(ring) for ring in catalog_rings]
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        for ring, want in zip(catalog_rings, expected):
            assert compute(_fresh(ring)) == want, ring.label

    @pytest.mark.parametrize("cells", [1, 50])
    def test_prime_test_matches_definition(self, catalog_rings, monkeypatch, cells):
        from test_subsets import reference_is_prime
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        for ring in catalog_rings:
            fresh = _fresh(ring)
            for ideal in subsets.ideal_lattice(ring):
                assert subsets._is_prime_ideal(fresh, ideal) == \
                    reference_is_prime(ring, ideal.members), (ring.label, ideal.members)

    @pytest.mark.parametrize("cells", [1, 50])
    def test_zmod_matches_one_block(self, catalog, monkeypatch, cells):
        rings = {e.provenance: e.ring for e in catalog if e.provenance.startswith("zmod:")}
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        for source, ring in rings.items():
            built = zmod(int(source.split(":")[1]))
            assert (built.table_bytes(), built.elem_names) == \
                (ring.table_bytes(), ring.elem_names), source

    @pytest.mark.parametrize("kernel", [
        subsets.jacobson_radical,
        predicates._multiples,
        lambda r: predicates._multiples(r, left=True),
    ], ids=["jacobson_radical", "right_multiples", "left_multiples"])
    def test_kernel_allocates_no_table_sized_temporary(self, kernel):
        ring = parse_ring_source("tri:zmod2:4")
        tracemalloc.start()
        try:
            kernel(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ring.add_table.nbytes


class TestNormalizationAndJson:
    def test_loader_normalizes_zero_and_one(self):
        doc = _rotated_z3_doc("rot")
        ring = FiniteRing.from_tables("rot", doc["add"], doc["mul"], doc["zero"], doc["one"])
        assert ring.zero == 0 and ring.one == 1
        assert ring.table_bytes() == zmod(3).table_bytes()

    def test_json_round_trip_is_byte_identical(self, catalog):
        for entry in catalog:
            text = entry.ring.to_json()
            again = load_ring_json(text)
            assert again.to_json() == text

    def test_missing_field_rejected(self):
        with pytest.raises(RingValidationError):
            load_ring_json('{"label": "x", "order": 1}')

    @pytest.mark.parametrize("change", [
        None, {"zero": "0"}, {"zero": 0.0}, {"one": True}, {"add": 5}, {"mul": [[0, None, 1]] * 3},
        {"mul": [[0, 0, 0], [0, 1.9, 2.9], [0, 2, 1]]}, {"order": 7},
        {"order": 2, "add": [[False, True], [True, False]], "mul": [[0, 0], [0, 1]]},
        {"order": 2, "add": [[0, 1], [1, 0]], "mul": [[False, 0], [0, 1]]},
        {"order": 2, "add": [["0", "1"], ["1", "0"]], "mul": [[0, 0], [0, 1]]},
        {"order": 2, "add": [[" 0", "1"], ["1", "0"]], "mul": [[0, 0], [0, 1]]},
        {"label": 5},
    ], ids=["top-level-array", "string-zero", "float-zero", "bool-one", "scalar-add",
            "null-entry", "float-entry", "wrong-order", "bool-entry", "false-entry",
            "str-entry", "padded-str-entry", "int-label"])
    def test_malformed_json_rejected(self, change):
        doc = [1, 2] if change is None else {**zmod(3).to_json_dict(), **change}
        with pytest.raises(RingValidationError):
            load_ring_json(json.dumps(doc))

    def test_tables_immutable(self):
        ring = zmod(5)
        with pytest.raises(ValueError):
            ring.add_table[0, 0] = 3

    @pytest.mark.parametrize("derived", [
        lambda r: r.neg_table,
        lambda r: r.power_matrix(),
        lambda r: r.additive_generators(),
        lambda r: subsets._units_mask(r),
        lambda r: predicates._clean_counts(r),
        lambda r: predicates._multiples(r),
    ], ids=["neg_table", "power_matrix", "additive_generators",
            "units_mask", "clean_counts", "multiples"])
    def test_derived_arrays_immutable(self, derived):
        arr = derived(zmod(6))
        with pytest.raises(ValueError):
            arr[0] = 1

    def test_memo_stores_none_and_skips_failed_builds(self):
        ring = zmod(5)
        calls = []

        def build_none():
            calls.append(1)

        assert ring.memo("k", build_none) is None
        assert ring.memo("k", build_none) is None
        assert len(calls) == 1

        def build_fail():
            raise ArithmeticError("no value")

        with pytest.raises(ArithmeticError):
            ring.memo("f", build_fail)
        assert ring.memo("f", lambda: 7) == 7


# ---------------------------------------------------------------------------
# the loader against a list-based reference


def reference_load(text: str):
    """The loader as it was before tables were lexed into numpy directly.

    ``json.loads`` builds nested lists; the same type rules as
    ``load_ring_json`` apply (int cells, a string label, no NaN or Infinity);
    ``FiniteRing.from_tables`` then turns the lists into arrays with ``np.asarray``.
    """
    def non_integer(literal):
        raise RingValidationError(f"non-integer number {literal}")

    obj = json.loads(text, parse_float=non_integer, parse_constant=non_integer)
    if not isinstance(obj, dict):
        raise RingValidationError("not an object")
    try:
        label, add, mul, zero, one = (obj[k] for k in ("label", "add", "mul", "zero", "one"))
    except KeyError as exc:
        raise RingValidationError(f"missing {exc}") from exc
    if type(label) is not str:
        raise RingValidationError("label is not a string")
    for table in (add, mul):
        if not (type(table) is list and all(
                type(row) is list and all(type(v) is int for v in row) for row in table)):
            raise RingValidationError("table is not an array of integer rows")
    if "order" in obj and (type(obj["order"]) is not int or obj["order"] != len(add)):
        raise RingValidationError("order does not match")
    return FiniteRing.from_tables(label, add, mul, zero, one)


def _load_outcome(load, text):
    """(label, table bytes) of an accepted text, else the error class."""
    try:
        ring = load(text)
    except RingValidationError:
        return RingValidationError
    except ValueError:
        return ValueError
    return ring.label, ring.table_bytes()


EDIT_CHARS = '0123456789,[] -.e"tnN'


def _single_edits(text: str, rng: np.random.Generator, count: int):
    """``count`` copies of text, each with one character inserted, deleted or replaced."""
    for _ in range(count):
        i = int(rng.integers(len(text)))
        c = EDIT_CHARS[int(rng.integers(len(EDIT_CHARS)))]
        op = int(rng.integers(3))
        yield (text[:i] + c + text[i:], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:])[op]


def _rotated_z3_doc(label: str) -> dict:
    """Z/3 with zero at index 2 and one at index 0, as a JSON document."""
    perm = [2, 0, 1]
    add = [[0] * 3 for _ in range(3)]
    mul = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            add[perm[a]][perm[b]] = perm[(a + b) % 3]
            mul[perm[a]][perm[b]] = perm[(a * b) % 3]
    return {"label": label, "order": 3, "add": add, "mul": mul, "zero": 2, "one": 0}


def _targeted_docs() -> list[str]:
    z3 = zmod(3).to_json()
    doc = zmod(3).to_json_dict()
    cases = [z3.replace("[0,1,2]", "[0,01,2]", 1), z3.replace("[0,1,2]", "[00,1,2]", 1),
             z3.replace("[0,1,2]", "[0,1,-0]", 1), z3.replace("[0,1,2]", "[0,,2]", 1),
             z3.replace("[0,1,2]", "[0,1 2]", 1), z3.replace("[0,1,2]", "[0,1,2,]", 1)]
    for big in ("1000000000", "2147483647", "2147483648", "4294967296", "9999999999",
                "999999999", "0000000001"):
        cases.append(z3.replace("[0,1,2]", f"[0,1,{big}]", 1))
    for change in ({"add": [[]]}, {"add": [[]], "order": 1}, {"add": []},
                   {"add": [[[0, 1, 2], [1, 2, 0], [2, 0, 1]]]},
                   {"mul": [[[0], [0], [0]], [[0], [1], [2]], [[0], [2], [1]]]},
                   {"add": [[0, 1, 2], [1, 2, 0]]}, {"add": [[0, 1], [1, 2], [2, 0]]},
                   {"add": [[0, 1, 2], [1, 2, 0], [2, 0]]}, {"add": [0, 1, 2]},
                   {"label": "[[0,1]]"}, {"label": '"add": [[0,1],[1,0]]'},
                   {"label": "[[0,1],[1,0]]", '"add': [[1, 0], [0, 1]]},
                   {"extra": [[0, 1], [1, 0]]}, {"extra": [[[0]], [[1]]]},
                   {"order": [[3]]}, {"label": [[0]]}, {"zero": [[0]]},
                   {"add": {"rows": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}}):
        cases.append(json.dumps({**doc, **change}, separators=(",", ":")))
    for constant in ("NaN", "Infinity", "-Infinity"):
        cases.append(z3.replace("[0,1,2]", f"[0,1,{constant}]", 1))
        cases.append(z3.replace('"zero":0', f'"zero":{constant}'))
        cases.append(z3.replace('"Z/3"', constant))
        cases.append(z3.replace(',"label"', f',"x":{constant},"label"'))
    # a failed run that opens a string: the lexer must not lose the string
    unlabelled = json.dumps({k: v for k, v in doc.items() if k != "label"}, separators=(",", ":"))
    cases.append('{"x":[[0,"]]"]],"label":"[[0,1],[1,0]]",' + unlabelled[1:])
    cases += ["", "[]", "[[0]]", "NaN", "{}", "[[0,1],[1,0]]", '"[[0]]"', z3 + "[[0]]",
              z3 + "NaN", "\ufeff" + z3]
    return cases


def loader_corpus() -> list[str]:
    """Catalog rings in several layouts, targeted edge cases and seeded single edits."""
    from ringlab.construct import default_catalog
    docs = [entry.ring.to_json() for entry in default_catalog()]
    for entry in default_catalog()[::7]:
        d = entry.ring.to_json_dict()
        docs += [json.dumps(d), json.dumps(d, indent=1), json.dumps(d, indent="\t"),
                 json.dumps(d, indent=2).replace("\n", "\r\n"),
                 json.dumps(d, separators=(" ,\t", " :\r\n"))]
    docs += _targeted_docs()
    rng = np.random.default_rng(90210)
    bases = [zmod(2).to_json(), zmod(3).to_json(), json.dumps(zmod(3).to_json_dict()),
             json.dumps(_rotated_z3_doc("rot [[0,1]] \\\"add\\\"")),
             json.dumps(_rotated_z3_doc("Z/3"), indent=1)]
    for base in bases:
        docs += list(_single_edits(base, rng, 500))
    return docs


class TestLoaderMatchesReference:
    def test_same_verdicts_and_tables(self):
        corpus = loader_corpus()
        assert len(corpus) >= 2000
        outcomes = [(_load_outcome(load_ring_json, t), _load_outcome(reference_load, t))
                    for t in corpus]
        diffs = [(text, new, ref) for text, (new, ref) in zip(corpus, outcomes) if new != ref]
        assert diffs == []
        kinds = {ref if isinstance(ref, type) else "accepted" for _, ref in outcomes}
        # the corpus reaches all three outcomes
        assert kinds == {"accepted", RingValidationError, ValueError}

    def test_lexing_stays_linear(self):
        # 30000 overlapping runs that each open a string: rescanning every
        # one of them takes about 14 s, one pass a few milliseconds
        text = '[["' * 30000 + "]]"
        start = time.perf_counter()
        with pytest.raises(ValueError):
            load_ring_json(text)
        assert time.perf_counter() - start < 1.0

    def test_many_short_runs_lex_in_linear_time(self):
        # 20000 closed runs one after another: each scan must stop near its
        # close, not read on through the rest of the text (about 5 s)
        text = "[" + "[[x]]," * 20000 + "[[x]]]"
        start = time.perf_counter()
        with pytest.raises(ValueError):
            load_ring_json(text)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("cells", [1, 3, 1 << 16])
    def test_close_is_the_first_bracket_pair(self, monkeypatch, cells):
        # the close of a run is where a regex search for "]", JSON
        # whitespace, "]" ends, also when a block of bytes splits the pair
        monkeypatch.setattr(core, "_ROW_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        alphabet = np.frombuffer(b"[] \n\t,0x", dtype=np.uint8)
        for _ in range(600):
            run = alphabet[rng.choice(alphabet.size, rng.integers(1, 120),
                                      p=rng.dirichlet(np.ones(alphabet.size)))]
            close = re.search(rb"\][ \t\n\r]*\]", run.tobytes())
            scanned = list(core._brackets(run))
            assert scanned[-1][1] == (close is not None)
            ends = np.concatenate([at for at, _ in scanned]).tolist()
            assert ends == [i for i in range(close.end() if close else run.size)
                            if run[i] == ord("]")]

    def test_ring_tables_come_straight_from_the_text(self):
        text = zmod(5).to_json()
        fields = core._ring_fields(text)
        assert all(isinstance(t, np.ndarray) and t.dtype == np.int32 for t in fields[1:3])

    @pytest.mark.parametrize("run, expected", [
        ("[[0]]", [[0]]), ("[[10,2],[3,45]]", [[10, 2], [3, 45]]),
        ("[ [0 ,1] ,\r\n\t[1, 0] ]", [[0, 1], [1, 0]]), ("[[999999999]]", [[999999999]]),
        ("[[]]", None), ("[[0,1]]", None), ("[[0,1],[1]]", None), ("[[01]]", None),
        ("[[1 0]]", None), ("[[0,,1],[1,0,0],[0,0,0]]", None), ("[[1000000000]]", None),
        ("[[[0]]]", None), ("[[0],[1]]", None), ("[[0,1],[1,0],]", None), ("[[-1]]", None),
        ("[[0,1] [1,0]]", None), ('[[0,"1"],[1,0]]', None), ("[[0e0]]", None),
    ])
    def test_int_matrix_is_exact(self, run, expected):
        table = core._int_matrix(np.frombuffer(run.encode(), dtype=np.uint8))
        if expected is None:
            assert table is None
        else:
            assert table.dtype == np.int32 and table.tolist() == expected
