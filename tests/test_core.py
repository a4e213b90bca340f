"""Ring table validation, element arithmetic, power trails, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from ringlab import (
    Elem,
    NoIdentity,
    NonAssociativeMul,
    NotAbelianGroupUnderAdd,
    NotDistributive,
    OrderCapExceeded,
    RingMismatch,
    RingValidationError,
    load_ring_json,
    validate_ring,
    zmod,
)
from ringlab.core import validate_tables


def modular_tables(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n


class TestValidation:
    def test_zmod4_tables_valid(self):
        add, mul = modular_tables(4)
        ring = validate_ring("Z/4", add, mul, 0, 1)
        assert ring.order == 4

    def test_zero_ring_valid(self):
        ring = validate_ring("0", [[0]], [[0]], 0, 0)
        assert ring.order == 1 and ring.zero == ring.one == 0

    def test_corrupted_zmod6_mul_rejected_with_witness(self):
        add, mul = modular_tables(6)
        mul = mul.copy()
        assert mul[2][3] == 0
        mul[2][3] = 1
        with pytest.raises((NotDistributive, NonAssociativeMul)) as exc:
            validate_ring("Z/6-broken", add, mul, 0, 1)
        assert len(exc.value.witness) >= 2

    def test_zero_one_collision_rejected(self):
        add, mul = modular_tables(4)
        with pytest.raises(RingValidationError):
            validate_ring("bad", add, mul, 0, 0)

    def test_out_of_range_entry(self):
        add, mul = modular_tables(3)
        add = add.copy()
        add[1][1] = 7
        with pytest.raises(RingValidationError):
            validate_ring("bad", add, mul, 0, 1)

    def test_broken_identity(self):
        add, mul = modular_tables(4)
        mul = mul.copy()
        mul[1][2] = 3
        with pytest.raises((NoIdentity, NotDistributive, NonAssociativeMul)):
            validate_ring("bad", add, mul, 0, 1)

    def test_non_commutative_add(self):
        add, mul = modular_tables(4)
        add = add.copy()
        add[1][2] = 0
        with pytest.raises(NotAbelianGroupUnderAdd):
            validate_ring("bad", add, mul, 0, 1)

    def test_order_cap(self):
        add, mul = modular_tables(8)
        with pytest.raises(OrderCapExceeded):
            validate_ring("Z/8", add, mul, 0, 1, order_cap=4)


class TestCorruptionSweep:
    """Any single-entry corruption of a catalog table is rejected, or the
    mutated tables happen to form a valid ring again (decided by the same
    full axiom scan)."""

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


class TestNormalizationAndJson:
    def test_loader_normalizes_zero_and_one(self):
        # Z/3 with labels rotated so zero sits at 2 and one at 0.
        perm = {0: 2, 1: 0, 2: 1}
        add = [[0] * 3 for _ in range(3)]
        mul = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                add[perm[a]][perm[b]] = perm[(a + b) % 3]
                mul[perm[a]][perm[b]] = perm[(a * b) % 3]
        ring = validate_ring("rot", add, mul, 2, 0)
        assert ring.zero == 0 and ring.one == 1
        assert ring.table_bytes() == zmod(3).table_bytes()

    def test_json_round_trip_is_byte_identical(self, catalog):
        for entry in catalog[:20]:
            text = entry.ring.to_json()
            again = load_ring_json(text)
            assert again.to_json() == text

    def test_missing_field_rejected(self):
        with pytest.raises(RingValidationError):
            load_ring_json('{"label": "x", "order": 1}')

    def test_tables_immutable(self):
        ring = zmod(5)
        with pytest.raises(ValueError):
            ring.add_table[0, 0] = 3
