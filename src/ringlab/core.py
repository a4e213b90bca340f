"""Finite unital rings as dense element-index tables.

A ring of order n is stored as two n-by-n numpy tables: ``add_table[i, j]``
and ``mul_table[i, j]`` give the index of x_i + x_j and x_i * x_j.  Canonical
rings keep the additive identity at index 0 and the multiplicative identity at
index 1 (index 0 for the order-1 ring); ``FiniteRing.from_tables`` relabels
arbitrary input into that form.

Validation is exact; there are no probabilistic shortcuts.  Commutativity,
identities, inverses and zero annihilation are O(n^2) scans.  Rings of order at
most ``_CHUNKED_SCAN_ORDER`` then get a full cubic scan of the other axioms;
larger ones check them on a greedy additive generating set G of at most
log2(n) elements, where each step is a theorem:

1. Associativity of +, by Light's test: the elements g with
   (x+g)+y = x+(g+y) for all x, y form a sub-magma, so when the test holds on
   G it holds on every sum of generators, which is every element.
2. Distributivity: once + is associative, the elements c with
   a*(b+c) = a*b + a*c (and (b+c)*a = b*a + c*a) for all a, b are closed
   under +, so checking c in G suffices.
3. Associativity of *: the associator is additive in each argument, so it
   vanishes everywhere once it vanishes on G^3.

A table that fails the generator check is rescanned in full, so every
rejection names the same axiom and witness as the cubic scan.  Rings are
immutable after validation (the tables are frozen), so every operation in the
package is a pure read and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ClosureViolation,
    NoIdentity,
    NonAssociativeMul,
    NotAbelianGroupUnderAdd,
    NotDistributive,
    OrderCapExceeded,
    RingMismatch,
    RingValidationError,
)

DEFAULT_ORDER_CAP = 4096

# Above this order, validation checks the cubic axioms on an additive
# generating set, and a table that fails that check is rescanned row-by-row:
# the intermediate gather arrays stay small, and a violated axiom surfaces
# after a handful of rows instead of after materialising all n^3 triples.
_CHUNKED_SCAN_ORDER = 32


def _as_table(table, order: int, name: str) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int32)
    if arr.shape != (order, order):
        raise RingValidationError(f"{name} table must be {order}x{order}, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= order):
        bad = np.argwhere((arr < 0) | (arr >= order))[0]
        raise RingValidationError(
            f"{name}[{bad[0]}][{bad[1]}] = {arr[bad[0], bad[1]]} out of range [0, {order})",
            (int(bad[0]), int(bad[1])),
        )
    return arr


def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, ...]:
    """Index of the first cell where two gathered axiom arrays differ."""
    flat = np.flatnonzero(lhs != rhs)
    return tuple(int(v) for v in np.unravel_index(flat[0], lhs.shape))


def _check_assoc(table: np.ndarray, err: Callable[[tuple[int, int, int]], RingValidationError],
                 chunked: bool) -> None:
    n = table.shape[0]
    if not chunked:
        lhs = table[table, :]        # [a,b,c] -> t[t[a,b], c]
        rhs = table[:, table]        # [a,b,c] -> t[a, t[b,c]]
        if not np.array_equal(lhs, rhs):
            raise err(_first_mismatch(lhs, rhs))
        return
    for a in range(n):
        lhs = table[table[a], :]
        rhs = table[a, table]
        if not np.array_equal(lhs, rhs):
            b, c = _first_mismatch(lhs, rhs)
            raise err((a, b, c))


def _check_distributive(add: np.ndarray, mul: np.ndarray, chunked: bool) -> None:
    n = add.shape[0]
    if not chunked:
        # (b+c)*a == b*a + c*a
        lhs = mul[add, :]
        rhs = add[mul[:, None, :], mul[None, :, :]]
        if not np.array_equal(lhs, rhs):
            b, c, a = _first_mismatch(lhs, rhs)
            raise NotDistributive(f"right: (x{b}+x{c})*x{a} != x{b}*x{a} + x{c}*x{a}", (b, c, a))
        # a*(b+c) == a*b + a*c
        lhs = mul[:, add]
        rhs = add[mul[:, :, None], mul[:, None, :]]
        if not np.array_equal(lhs, rhs):
            a, b, c = _first_mismatch(lhs, rhs)
            raise NotDistributive(f"left: x{a}*(x{b}+x{c}) != x{a}*x{b} + x{a}*x{c}", (a, b, c))
        return
    for a in range(n):
        # Fix the first summand: (a+c)*d == a*d + c*d over all c, d.  A bad
        # mul cell shows up here for almost every a, so rejection is fast.
        lhs = mul[add[a], :]
        rhs = add[mul[a, None, :], mul]
        if not np.array_equal(lhs, rhs):
            c, d = _first_mismatch(lhs, rhs)
            raise NotDistributive(f"right: (x{a}+x{c})*x{d} != x{a}*x{d} + x{c}*x{d}", (a, c, d))
        lhs = mul[a, add]
        rhs = add[mul[a, :, None], mul[a, None, :]]
        if not np.array_equal(lhs, rhs):
            b, c = _first_mismatch(lhs, rhs)
            raise NotDistributive(f"left: x{a}*(x{b}+x{c}) != x{a}*x{b} + x{a}*x{c}", (a, b, c))


def _check_quadratic_axioms(add: np.ndarray, mul: np.ndarray, zero: int, one: int) -> None:
    """The axioms that take one O(n^2) scan each."""
    idx = np.arange(add.shape[0])
    # Additive abelian group: commutative, identity, inverses.
    if not np.array_equal(add, add.T):
        a, b = _first_mismatch(add, add.T)
        raise NotAbelianGroupUnderAdd(f"x{a}+x{b} != x{b}+x{a}", (a, b))
    if not np.array_equal(add[zero], idx):
        b = int(np.flatnonzero(add[zero] != idx)[0])
        raise NotAbelianGroupUnderAdd(f"0+x{b} != x{b}", (zero, b))
    has_inverse = (add == zero).any(axis=1)
    if not has_inverse.all():
        a = int(np.flatnonzero(~has_inverse)[0])
        raise NotAbelianGroupUnderAdd(f"x{a} has no additive inverse", (a,))

    # Multiplicative identity and zero annihilation (the latter is implied by
    # the other axioms; checking it early gives cheaper, clearer reports).
    if not (np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)):
        col = mul[:, one]
        bad = np.flatnonzero((mul[one] != idx) | (col != idx))
        raise NoIdentity(f"declared identity x{one} does not fix x{bad[0]}", (one, int(bad[0])))
    if not ((mul[zero] == zero).all() and (mul[:, zero] == zero).all()):
        bad = int(np.flatnonzero((mul[zero] != zero) | (mul[:, zero] != zero))[0])
        raise NotDistributive(f"0*x{bad} or x{bad}*0 nonzero", (zero, bad, bad))


def _full_scan(add: np.ndarray, mul: np.ndarray, chunked: bool) -> None:
    """Check distributivity and both associativities on every triple."""
    _check_distributive(add, mul, chunked)
    _check_assoc(add, lambda w: NotAbelianGroupUnderAdd(
        f"(x{w[0]}+x{w[1]})+x{w[2]} != x{w[0]}+(x{w[1]}+x{w[2]})", w), chunked)
    _check_assoc(mul, lambda w: NonAssociativeMul(
        f"(x{w[0]}*x{w[1]})*x{w[2]} != x{w[0]}*(x{w[1]}*x{w[2]})", w), chunked)


def _additive_generators(add: np.ndarray, zero: int) -> Iterator[int]:
    """Greedy generators of the additive magma, yielded as they are chosen.

    Each generator g is the least element not yet reached; the reached set
    then takes in its sums with g, g+g, (g+g)+(g+g), ... until a round adds
    nothing.  Whatever the table, every reached element is a sum of
    generators.  When + is a group the rounds reach the subgroup generated so
    far in O(log n) steps, and each generator at least doubles it, so at most
    log2(n) generators are yielded.
    """
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[zero] = True
    while not reached.all():
        step = int(np.argmin(reached))
        yield step
        while True:
            sums = add[reached, step]
            if reached[sums].all():
                break
            reached[sums] = True
            step = add[step, step]


def _holds_on_generators(add: np.ndarray, mul: np.ndarray, zero: int) -> bool:
    """Whether + is associative and * is distributive and associative.

    Decided exactly on a greedy additive generating set G (see the module
    docstring) for tables that passed the O(n^2) checks.  False also when G
    would need more than ``n.bit_length()`` elements, which a group never does.
    Each generator is checked as soon as it is chosen, so a broken table
    usually fails on the first one.
    """
    n = add.shape[0]
    # add_cell[a, b] + c is the flat index of the cell add[mul[a, b], c]
    sums, add_cell = add.ravel(), mul.astype(np.intp) * n
    gens: list[int] = []
    for g in _additive_generators(add, zero):
        if len(gens) == n.bit_length():
            return False
        gens.append(g)
        # a*(b+g) == a*b + a*g and (b+g)*a == b*a + g*a; + is commutative,
        # so row g of add also lists x+g
        if not np.array_equal(mul.take(add[g], axis=1), sums.take(add_cell + mul[:, g, None])):
            return False
        if not np.array_equal(mul[add[g]], sums.take(add_cell + mul[g])):
            return False
        # (x+g)+y == x+(g+y)
        if not np.array_equal(add[add[g]], add.take(add[g], axis=1)):
            return False
    gens = np.array(gens, dtype=np.intp)
    gg = mul[np.ix_(gens, gens)]
    return np.array_equal(mul[gg[:, :, None], gens], mul[gens[:, None, None], gg])


def validate_tables(
    add,
    mul,
    zero: int,
    one: int,
    order: int,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Check every ring axiom on candidate tables, exactly.

    The O(n^2) axioms are scanned in full.  Above ``_CHUNKED_SCAN_ORDER``,
    associativity of + (Light's test), distributivity and associativity of *
    are then checked on a greedy additive generating set G of at most
    log2(n) elements, which decides them for the whole ring (see the module
    docstring); smaller tables, and tables that fail the generator check, get
    the full cubic scan.

    Returns the tables as int32 arrays on success; raises a
    ``RingValidationError`` subclass naming the first violated axiom, with a
    witness triple of element indices, otherwise.
    """
    if order < 1:
        raise RingValidationError(f"order must be positive, got {order}")
    if order > order_cap:
        raise OrderCapExceeded(order, order_cap)
    add = _as_table(add, order, "add")
    mul = _as_table(mul, order, "mul")
    if not (0 <= zero < order and 0 <= one < order):
        raise RingValidationError(f"zero/one indices {zero}/{one} out of range")
    if zero == one and order > 1:
        raise RingValidationError("zero and one coincide in a ring of order > 1")

    _check_quadratic_axioms(add, mul, zero, one)
    if order <= _CHUNKED_SCAN_ORDER:
        _full_scan(add, mul, chunked=False)
    elif not _holds_on_generators(add, mul, zero):
        _full_scan(add, mul, chunked=True)
    return add, mul


@dataclass(frozen=True)
class PowerTrail:
    """Distinct powers a^1, a^2, ... of an element, up to the first repeat.

    ``distinct_powers[k]`` is the index of a^(k+1); the power after the last
    listed equals ``distinct_powers[cycle_start]``.  Every finite-ring element
    eventually cycles, so the trail has length at most the ring order.
    """

    base: int
    distinct_powers: tuple[int, ...]
    cycle_start: int

    def eventually_hits(self, target: int) -> bool:
        return target in self.distinct_powers

    def periodic_exponents(self) -> tuple[int, int]:
        """Distinct exponents (m, n) with a^m = a^n."""
        return (self.cycle_start + 1, len(self.distinct_powers) + 1)


@dataclass(eq=False)
class FiniteRing:
    """A validated unital associative ring on element indices 0..order-1.

    Canonical rings have zero at index 0 and one at index 1.  ``elem_names``
    optionally carries a printable structured form per index (matrix entries,
    coset representatives, ...).  Instances are immutable; ``_memo`` caches
    derived data (unit masks, radicals, spectra) keyed by computation name,
    filled lazily by the other modules -- concurrent readers are safe, worst
    case a value is recomputed.
    """

    label: str
    order: int
    add_table: np.ndarray
    mul_table: np.ndarray
    zero: int = 0
    one: int = 0
    elem_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_tables(
        label: str,
        add,
        mul,
        zero: int,
        one: int,
        elem_names: Sequence[str] | None = None,
        *,
        normalize: bool = True,
        order_cap: int = DEFAULT_ORDER_CAP,
    ) -> "FiniteRing":
        order = len(add)
        add, mul = validate_tables(add, mul, zero, one, order, order_cap)
        ring = FiniteRing(label, order, add, mul, zero, one,
                          tuple(elem_names) if elem_names is not None else None)
        if normalize:
            ring = ring.normalized()
        ring.add_table.setflags(write=False)
        ring.mul_table.setflags(write=False)
        return ring

    # -- element arithmetic (index level) ------------------------------------

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def sub(self, x: int, y: int) -> int:
        return int(self.add_table[x, self.neg_table[y]])

    def pow(self, x: int, k: int) -> int:
        """x^k for k >= 1, by repeated squaring over the mul table."""
        if k < 1:
            raise ValueError(f"exponent must be >= 1, got {k}")
        acc = None
        base = x
        while k:
            if k & 1:
                acc = base if acc is None else self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    @property
    def neg_table(self) -> np.ndarray:
        tab = self._memo.get("neg_table")
        if tab is None:
            tab = np.argmax(self.add_table == self.zero, axis=1).astype(np.int32)
            self._memo["neg_table"] = tab
        return tab

    @property
    def sub_table(self) -> np.ndarray:
        """sub_table[x, y] = x - y."""
        tab = self._memo.get("sub_table")
        if tab is None:
            tab = self.add_table[:, self.neg_table]
            self._memo["sub_table"] = tab
        return tab

    def additive_generators(self) -> np.ndarray:
        """A generating set G of (R, +) with at most log2(order) elements.

        Every element is a sum of members of G; built greedily, least index
        first, and memoised.
        """
        gens = self._memo.get("additive_generators")
        if gens is None:
            gens = np.array(list(_additive_generators(self.add_table, self.zero)), dtype=np.intp)
            gens.setflags(write=False)
            self._memo["additive_generators"] = gens
        return gens

    def power_trail(self, x: int) -> PowerTrail:
        """Successive powers of x up to (excluding) the first repetition."""
        seen: dict[int, int] = {}
        powers: list[int] = []
        cur = x
        while cur not in seen:
            seen[cur] = len(powers)
            powers.append(cur)
            cur = self.mul(cur, x)
        return PowerTrail(x, tuple(powers), seen[cur])

    def trails(self) -> list[PowerTrail]:
        cached = self._memo.get("trails")
        if cached is None:
            cached = [self.power_trail(x) for x in range(self.order)]
            self._memo["trails"] = cached
        return cached

    def power_matrix(self) -> np.ndarray:
        """``powers[x, k] = x^(k+1)`` for k = 0..L, L the longest power trail.

        Row x starts with the distinct-power trail of x, and the last column,
        x^(L+1), repeats an earlier column of every row, so any power of x
        equals some entry of its row.  Built one column at a time by a gather
        of ``mul_table``, stopping once every row has repeated a value.
        """
        powers = self._memo.get("power_matrix")
        if powers is None:
            idx = np.arange(self.order)
            seen = np.zeros((self.order, self.order), dtype=bool)
            seen[idx, idx] = True
            cols = [idx.astype(np.int32)]
            trail_open = np.ones(self.order, dtype=bool)
            while trail_open.any():
                nxt = self.mul_table[cols[-1], idx]
                trail_open &= ~seen[idx, nxt]
                seen[idx, nxt] = True
                cols.append(nxt)
            powers = np.stack(cols, axis=1)
            powers.setflags(write=False)
            self._memo["power_matrix"] = powers
        return powers

    # -- element objects ------------------------------------------------------

    def elem(self, index: int) -> "Elem":
        return Elem(index, self)

    def elements(self) -> Iterator["Elem"]:
        return (Elem(i, self) for i in range(self.order))

    def name_of(self, index: int) -> str:
        if self.elem_names is not None:
            return self.elem_names[index]
        return str(index)

    def name_array(self) -> np.ndarray:
        """Every element's ``name_of``, as an object array indexed by element."""
        if self.elem_names is not None:
            return np.array(self.elem_names, dtype=object)
        return np.arange(self.order).astype(str).astype(object)

    # -- relabeling and derived tables ----------------------------------------

    def normalized(self) -> "FiniteRing":
        """Relabel so zero sits at index 0 and one at index 1.

        Remaining indices keep their relative order, which makes the canonical
        tables of a deterministic constructor stable across runs.
        """
        if self.zero == 0 and (self.one == 1 or self.order == 1):
            return self
        rest = [i for i in range(self.order) if i not in (self.zero, self.one)]
        old_order = [self.zero, self.one] + rest
        return self.relabeled(old_order)

    def relabeled(self, old_order: Sequence[int]) -> "FiniteRing":
        """Rebuild with new index k standing for old index old_order[k]."""
        old_order = np.asarray(old_order, dtype=np.int32)
        new_of_old = np.empty(self.order, dtype=np.int32)
        new_of_old[old_order] = np.arange(self.order, dtype=np.int32)
        add = new_of_old[self.add_table[np.ix_(old_order, old_order)]]
        mul = new_of_old[self.mul_table[np.ix_(old_order, old_order)]]
        names = None
        if self.elem_names is not None:
            names = tuple(self.elem_names[i] for i in old_order)
        ring = FiniteRing(self.label, self.order, add, mul,
                          int(new_of_old[self.zero]), int(new_of_old[self.one]), names)
        ring.add_table.setflags(write=False)
        ring.mul_table.setflags(write=False)
        return ring

    def subring(self, members: Sequence[int], one: int, label: str) -> "FiniteRing":
        """Ring on a subset closed under both operations, with its own identity.

        Used for corners eRe (where ``one`` is the idempotent e). The result is
        normalized and re-validated; a member set that does not contain zero
        and ``one`` or is not closed raises ``ClosureViolation``.
        """
        members = np.unique(np.asarray(members, dtype=np.int64))
        pos = np.full(self.order, -1, dtype=np.int32)
        pos[members] = np.arange(len(members), dtype=np.int32)
        add = pos[self.add_table[np.ix_(members, members)]]
        mul = pos[self.mul_table[np.ix_(members, members)]]
        if pos[self.zero] < 0 or pos[one] < 0 or (add < 0).any() or (mul < 0).any():
            raise ClosureViolation(f"{label}: member set is not a subring with identity x{one}")
        names = tuple(self.name_array()[members].tolist())
        return FiniteRing.from_tables(label, add, mul, int(pos[self.zero]), int(pos[one]), names)

    def quotient_by(self, members: Sequence[int], label: str | None = None) -> "FiniteRing":
        """Quotient by a two-sided ideal given as a member list.

        Coset representatives are the minimal element index in each coset; the
        result is normalized so the zero and one cosets land at 0 and 1.
        """
        rep = self.add_table[:, np.asarray(members, dtype=np.int64)].min(axis=1)
        reps = np.flatnonzero(rep == np.arange(self.order))
        pos = np.full(self.order, -1, dtype=np.int32)
        pos[reps] = np.arange(len(reps), dtype=np.int32)
        add = pos[rep[self.add_table[np.ix_(reps, reps)]]]
        mul = pos[rep[self.mul_table[np.ix_(reps, reps)]]]
        names = "[" + self.name_array()[reps] + "]"
        return FiniteRing.from_tables(
            label if label is not None else f"{self.label} mod ideal",
            add, mul, int(pos[rep[self.zero]]), int(pos[rep[self.one]]), tuple(names.tolist()))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "add": self.add_table.tolist(),
            "mul": self.mul_table.tolist(),
            "zero": self.zero,
            "one": self.one,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def table_bytes(self) -> bytes:
        """Canonical byte form of the tables, for dedup and determinism checks."""
        return self.order.to_bytes(4, "little") + self.add_table.tobytes() + self.mul_table.tobytes()


@dataclass(frozen=True)
class Elem:
    """A ring element: an index paired with its ring.

    Arithmetic operators delegate to the tables; mixing elements of different
    rings raises ``RingMismatch``.
    """

    index: int
    ring: FiniteRing

    def __post_init__(self):
        if not 0 <= self.index < self.ring.order:
            raise ValueError(f"element index {self.index} out of range for {self.ring.label}")

    def _same_ring(self, other: "Elem") -> None:
        if other.ring is not self.ring:
            raise RingMismatch(f"elements of {self.ring.label} and {other.ring.label}")

    def __add__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring.add(self.index, other.index), self.ring)

    def __mul__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring.mul(self.index, other.index), self.ring)

    def __neg__(self) -> "Elem":
        return Elem(self.ring.neg(self.index), self.ring)

    def __sub__(self, other: "Elem") -> "Elem":
        self._same_ring(other)
        return Elem(self.ring.sub(self.index, other.index), self.ring)

    def __pow__(self, k: int) -> "Elem":
        return Elem(self.ring.pow(self.index, k), self.ring)

    def power_trail(self) -> PowerTrail:
        return self.ring.power_trail(self.index)

    def __repr__(self) -> str:
        return f"<{self.ring.name_of(self.index)} in {self.ring.label}>"


def validate_ring(
    label: str,
    add,
    mul,
    zero: int,
    one: int,
    elem_names: Sequence[str] | None = None,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteRing:
    """Validate candidate tables and return the canonical FiniteRing.

    The error raised on failure names the first violated axiom and carries a
    witness index tuple (see ``errors``).
    """
    return FiniteRing.from_tables(label, add, mul, zero, one, elem_names, order_cap=order_cap)


def load_ring_json(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse the ring JSON format and validate.

    Schema: ``{"label": str, "order": n, "add": [[int]], "mul": [[int]],
    "zero": int, "one": int}`` with row-major tables.  The loader normalizes
    zero to index 0 and one to index 1 by permutation.
    """
    obj = json.loads(text)
    try:
        return validate_ring(obj["label"], obj["add"], obj["mul"], obj["zero"], obj["one"],
                             order_cap=order_cap)
    except KeyError as exc:
        raise RingValidationError(f"ring JSON missing field {exc}") from exc


def load_ring_file(path, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ring_json(fh.read(), order_cap=order_cap)
