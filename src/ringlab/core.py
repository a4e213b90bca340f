"""Finite unital rings as dense element-index tables.

A ring of order n is stored as two n-by-n numpy tables: ``add_table[i, j]``
and ``mul_table[i, j]`` give the index of x_i + x_j and x_i * x_j.  Canonical
rings keep the additive identity at index 0 and the multiplicative identity at
index 1 (index 0 for the order-1 ring); ``FiniteRing.from_tables`` relabels
arbitrary input into that form.

Validation is exact; there are no probabilistic shortcuts.  Commutativity,
identities, inverses and zero annihilation are O(n^2) scans.  The other axioms
are then checked on a greedy additive generating set G of at most log2(n)
elements, where each step is a theorem:

1. Associativity of +, by Light's test: the elements g with
   (x+g)+y = x+(g+y) for all x, y form a sub-magma, so when the test holds on
   G it holds on every sum of generators, which is every element.
2. Distributivity: once + is associative, the elements c with
   a*(b+c) = a*b + a*c (and (b+c)*a = b*a + c*a) for all a, b are closed
   under +, so checking c in G suffices.
3. Associativity of *: the associator is additive in each argument, so it
   vanishes everywhere once it vanishes on G^3.

A table that fails the generator check is rescanned on every triple, one law
after another (right then left distributivity, associativity of + then of *),
so a rejection names the first failing law and its least witness at every
order.  Rings are immutable after validation (the tables are frozen), so every
operation in the package is a pure read and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Sequence

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


def _as_table(table, order: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(table, dtype=np.int32)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RingValidationError(f"{name} table is not an integer array: {exc}") from exc
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
        g = int(np.argmin(reached))
        yield g
        _join_cyclic(add, reached, g)


def _join_cyclic(add: np.ndarray, reached: np.ndarray, y: int) -> None:
    """Grow the mask ``reached`` in place by its sums with y, y+y, (y+y)+(y+y), ...

    Each round adds the sums of the reached set with the current step, then
    doubles the step, until a round adds nothing.  If + is a group and
    ``reached`` a subgroup H, after k rounds it is H + {0, y, ..., (2^k - 1)y},
    and a round that adds nothing means it is closed under adding 2^k y, hence
    under adding y: the result is the subgroup generated by H and y.
    """
    step = y
    while True:
        sums = add[reached, step]
        if reached[sums].all():
            return
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

    The O(n^2) axioms are scanned in full.  Associativity of + (Light's
    test), distributivity and associativity of * are then checked on a greedy
    additive generating set G of at most log2(n) elements, which decides them
    for the whole ring (see the module docstring); only a table that fails
    that check gets the full cubic scan, which finds the first failing law and
    its least witness.

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
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (zero, one)):
        raise RingValidationError(f"zero/one indices must be integers, got {zero!r}/{one!r}")
    if not (0 <= zero < order and 0 <= one < order):
        raise RingValidationError(f"zero/one indices {zero}/{one} out of range")
    if zero == one and order > 1:
        raise RingValidationError("zero and one coincide in a ring of order > 1")

    _check_quadratic_axioms(add, mul, zero, one)
    if not _holds_on_generators(add, mul, zero):
        _full_scan(add, mul)
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
    coset representatives, ...).  Instances are immutable.  Derived data
    (unit masks, power matrix, radicals, spectra, ...) is built lazily, once
    per ring, through ``memo(key, build)``: the key names the computation and
    never its caps, ndarray values are stored read-only, and a ``None`` value
    is stored like any other.  Concurrent readers are safe; worst case a value
    is recomputed.
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

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value stored under ``key``, else ``build()``, stored and returned.

        A key names one computation, such as ``"units_mask"`` or
        ``("quotient", members, label)``; callers check caps on every call,
        outside the key.  A ``build`` that raises stores nothing.
        """
        if key in self._memo:
            return self._memo[key]
        value = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self._memo[key] = value
        return value

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
        return self.memo("neg_table",
                         lambda: np.argmax(self.add_table == self.zero, axis=1).astype(np.int32))

    @property
    def sub_table(self) -> np.ndarray:
        """sub_table[x, y] = x - y."""
        return self.memo("sub_table", lambda: self.add_table[:, self.neg_table])

    def additive_generators(self) -> np.ndarray:
        """A generating set G of (R, +) with at most log2(order) elements.

        Every element is a sum of members of G; built greedily, least index
        first, and memoised.
        """
        return self.memo("additive_generators", lambda: np.array(
            list(_additive_generators(self.add_table, self.zero)), dtype=np.intp))

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
        return self.memo("trails", lambda: [self.power_trail(x) for x in range(self.order)])

    def power_matrix(self) -> np.ndarray:
        """``powers[x, k] = x^(k+1)`` for k = 0..L, L the longest power trail.

        Row x starts with the distinct-power trail of x, and the last column,
        x^(L+1), repeats an earlier column of every row, so any power of x
        equals some entry of its row.  Built one column at a time by a gather
        of ``mul_table``, stopping once every row has repeated a value.
        """
        def build() -> np.ndarray:
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
            return np.stack(cols, axis=1)

        return self.memo("power_matrix", build)

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


def _reject_float(literal: str):
    # json.loads would otherwise hand np.asarray a float, which int32 truncates
    raise RingValidationError(f"ring JSON holds a non-integer number {literal}")


# What the loader's lexer stops at, outside the tables: a string literal (to
# its closing quote, or to the end when unterminated), the opening "[[" of an
# array of arrays, and the constants json.loads would read as floats.
_TOKEN = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?|\[[ \t\n\r]*\[|NaN|Infinity', re.S)
# The first "]]" (with JSON whitespace between) closes a matrix whose rows
# hold only numbers.
_MATRIX_END = re.compile(rb'\][ \t\n\r]*\]')
_BLANK = np.frombuffer(b" \t\n\r", dtype=np.uint8)


def _int_matrix(run: np.ndarray) -> np.ndarray | None:
    """The n x n int32 table spelled by ``run``, else None.

    ``run`` holds the bytes from an opening "[[" to a closing "]]".  It counts
    only when it is exactly a JSON array of n arrays of n non-negative decimal
    integers: no leading zeros, no empty slots, no ragged or deeper rows, at
    most 9 digits a number (so every value fits int32), and JSON whitespace
    only between tokens.  Its non-digit bytes must then spell the canonical
    skeleton ``[[,,],[,,],[,,]]`` for n, and the digit runs between them fill
    exactly the number slots.
    """
    digit = (run - 48) < 10  # uint8 wraps, so only b"0".."9" land below 10
    if (run < 44).any():  # JSON whitespace (or a stray byte) sorts below ","
        keep = np.flatnonzero(~np.isin(run, _BLANK))
        if (digit[keep[:-1]] & digit[keep[1:]] & (np.diff(keep) > 1)).any():
            return None  # whitespace inside a number
        run, digit = run[keep], digit[keep]
    sep = np.flatnonzero(~digit)
    n = math.isqrt(sep.size) - 1
    if (n + 1) ** 2 != sep.size:
        return None
    row = b"[" + b"," * (n - 1) + b"]"
    if run[sep].tobytes() != b"[" + b",".join([row] * n) + b"]":
        return None
    # row i's separators: its "[", n - 1 commas, its "]" and the comma after
    # it (the last row has none; that slot is never read)
    bounds = np.empty(n * (n + 2), dtype=sep.dtype)
    bounds[:-1] = sep[1:-1]
    bounds = bounds.reshape(n, n + 2)
    start = bounds[:, :n] + 1
    width = bounds[:, 1:n + 1] - start
    if width.sum() != run.size - sep.size or width.min() < 1 or width.max() > 9:
        return None  # digits outside the slots, an empty slot, or a long number
    lead = run[start]
    if ((lead == 48) & (width > 1)).any():
        return None
    table = lead.astype(np.int32) - 48
    for k in range(1, int(width.max())):
        digit_k = run.take(start + k, mode="clip")
        table = np.where(width > k, table * 10 + digit_k - 48, table)
    return table


def _ring_fields(text: str) -> tuple:
    """Label, add, mul, zero and one of a ring JSON text, type-checked.

    Each table that ``_int_matrix`` accepts goes to numpy straight from the
    text and is read back by ``json.loads`` as a ``NaN`` placeholder, in
    document order; a ``NaN`` or ``Infinity`` the text itself holds is
    rejected there as a non-integer number.  Every other table is parsed to
    lists, whose cells must be ints.  Substituting a table is never required
    for a correct result, only for speed: any run the lexer gives up on stays
    in the text.
    """
    data = text.encode("utf-8", "surrogatepass")
    tables: list[np.ndarray | None] = []  # one per constant json.loads will meet
    pieces, done, pos = [], 0, 0
    while (token := _TOKEN.search(data, pos)) is not None:
        start, pos = token.span()
        first = data[start]
        if first == ord('"'):
            continue
        if first != ord("["):
            tables.append(None)
            continue
        close = _MATRIX_END.search(data, start)
        if close is None:
            break  # no matrix can start here or later
        end = close.end()
        table = _int_matrix(np.frombuffer(data, np.uint8, end - start, start))
        if table is not None:
            tables.append(table)
            pieces += (data[done:start], b"NaN")
            done = end
        elif any(data.find(c, start, end) >= 0 for c in (b'"', b"N", b"I")):
            # The run may open a string or hold a constant, so lexing would
            # have to resume inside it; rescanning overlapping runs could take
            # quadratic time, so the rest of the text parses as lists.
            break
        pos = end
    pieces.append(data[done:])
    del data
    placeholders = iter(tables)

    def constant(name: str):
        table = next(placeholders, None)
        if table is None:
            raise RingValidationError(f"ring JSON holds a non-integer number {name}")
        return table

    obj = json.loads(b"".join(pieces).decode("utf-8", "surrogatepass"),
                     parse_float=_reject_float, parse_constant=constant)
    if not isinstance(obj, dict):
        raise RingValidationError(f"ring JSON must be an object, got {type(obj).__name__}")
    try:
        label, add, mul, zero, one = (obj[k] for k in ("label", "add", "mul", "zero", "one"))
    except KeyError as exc:
        raise RingValidationError(f"ring JSON missing field {exc}") from exc
    if type(label) is not str:
        raise RingValidationError(f"ring JSON label must be a string, got {type(label).__name__}")
    for name, table in (("add", add), ("mul", mul)):
        if not (isinstance(table, np.ndarray) or type(table) is list and all(
                type(row) is list and all(type(v) is int for v in row) for row in table)):
            raise RingValidationError(f"ring JSON {name} must be an array of rows of integers")
    if "order" in obj and (type(obj["order"]) is not int or obj["order"] != len(add)):
        raise RingValidationError(
            f"ring JSON order {obj['order']!r} does not match the {len(add)} rows of add")
    return label, add, mul, zero, one


def load_ring_json(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse the ring JSON format and validate.

    Schema: ``{"label": str, "order": n, "add": [[int]], "mul": [[int]],
    "zero": int, "one": int}`` with row-major tables, in any JSON whitespace
    layout.  The loader normalizes zero to index 0 and one to index 1 by
    permutation.  A fractional number, ``NaN`` or ``Infinity`` anywhere, a
    table entry that is not an integer (a string, a boolean, null), a label
    that is not a string, or an ``order`` other than the number of rows of
    ``add``, is rejected.
    """
    fields = _ring_fields(text)
    del text  # the tables are all validation needs; let the text go first
    try:
        return validate_ring(*fields, order_cap=order_cap)
    except RingValidationError as exc:
        # The frames of the validators hold the tables.  A caller that keeps
        # the error in a reference cycle (a frame its own traceback reaches)
        # would pin them until the next garbage collection, and this loader
        # allocates too few objects to trigger one; the report needs only
        # the message and the witness.
        del fields
        raise exc.with_traceback(None)


def load_ring_file(path, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ring_json(fh.read(), order_cap=order_cap)
