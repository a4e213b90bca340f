"""Finite unital rings as dense element-index tables.

A ring of order n is stored as two n-by-n numpy tables: ``add_table[i, j]``
and ``mul_table[i, j]`` give the index of x_i + x_j and x_i * x_j.  Canonical
rings keep the additive identity at index 0 and the multiplicative identity at
index 1 (index 0 for the order-1 ring).  Every ring is made from a pair of
tables it owns, relabelled into that form in place (``FiniteRing._canonical``),
so one pair is live while a ring is built: ``from_tables`` copies what its
caller passed, while the constructors, ``subring``, ``quotient_by`` and the
ring-file loader hand over tables they built.  The loader reads a file as
bytes and fills the int32 tables a block of rows at a time.

Validation is exact; there are no probabilistic shortcuts.  Commutativity,
identities, inverses and zero annihilation are O(n^2) scans.  The other axioms
are then checked on a greedy additive generating set G of at most log2(n)
elements, where each step is a theorem:

1. Associativity of +, by Light's test: the elements g with
   (x+g)+y = x+(g+y) for all x, y contain 0 and are closed under +, so when
   the test holds on G it holds on every sum of generators, every element.
2. Distributivity: once + is associative, the elements c with
   (b+c)*a = b*a + c*a for all a, b are closed under +, so checking c in G
   decides right distributivity.  Every right multiplication x -> x*a is
   then additive, so for each b, c the map a -> a*(b+c) - a*b - a*c is
   additive in a and vanishes everywhere once it vanishes on G.  For a
   fixed a the elements c with a*(b+c) = a*b + a*c for all b are again
   closed under +, so left distributivity needs only a and c in G.
3. Associativity of *: the associator is additive in each argument, so it
   vanishes everywhere once it vanishes on G^3.

A table is rejected at the first check that fails, with a witness that
breaks the law the error names.  Rings are immutable after validation (the
tables are frozen), so every operation is a pure read, safe across threads.

Rings derived from a ring R, and the structured rings of ``construct``, are
not validated again: each is a ring by theorem, behind the exact check that
theorem needs.

* ``FiniteRing.subring``: a subset S of R that contains 0, is closed under +
  and *, and has an element fixing every member on both sides is a ring.  The laws
  of R (commutativity and associativity of +, distributivity, associativity
  of *) are identities, so they hold on S; negation needs no check, since a
  finite subset of a group that is closed under + is a subgroup.  Closure and
  the identity are checked in O(|S|^2).
* ``FiniteRing.quotient_by``: once the members are checked to form a
  two-sided ideal I (``FiniteRing.ideal_witness``), + and * are well defined
  on the cosets, and every identity of R holds for the cosets because it
  holds for their representatives, so R/I is a ring with identity 1 + I.
* The constructors ``zmod``, ``gf``, ``zn_alpha``, ``product`` and the matrix
  families (``matrix_ring``, ``upper_triangular``, ``equal_diagonal_subring``,
  ``gf4_triangular_example``): Z/n, Z/p[x]/(f) for monic f, and R x S are
  rings by theorem and need no check; a matrix family is a subring of
  M_k(R), checked for closure under + and * and for an identity.  Each
  constructor's docstring states its theorem.

Every table handed in from outside (``from_tables``, ring files) still gets
the full validation, and so does ``construct.ideal_extension``, whose
validation decides the bimodule laws of its spec.
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
    NotAnIdeal,
    NotDistributive,
    OrderCapExceeded,
    RingMismatch,
    RingValidationError,
)

DEFAULT_ORDER_CAP = 4096

# cells per row block of every whole-ring kernel (``_row_blocks``) and, as the
# largest of their growing blocks, of the witness scans (``_growing_blocks``)
_ROW_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``(start, stop)`` covering ``range(rows)``, each
    of ``_ROW_BLOCK_CELLS`` cells of ``width`` each (at least one row).

    The constant is read on every call, so a kernel that walks its rows
    through here keeps its temporaries to one block of cells.
    """
    step = max(1, _ROW_BLOCK_CELLS // max(width, 1))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def _next_powers(mul: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """x^(k+1) = x^k * x for every x, from the vector of x^k: one ``take`` of
    the flat table at n*x^k + x."""
    n = len(mul)
    return mul.ravel().take(np.multiply(powers, n, dtype=np.intp) + np.arange(n))


def _growing_blocks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``(start, stop)`` covering ``range(rows)``.

    The first holds a sixteenth of ``_ROW_BLOCK_CELLS`` (read on every
    call) cells of ``width`` each, at least one row, and each next one twice
    as many rows, up to ``_ROW_BLOCK_CELLS`` cells.  A scan that stops at
    its first failing block then pays little for an early failure and, on a
    whole scan, only a few more block steps than with fixed blocks.
    """
    most = max(1, _ROW_BLOCK_CELLS // width)
    size = max(1, _ROW_BLOCK_CELLS // 16 // width)
    start = 0
    while start < rows:
        yield start, min(start + size, rows)
        start += size
        size = min(2 * size, most)


def _normalize_in_place(table: np.ndarray, zero: int, one: int) -> np.ndarray:
    """Relabel an n x n table in place so that zero is index 0 and one index 1.

    Every other index keeps its relative order, so it moves up by at most
    two places: by two below min(zero, one), by one between them, and not at
    all above.  Rows zero and one are saved, then the rows move as slice
    copies a row block at a time (``_row_blocks``), highest block first, so
    no row is overwritten before it is read; each block's columns move the
    same way and its values map through one ``take``.  Returns the map from
    old index to new.
    """
    n = len(table)
    lo, hi = sorted((zero, one))
    new_of_old = np.arange(n, dtype=np.int32)
    new_of_old[:lo] += 2
    new_of_old[lo + 1:hi] += 1
    new_of_old[zero], new_of_old[one] = 0, 1
    # (first new index, end, places moved) of each nonempty run of moved indices
    runs = [(first, end, shift) for first, end, shift in
            ((hi + 1, n, 0), (lo + 2, hi + 1, 1), (2, lo + 2, 2)) if first < end]

    def relabel(rows: np.ndarray, out: np.ndarray) -> None:
        moved = np.empty_like(rows)
        moved[:, 0], moved[:, 1] = rows[:, zero], rows[:, one]
        for first, end, shift in runs:
            moved[:, first:end] = rows[:, first - shift:end - shift]
        new_of_old.take(moved, out=out, mode="clip")  # "clip" writes out unbuffered

    head = table.take((zero, one), axis=0)
    for first, end, shift in runs:
        for start, stop in reversed(list(_row_blocks(end - first, n))):
            relabel(table[first + start - shift:first + stop - shift],
                    table[first + start:first + stop])
    relabel(head, table[:2])
    return new_of_old


def _unshared(table: np.ndarray, passed) -> np.ndarray:
    """``table``, or a copy of it when it may share memory with ``passed``,
    the value it was converted from: only a list or tuple, or an array
    whose memory ``table`` does not overlap, is known to share none."""
    if isinstance(passed, (list, tuple)) or (
            isinstance(passed, np.ndarray) and not np.may_share_memory(table, passed)):
        return table
    return table.copy()


def _as_table(table, order: int, name: str) -> np.ndarray:
    try:
        arr = np.ascontiguousarray(table, dtype=np.int32)  # row gathers need C order
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
    bad = _unfixed_by(mul, one)
    if bad is not None:
        raise NoIdentity(f"declared identity x{one} does not fix x{bad}", (one, bad))
    if not ((mul[zero] == zero).all() and (mul[:, zero] == zero).all()):
        bad = int(np.flatnonzero((mul[zero] != zero) | (mul[:, zero] != zero))[0])
        raise NotDistributive(f"0*x{bad} or x{bad}*0 nonzero", (zero, bad, bad))


def _unfixed_by(mul: np.ndarray, one: int) -> int | None:
    """The least x with one*x != x or x*one != x, else None."""
    idx = np.arange(mul.shape[0])
    bad = np.flatnonzero((mul[one] != idx) | (mul[:, one] != idx))
    return int(bad[0]) if bad.size else None


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


def _require(lhs: np.ndarray, rhs: np.ndarray, error: type, message: str,
             witness: Callable[..., tuple[int, ...]]) -> None:
    """Raise ``error`` at the first cell where the two sides of a law differ,
    with the triple ``witness`` makes of that cell's index."""
    if not np.array_equal(lhs, rhs):
        triple = witness(*_first_mismatch(lhs, rhs))
        raise error(message.format(*triple), triple)


def _check_on_generators(add: np.ndarray, mul: np.ndarray, zero: int) -> None:
    """Raise the first failure of + associative, * distributive and *
    associative, decided on a greedy additive generating set G (see the
    module docstring) for tables that passed the O(n^2) checks.

    Each generator g is checked as soon as it is chosen, a block of rows x
    at a time: right distributivity (x+g)*a, then Light's test (x+g)+y.
    Then left distributivity for a, c in G, then associativity of * on G^3.
    The witness, (x, g, a), (x, g, y), (a, b, c) or (g_i, g_j, g_k), is the
    first mismatch of the failing block or gather: it breaks its named law,
    though it need not be the least triple that breaks some law.

    No bound on |G| is needed.  The elements that pass Light's test contain
    0 and are closed under +: for g, h among them, (x+(g+h))+y =
    ((x+g)+h)+y = (x+g)+(h+y) = x+(g+(h+y)) = x+((g+h)+y).  The reached set
    only ever holds sums of generators that passed, so if the loop reaches
    every element (at most n rounds), + is associative; otherwise Light's
    test fails at some generator, with a witness.
    """
    n = add.shape[0]
    sums = add.ravel()
    gens: list[int] = []
    for g in _additive_generators(add, zero):
        gens.append(g)
        # + is commutative, so row g of add lists x+g, and the flat index
        # n*(g*a) + x*a names the cell add[g*a, x*a] = x*a + g*a
        ga_cell = mul[g].astype(np.intp) * n
        for start, stop in _row_blocks(n, n):
            x_plus_g = add[g, start:stop]
            _require(mul.take(x_plus_g, axis=0), sums.take(ga_cell + mul[start:stop]),
                     NotDistributive, "right: (x{0}+x{1})*x{2} != x{0}*x{2} + x{1}*x{2}",
                     lambda i, a: (start + i, g, a))
            _require(add.take(x_plus_g, axis=0), add[start:stop].take(add[g], axis=1),
                     NotAbelianGroupUnderAdd, "(x{0}+x{1})+x{2} != x{0}+(x{1}+x{2})",
                     lambda i, y: (start + i, g, y))
    at = np.array(gens, dtype=np.intp)
    ab = mul.take(at, axis=0)
    gg = ab.take(at, axis=1)
    # a*(b+c) == a*b + a*c for a, c in G and every b, gathered as [a, c, b]
    _require(ab[:, add[at]], add[ab[:, None, :], gg[:, :, None]],
             NotDistributive, "left: x{0}*(x{1}+x{2}) != x{0}*x{1} + x{0}*x{2}",
             lambda i, j, b: (gens[i], b, gens[j]))
    _require(mul[gg[:, :, None], at], mul[at[:, None, None], gg],
             NonAssociativeMul, "(x{0}*x{1})*x{2} != x{0}*(x{1}*x{2})",
             lambda i, j, k: (gens[i], gens[j], gens[k]))


def validate_tables(
    add,
    mul,
    zero: int,
    one: int,
    order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Check every ring axiom on candidate tables, exactly.

    The O(n^2) axioms are scanned in full.  Associativity of + (Light's
    test), distributivity and associativity of * are then checked on a greedy
    additive generating set G of at most log2(n) elements, which decides them
    for the whole ring (see the module docstring and
    ``_check_on_generators``).

    Returns the tables as int32 arrays; otherwise raises a
    ``RingValidationError`` subclass for the first check that fails, with a
    witness tuple of element indices that breaks the named law.
    """
    if order < 1:
        raise RingValidationError(f"order must be positive, got {order}")
    add = _as_table(add, order, "add")
    mul = _as_table(mul, order, "mul")
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (zero, one)):
        raise RingValidationError(f"zero/one indices must be integers, got {zero!r}/{one!r}")
    if not (0 <= zero < order and 0 <= one < order):
        raise RingValidationError(f"zero/one indices {zero}/{one} out of range")
    if zero == one and order > 1:
        raise RingValidationError("zero and one coincide in a ring of order > 1")

    _check_quadratic_axioms(add, mul, zero, one)
    _check_on_generators(add, mul, zero)
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
    is stored like any other.  Every value is a function of the tables alone
    (they fix zero and one), so rings with equal tables may share one memo:
    the rings of one catalog do (``share_memo``).  Concurrent readers are
    safe; worst case a value is recomputed.
    """

    label: str
    order: int
    add_table: np.ndarray
    mul_table: np.ndarray
    zero: int = 0
    one: int = 0
    elem_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, repr=False)
    # one catalog's map from table bytes to the first ring with those tables
    _twins: dict | None = field(default=None, init=False, repr=False)

    @staticmethod
    def from_tables(
        label: str,
        add,
        mul,
        zero: int,
        one: int,
        elem_names: Sequence[str] | None = None,
    ) -> "FiniteRing":
        """Validate candidate tables and return the canonical ring.

        The error raised on failure names the first failing check, with a
        witness index tuple that breaks the named law (see ``errors``).
        ``elem_names``, when given, must hold one ``str`` per element, else
        ``RingValidationError``.  The ring keeps its own copy of the tables,
        so the arrays passed stay as they were, writable.  No order cap is
        applied here: the constructors and the loader check theirs before
        they allocate tables.
        """
        checked = validate_tables(add, mul, zero, one, len(add))
        if elem_names is not None:
            elem_names = tuple(elem_names)
            if len(elem_names) != len(add):
                raise RingValidationError(
                    f"elem_names has {len(elem_names)} names for a ring of order {len(add)}")
            bad = [x for x in elem_names if not isinstance(x, str)]
            if bad:
                raise RingValidationError(f"elem_names holds {bad[0]!r}, not a str")
        add, mul = (_unshared(table, passed) for table, passed in zip(checked, (add, mul)))
        return FiniteRing._canonical(label, add, mul, zero, one, elem_names)

    @staticmethod
    def _canonical(label: str, add: np.ndarray, mul: np.ndarray, zero: int, one: int,
                   elem_names: Sequence[str] | None) -> "FiniteRing":
        """The ring on int32 tables that are known to be a ring, normalized and
        frozen: after ``validate_tables`` in ``from_tables`` and the loader,
        or after the checks of ``subring``, ``quotient_by`` or a constructor's
        theorem (see the module docstring).

        The ring takes the tables over: they are normalized in place
        (``_normalize_in_place``) and made read-only, so no second pair is
        built beside them.
        """
        names = tuple(elem_names) if elem_names is not None else None
        if zero != 0 or (one != 1 and len(add) > 1):
            new_of_old = _normalize_in_place(add, zero, one)
            _normalize_in_place(mul, zero, one)
            if names is not None:
                names = tuple(np.array(names, dtype=object)[np.argsort(new_of_old)].tolist())
            zero, one = 0, 1
        add.setflags(write=False)
        mul.setflags(write=False)
        return FiniteRing(label, len(add), add, mul, zero, one, names)

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value stored under ``key``, else ``build()``, stored and returned.

        A key names one computation, such as ``"units_mask"`` or
        ``("ideal_witness", members)``; callers check caps on every call,
        outside the key.  A ``build`` that raises stores nothing.  The memo
        may be shared with rings of equal tables (``share_memo``), so a value
        that names its ring, such as an ``Ideal`` or a label, is either keyed
        per ring or rebound to the ring that asks.
        """
        if key in self._memo:
            return self._memo[key]
        value = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self._memo[key] = value
        return value

    def share_memo(self, twins: dict[bytes, "FiniteRing"]) -> None:
        """Share one memo with the rings of equal tables in ``twins``.

        ``twins`` maps ``table_bytes()`` to the first ring with those tables;
        ``construct.default_catalog`` makes one per catalog, so nothing is
        shared between two catalogs.  This ring becomes the first ring for
        its tables, or adopts that ring's memo.  Every ring it derives later
        joins ``twins`` too (``derived``).
        """
        first = twins.setdefault(self.table_bytes(), self)
        self._memo, self._twins = first._memo, twins

    def derived(self, key: Hashable, label: str | None, default: str,
                build: Callable[[str], "FiniteRing"]) -> "FiniteRing":
        """The derived ring ``build(label)``, memoised per ``key`` and label.

        Without a ``label``, the first ring built under ``key`` is reused,
        whatever it is called; if there is none, one is built as ``default``.
        A derived ring carries this ring's names, so its memo keys hold this
        ring object: twins that share a memo (``share_memo``) never share
        derived rings.  A ring derived from a ring in ``twins`` joins them,
        and so adopts the memo of the first ring with its tables.
        """
        if label is None:
            label = self.memo(("label", self, key), lambda: default)
        else:
            self.memo(("label", self, key), lambda: label)

        def build_and_share() -> FiniteRing:
            ring = build(label)
            if self._twins is not None:
                ring.share_memo(self._twins)
            return ring

        return self.memo((self, key, label), build_and_share)

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
        base = self.elem(x).index
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
        return self.memo("sub_table", lambda: self.add_table.take(self.neg_table, axis=1))

    def additive_generators(self) -> np.ndarray:
        """A generating set G of (R, +) with at most log2(order) elements.

        Every element is a sum of members of G; built greedily, least index
        first, and memoised.
        """
        return self.memo("additive_generators", lambda: np.array(
            list(_additive_generators(self.add_table, self.zero)), dtype=np.intp))

    def power_trail(self, x: int) -> PowerTrail:
        """Successive powers of x up to (excluding) the first repetition."""
        x = self.elem(x).index
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
        equals some entry of its row.  Built one column at a time, stopping
        once every row has repeated a value: x^(k+1) = x^k * x is read from
        the flat ``mul_table`` (``_next_powers``), and whether row x has met
        a power before from a flat n*n mask at n*x + x^(k+1), one ``take``
        each.
        """
        def build() -> np.ndarray:
            n = self.order
            idx = np.arange(n, dtype=np.intp)
            row = idx * n
            seen = np.zeros(n * n, dtype=bool)
            seen[row + idx] = True
            cols = [idx.astype(np.int32)]
            trail_open = np.ones(n, dtype=bool)
            while trail_open.any():
                nxt = _next_powers(self.mul_table, cols[-1])
                cell = row + nxt
                trail_open &= ~seen.take(cell)
                seen[cell] = True
                cols.append(nxt)
            return np.stack(cols, axis=1)

        return self.memo("power_matrix", build)

    # -- element objects ------------------------------------------------------

    def elem(self, index: int) -> "Elem":
        return Elem(index, self)

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

    def relabeled(self, old_order: Sequence[int]) -> "FiniteRing":
        """Rebuild with new index k standing for old index old_order[k].

        ``old_order`` must be a permutation of 0..order-1, else
        ``ValueError``.  Zero and one go wherever the permutation sends them:
        the result is not normalized.  Each table is gathered with ``take``
        (on a wide permutation far cheaper than a two-index gather) and
        mapped a block of rows at a time, so no n-by-n temporary is live
        beside the result.
        """
        old_order = np.asarray(old_order, dtype=np.intp)
        if old_order.shape != (self.order,):
            raise ValueError(f"a relabeling of {self.label} needs {self.order} indices, "
                             f"got an array of shape {old_order.shape}")
        if not np.array_equal(np.sort(old_order), np.arange(self.order)):
            raise ValueError(f"a relabeling of {self.label} must list each index "
                             f"0..{self.order - 1} once, got {old_order.tolist()}")
        new_of_old = np.empty(self.order, dtype=np.int32)
        new_of_old[old_order] = np.arange(self.order, dtype=np.int32)

        def relabel(table: np.ndarray) -> np.ndarray:
            out = np.empty((self.order, self.order), dtype=np.int32)
            for start, stop in _row_blocks(self.order, self.order):
                block = table.take(old_order[start:stop], axis=0).take(old_order, axis=1)
                out[start:stop] = new_of_old.take(block)
            return out

        add, mul = relabel(self.add_table), relabel(self.mul_table)
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

        Used for corners eRe (where ``one`` is the idempotent e).  A member or
        ``one`` outside [0, order), or a member set that does not contain zero
        and ``one`` or is not closed under + and *, raises
        ``ClosureViolation``; a ``one`` that does not fix every member on both
        sides raises ``NoIdentity``.  A set that passes both is a ring by
        theorem (see the module docstring), so the result, normalized, is not
        validated again.
        """
        members = np.unique(np.asarray(members, dtype=np.int64))
        if not 0 <= one < self.order or members.size and (
                members[0] < 0 or members[-1] >= self.order):
            raise ClosureViolation(f"{label}: an index is out of range [0, {self.order})")
        pos = np.full(self.order, -1, dtype=np.int32)
        pos[members] = np.arange(len(members), dtype=np.int32)
        add = pos[self.add_table.take(members, axis=0).take(members, axis=1)]
        mul = pos[self.mul_table.take(members, axis=0).take(members, axis=1)]
        if pos[self.zero] < 0 or pos[one] < 0 or (add < 0).any() or (mul < 0).any():
            raise ClosureViolation(f"{label}: member set is not a subring with identity x{one}")
        bad = _unfixed_by(mul, int(pos[one]))
        if bad is not None:
            x = int(members[bad])
            raise NoIdentity(f"{label}: x{one} does not fix member x{x}", (one, x))
        names = tuple(self.name_array()[members].tolist())
        return FiniteRing._canonical(label, add, mul, int(pos[self.zero]), int(pos[one]), names)

    def ideal_witness(self, members: Sequence[int]) -> tuple[int, ...] | None:
        """Why ``members`` is not a two-sided ideal of this ring.

        Returns None for a two-sided ideal; () for an empty set or one with a
        member outside [0, order); otherwise the first pair whose result
        leaves the set: two members (m1, m2) with m1 + m2 outside, else
        (r, m) with r*m outside, else (m, r) with m*r outside, each scanned
        row-major in the given member order.  Zero and negation need no
        check: a nonempty finite subset S of a group that is closed under +
        is a subgroup.  Then, as every r is a sum of additive generators and
        * distributes over +, S is an ideal once g*s and s*g lie in S for
        every generator g and every s in S; only a set that fails that check
        is scanned for its first escaping pair.

        Each scan gathers growing blocks of rows (``_growing_blocks``) and
        returns at the first block holding an escape.  The blocks cover the
        rows in order and each is searched row-major, so the first escape of
        the first such block is the first escape of the whole scan: the
        witness is the one a single full gather would give.  The result
        depends only on the member array in its given order, so it is
        memoised under that array: re-checking an ideal already checked on
        this ring (``quotient_by`` after ``jacobson_radical``, the
        intersections of ``subsets.spectrum``) is a lookup.
        """
        mem = np.asarray(members, dtype=np.int64).ravel()
        return self.memo(("ideal_witness", mem.tobytes()), lambda: self._ideal_witness(mem))

    def _ideal_witness(self, mem: np.ndarray) -> tuple[int, ...] | None:
        if mem.size == 0 or mem.min() < 0 or mem.max() >= self.order:
            return ()
        mask = np.zeros(self.order, dtype=bool)
        mask[mem] = True

        def first_escape(rows, cols, gather) -> tuple[int, int] | None:
            for start, stop in _growing_blocks(len(rows), len(cols)):
                inside = mask.take(gather(start, stop))
                if not inside.all():
                    i, j = divmod(int(inside.argmin()), len(cols))
                    return int(rows[start + i]), int(cols[j])
            return None

        add, mul = self.add_table, self.mul_table
        witness = first_escape(mem, mem, lambda a, b: add.take(mem[a:b], axis=0).take(mem, axis=1))
        if witness is not None:
            return witness
        gens = self.additive_generators()
        if (mask[mul.take(gens, axis=0).take(mem, axis=1)].all()
                and mask[mul.take(mem, axis=0).take(gens, axis=1)].all()):
            return None
        everything = np.arange(self.order)
        return (first_escape(everything, mem, lambda a, b: mul[a:b].take(mem, axis=1))
                or first_escape(mem, everything, lambda a, b: mul.take(mem[a:b], axis=0)))

    def quotient_by(self, members: Sequence[int], label: str) -> "FiniteRing":
        """Quotient by a two-sided ideal given as a member list.

        Precondition, checked first on this ring's tables: the members form a
        two-sided ideal (``ideal_witness``), else ``NotAnIdeal`` is raised.  The
        quotient is then a ring by theorem (see the module docstring), so it
        is not validated again.  Coset representatives are the minimal element
        index in each coset; the result is normalized so the zero and one
        cosets land at 0 and 1.
        """
        members = np.asarray(members, dtype=np.int64)
        if self.ideal_witness(members) is not None:
            raise NotAnIdeal(f"{self.label}: {tuple(members.tolist())} is not a two-sided ideal")
        rep = self.add_table[:, members].min(axis=1)
        reps = np.flatnonzero(rep == np.arange(self.order))
        pos = np.full(self.order, -1, dtype=np.int32)
        pos[reps] = np.arange(len(reps), dtype=np.int32)
        add = pos[rep[self.add_table.take(reps, axis=0).take(reps, axis=1)]]
        mul = pos[rep[self.mul_table.take(reps, axis=0).take(reps, axis=1)]]
        names = "[" + self.name_array()[reps] + "]"
        return FiniteRing._canonical(label, add, mul, int(pos[rep[self.zero]]),
                                     int(pos[rep[self.one]]), tuple(names.tolist()))

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

    def __repr__(self) -> str:
        return f"<{self.ring.name_of(self.index)} in {self.ring.label}>"


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

    The n + 1 bytes "]" fix n and the rows; the whole run is read only to
    find them (``_row_ends``).  The table is then filled a block of rows at
    a time (``_row_blocks``), each block checked and decoded on its own
    (``_decode_rows``), so every index array is the size of a block.
    """
    ends = _row_ends(run)
    if ends is None or run[0] != ord("[") or ends[-1] != run.size - 1:
        return None
    n = ends.size - 1
    if not np.isin(run[ends[-2] + 1:ends[-1]], _BLANK).all():
        return None  # the last row's "]" and the final "]" hold only whitespace
    table = np.empty((n, n), dtype=np.int32)
    for start, stop in _row_blocks(n, n):
        # from just after the "]" that ends the row before (or the outer "[")
        first = ends[start - 1] + 1 if start else 1
        if not _decode_rows(run[first:ends[stop - 1] + 1], start > 0, table[start:stop]):
            return None
    return table


def _row_ends(run: np.ndarray) -> np.ndarray | None:
    """The offsets of every "]" in ``run``, found 16 row blocks of bytes at a
    time; None once there are more than isqrt(run.size), since a table of n
    rows spells (n + 1)^2 separators."""
    most, step = math.isqrt(run.size), 16 * _ROW_BLOCK_CELLS
    ends, found = [], 0
    for start in range(0, run.size, step):
        ends.append(np.flatnonzero(run[start:start + step] == ord("]")) + start)
        found += ends[-1].size
        if found > most:
            return None
    return np.concatenate(ends) if found > 1 else None


def _decode_rows(block: np.ndarray, after_row: bool, out: np.ndarray) -> bool:
    """Decode the rows of ``out`` (each of n numbers) from ``block`` into it.

    ``block`` runs from just after the "]" of the row before, so it opens
    with that row's "," when ``after_row``, to the "]" of its last row.
    Returns whether it spells exactly those rows (see ``_int_matrix``).
    """
    rows, n = out.shape
    value = block - 48  # uint8 wraps, so only b"0".."9" land below 10
    if (block < 44).any():  # JSON whitespace (or a stray byte) sorts below ","
        digit = value < 10
        keep = np.flatnonzero(~np.isin(block, _BLANK))
        if (digit[keep[:-1]] & digit[keep[1:]] & (np.diff(keep) > 1)).any():
            return False  # whitespace inside a number
        block, value = block[keep], value[keep]
    sep = np.flatnonzero(value > 9)
    row = b"[" + b"," * (n - 1) + b"]"
    if block[sep].tobytes() != b"," * after_row + b",".join([row] * rows):
        return False
    # row i's separators, a view: its "[", n - 1 commas and its "]"
    bounds = np.lib.stride_tricks.as_strided(
        sep[after_row:], (rows, n + 1), ((n + 2) * sep.itemsize, sep.itemsize), writeable=False)
    start = bounds[:, :n] + 1
    width = bounds[:, 1:] - start
    longest = int(width.max())
    if width.sum() != block.size - sep.size or width.min() < 1 or longest > 9:
        return False  # digits outside the slots, an empty slot, or a long number
    lead = value.take(start)
    if ((lead == 0) & (width > 1)).any():
        return False  # a leading zero
    out[:] = lead
    for k in range(1, longest):  # digit k of each number, from a view k bytes on
        np.copyto(out, out * 10 + value[k:].take(start, mode="clip"), where=width > k)
    return True


def _ring_fields(text: str | bytes) -> tuple:
    """Label, add, mul, zero and one of a ring JSON text (or its UTF-8
    bytes), type-checked.

    Each table that ``_int_matrix`` accepts goes to numpy straight from the
    text and is read back by ``json.loads`` as a ``NaN`` placeholder, in
    document order; a ``NaN`` or ``Infinity`` the text itself holds is
    rejected there as a non-integer number.  Every other table is parsed to
    lists, whose cells must be ints.  Substituting a table is never required
    for a correct result, only for speed: any run the lexer gives up on stays
    in the text.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
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

    try:
        obj = json.loads(b"".join(pieces).decode("utf-8", "surrogatepass"),
                         parse_float=_reject_float, parse_constant=constant)
    except RecursionError:
        raise RingValidationError("ring JSON nests too deeply") from None
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


def load_ring_json(text: str | bytes, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse the ring JSON format and validate.

    Schema: ``{"label": str, "order": n, "add": [[int]], "mul": [[int]],
    "zero": int, "one": int}`` with row-major tables, in any JSON whitespace
    layout.  ``text`` is the JSON text, or its UTF-8 bytes as
    ``load_ring_file`` reads them.  The loader normalizes zero to index 0
    and one to index 1 by permutation, in place in the tables the lexer
    filled.  A fractional number, ``NaN`` or ``Infinity`` anywhere, a table
    entry that is not an integer (a string, a boolean, null), a label that
    is not a string, or an ``order`` other than the number of rows of
    ``add``, is rejected.  Tables of more than ``order_cap`` rows raise
    ``OrderCapExceeded`` before any validation.
    """
    fields = _ring_fields(text)
    del text  # the tables are all validation needs; let the text go first
    if len(fields[1]) > order_cap:
        raise OrderCapExceeded(len(fields[1]), order_cap)
    try:
        add, mul = validate_tables(fields[1], fields[2], fields[3], fields[4], len(fields[1]))
    except RingValidationError as exc:
        # The frames of the validators hold the tables.  A caller that keeps
        # the error in a reference cycle (a frame its own traceback reaches)
        # would pin them until the next garbage collection, and this loader
        # allocates too few objects to trigger one; the report needs only
        # the message and the witness.
        del fields
        raise exc.with_traceback(None)
    return FiniteRing._canonical(fields[0], add, mul, fields[3], fields[4], None)


def load_ring_file(path, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Load a ring JSON file (see ``load_ring_json``), read as bytes so that
    the text is held once.

    The bytes read as a text-mode read gives them: bytes that are not UTF-8
    raise the same ``UnicodeDecodeError``, and "\\r\\n" and "\\r" read as "\\n".
    """
    return load_ring_json(_text_bytes(path), order_cap=order_cap)


def _text_bytes(path) -> bytes:
    """The bytes of the file at ``path``, checked and translated as a
    text-mode read checks and translates them (see ``load_ring_file``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # raises the error a text-mode read raises
    if b"\r" in data:  # one fast scan; a search for b"\r\n" is much slower
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data
