"""Clean-family predicates and theorem-characterization evaluators.

The element-level notions all revolve around decompositions into an
idempotent plus a distinguished complement:

* clean: a = e + u with e idempotent and u a unit; uniquely clean when the
  decomposition is unique;
* uniquely pi-clean: some power of the element is uniquely clean;
* uniquely nil clean: a unique idempotent e with a - e nilpotent.

Ring-level predicates are exhaustive scans of those definitions.  Each is one
vectorised scan, ``<name>_witness``, returning the first failing element (or
pair) or None; ``is_<name>`` is ``witness is None``, and
:func:`predicate_vector` reads the same scans.  Each suite identifier
accepted by :func:`characterization` evaluates the right-hand side of one
biconditional as an independent condition list, composed from the primitive
operations; none of them shortcut through the uniquely-pi-clean scan of the
ring itself.

Power searches go through the ring's power matrix
(:meth:`FiniteRing.power_matrix`), whose row a holds a^1 ... a^L and then
a^(L+1), L being the longest distinct-power trail in the ring.  Every power
of a equals an entry of its row, so "some power of a satisfies X" is a
per-element vector X gathered through the matrix and reduced along the row
(``any``; ``all`` for "every power"), and the smallest such exponent is the
first qualifying column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Literal

import numpy as np

from .core import FiniteRing, _growing_blocks, _next_powers, _row_blocks
from .subsets import (
    Ideal,
    _central_mask,
    _idempotent_array,
    _nilpotent_mask,
    _potent_mask,
    _some_power,
    _units_mask,
    central_idempotents,
    jacobson_radical,
    quotient_is_torsion,
    quotient_ring,
    radical_quotient,
    spectrum,
)

WitnessKind = Literal["clean", "nil-clean", "J-clean", "P-clean"]

# the first failing element (or pair) of a ring-level predicate, or None
Witness = tuple[int, ...] | None


@dataclass(frozen=True)
class CleanWitness:
    """A decomposition target^m = e + complement, tagged by complement class."""

    ring: FiniteRing
    target: int
    exponent: int
    idempotent: int
    complement: int
    kind: WitnessKind

    def verify(self) -> bool:
        r = self.ring
        if r.mul(self.idempotent, self.idempotent) != self.idempotent:
            return False
        if r.add(self.idempotent, self.complement) != r.pow(self.target, self.exponent):
            return False
        if self.kind == "clean":
            return bool(_units_mask(r)[self.complement])
        if self.kind == "nil-clean":
            return bool(_nilpotent_mask(r)[self.complement])
        if self.kind == "J-clean":
            return self.complement in jacobson_radical(r).members
        return self.complement in spectrum(r).prime_radical.members


# ---------------------------------------------------------------------------
# per-element vectors


def _split_counts(r: FiniteRing, complement: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Per element a, how many p in ``parts`` have a - p in the complement mask.

    ``parts`` holds distinct elements, and a - p = c exactly when a - c = p,
    so the count is also #{c in the complement : a - c in parts}; the gather
    runs over the smaller of the two sets, a block of rows a at a time.
    """
    others = np.flatnonzero(complement)
    if len(others) < len(parts):
        in_parts = np.zeros(r.order, dtype=bool)
        in_parts[parts] = True
        complement, parts = in_parts, others
    counts = np.empty(r.order, dtype=np.intp)
    for start, stop in _row_blocks(r.order, len(parts)):
        differences = r.sub_table[start:stop].take(parts, axis=1)
        counts[start:stop] = complement.take(differences).sum(axis=1)
    return counts


def _multiples(r: FiniteRing, left: bool = False) -> np.ndarray:
    """``m[x, z]``: whether z lies in xR (in Rx when ``left``), memoised per side.

    Scattered into the flat mask a block of rows x at a time, so the flat
    index n*x + x*r (or n*x + r*x) is never built for the whole table.
    """
    def build() -> np.ndarray:
        n = r.order
        m = np.zeros((n, n), dtype=bool)
        flat = m.reshape(-1)
        products = r.mul_table.T if left else r.mul_table
        for start, stop in _row_blocks(n, n):
            flat[np.arange(start * n, stop * n, n)[:, None] + products[start:stop]] = True
        return m

    return r.memo(("multiples", left), build)


def _corner_counts(r: FiniteRing, left: bool) -> np.ndarray:
    """Per element x, the idempotents e in xR with 1 - e in (1 - x)R
    (in Rx and R(1 - x) when ``left``).

    Both memberships are read from the flat multiples mask, at n*x + e and
    n*(1 - x) + (1 - e), a block of rows x at a time.
    """
    n = r.order
    flat = _multiples(r, left).ravel()
    idem = _idempotent_array(r)
    one_minus = r.sub_table[r.one]
    co_idem = one_minus.take(idem)
    counts = np.empty(n, dtype=np.intp)
    for start, stop in _row_blocks(n, len(idem)):
        in_x = flat.take(np.arange(start * n, stop * n, n)[:, None] + idem)
        co_x = np.multiply(one_minus[start:stop], n, dtype=np.intp)
        counts[start:stop] = (in_x & flat.take(co_x[:, None] + co_idem)).sum(axis=1)
    return counts


def _clean_counts(r: FiniteRing) -> np.ndarray:
    """Per element, its number of decompositions e + u."""
    return r.memo("clean_counts", lambda: _split_counts(r, _units_mask(r), _idempotent_array(r)))


def _first_false(ok: np.ndarray) -> Witness:
    bad = np.flatnonzero(~ok)
    return (int(bad[0]),) if len(bad) else None


def _first_noncentral(r: FiniteRing, candidates: np.ndarray) -> Witness:
    """The first non-central candidate, paired with an element it fails to commute with."""
    bad = candidates[~_central_mask(r)[candidates]]
    if len(bad) == 0:
        return None
    x = int(bad[0])
    return x, int(np.flatnonzero(r.mul_table[x] != r.mul_table[:, x])[0])


# ---------------------------------------------------------------------------
# element-level decompositions


def clean_decompositions(r: FiniteRing, a: int) -> list[tuple[int, int]]:
    """All pairs (e, u) with e idempotent, u a unit, e + u = a, ordered by e."""
    idem = _idempotent_array(r)
    umask = _units_mask(r)
    compl = r.sub_table[r.elem(a).index, idem]
    return [(int(e), int(u)) for e, u in zip(idem, compl) if umask[u]]


def is_uniquely_clean_element(r: FiniteRing, a: int) -> bool:
    return bool(_clean_counts(r)[r.elem(a).index] == 1)


def is_uniquely_pi_clean_element(r: FiniteRing, a: int) -> tuple[bool, int | None]:
    """Whether some power of a is uniquely clean; returns the smallest exponent."""
    hits = _clean_counts(r)[r.power_matrix()[r.elem(a).index]] == 1
    if not hits.any():
        return False, None
    return True, int(hits.argmax()) + 1


def is_uniquely_nil_clean_element(r: FiniteRing, a: int) -> bool:
    """Exactly one idempotent e with a - e nilpotent."""
    idem = _idempotent_array(r)
    return int(_nilpotent_mask(r)[r.sub_table[r.elem(a).index, idem]].sum()) == 1


def pi_clean_witness(r: FiniteRing, a: int) -> CleanWitness | None:
    """The unique decomposition at the smallest uniquely-clean power of a.

    Returns a verified witness a^m = e + u, or None when no power of a is
    uniquely clean.
    """
    ok, m = is_uniquely_pi_clean_element(r, a)
    if not ok:
        return None
    power = r.pow(a, m)
    ((e, u),) = clean_decompositions(r, power)
    witness = CleanWitness(r, a, m, e, u, "clean")
    if not witness.verify():
        raise AssertionError(f"{r.label}: witness for element {a} failed re-verification")
    return witness


# ---------------------------------------------------------------------------
# ring-level predicates: one witness scan each


def clean_witness(r: FiniteRing) -> Witness:
    return _first_false(_clean_counts(r) >= 1)


def is_clean(r: FiniteRing) -> bool:
    return clean_witness(r) is None


def uniquely_clean_witness(r: FiniteRing) -> Witness:
    return _first_false(_clean_counts(r) == 1)


def is_uniquely_clean(r: FiniteRing) -> bool:
    return uniquely_clean_witness(r) is None


def uniquely_pi_clean_witness(r: FiniteRing) -> Witness:
    return r.memo("uniquely_pi_clean",
                  lambda: _first_false(_some_power(r, _clean_counts(r) == 1)))


def is_uniquely_pi_clean(r: FiniteRing) -> bool:
    return uniquely_pi_clean_witness(r) is None


def strongly_clean_witness(r: FiniteRing) -> Witness:
    """Every a = e + u with e idempotent, u a unit, and e commuting with a."""
    idem = _idempotent_array(r)
    commutes = r.mul_table[:, idem] == r.mul_table[idem, :].T
    return _first_false((_units_mask(r)[r.sub_table[:, idem]] & commutes).any(axis=1))


def is_strongly_clean(r: FiniteRing) -> bool:
    return strongly_clean_witness(r) is None


def uniquely_pi_nil_clean_witness(r: FiniteRing) -> Witness:
    """Some power of every element is uniquely nil clean."""
    counts = _split_counts(r, _nilpotent_mask(r), _idempotent_array(r))
    return _first_false(_some_power(r, counts == 1))


def is_uniquely_pi_nil_clean(r: FiniteRing) -> bool:
    return uniquely_pi_nil_clean_witness(r) is None


def exchange_witness(r: FiniteRing) -> Witness:
    """For every a, some idempotent e lies in aR with 1 - e in (1-a)R."""
    return _first_false(_corner_counts(r, left=False) >= 1)


def is_exchange(r: FiniteRing) -> bool:
    return exchange_witness(r) is None


def abelian_witness(r: FiniteRing) -> Witness:
    """A non-central idempotent paired with an element it fails to commute with."""
    return _first_noncentral(r, _idempotent_array(r))


def is_abelian(r: FiniteRing) -> bool:
    return abelian_witness(r) is None


def commutative_witness(r: FiniteRing) -> Witness:
    return _first_noncentral(r, np.arange(r.order))


def is_commutative(r: FiniteRing) -> bool:
    return commutative_witness(r) is None


def boolean_witness(r: FiniteRing) -> Witness:
    idx = np.arange(r.order)
    return _first_false(r.mul_table[idx, idx] == idx)


def is_boolean(r: FiniteRing) -> bool:
    return boolean_witness(r) is None


def local_witness(r: FiniteRing) -> Witness:
    """Non-units form a two-sided ideal (the finite-ring reading of local).

    The witness is ``FiniteRing.ideal_witness`` of the non-unit set: a pair
    summing or absorbing to a unit, or () when there are no non-units at all.
    """
    return r.ideal_witness(np.flatnonzero(~_units_mask(r)))


def is_local(r: FiniteRing) -> bool:
    return local_witness(r) is None


def potent_witness(r: FiniteRing) -> Witness:
    return _first_false(_potent_mask(r))


def is_potent_ring(r: FiniteRing) -> bool:
    return potent_witness(r) is None


def periodic_witness(r: FiniteRing) -> Witness:
    """Every element has a^m = a^n for distinct m, n; true in any finite ring,
    confirmed by the last power-matrix column repeating an earlier one."""
    powers = r.power_matrix()
    return _first_false((powers[:, :-1] == powers[:, -1:]).any(axis=1))


def is_periodic(r: FiniteRing) -> bool:
    return periodic_witness(r) is None


def strongly_pi_regular_witness(r: FiniteRing) -> Witness:
    """For every a some n has a^n inside a^(n+1) R.

    Read from the flat multiples mask at n*a^(n+1) + a^n, a block of
    power-matrix rows at a time.
    """
    powers = r.power_matrix()
    flat = _multiples(r).ravel()
    ok = np.empty(r.order, dtype=bool)
    for start, stop in _row_blocks(r.order, powers.shape[1]):
        block = powers[start:stop]
        cells = np.multiply(block[:, 1:], r.order, dtype=np.intp) + block[:, :-1]
        ok[start:stop] = flat.take(cells).any(axis=1)
    return _first_false(ok)


def is_strongly_pi_regular(r: FiniteRing) -> bool:
    return strongly_pi_regular_witness(r) is None


def potently_j_clean_witness(r: FiniteRing) -> Witness:
    """Every element is a potent element plus a Jacobson-radical element."""
    potent = np.flatnonzero(_potent_mask(r))
    return _first_false(_split_counts(r, jacobson_radical(r).mask(), potent) >= 1)


def is_potently_j_clean(r: FiniteRing) -> bool:
    return potently_j_clean_witness(r) is None


def is_generalized_n_like(r: FiniteRing, n: int) -> bool:
    """Whether (ab)^n - a b^n - a^n b + ab = 0 for every pair a, b."""
    return generalized_n_like_witness(r, n) is None


def generalized_n_like_witness(r: FiniteRing, n: int) -> Witness:
    """The first pair (a, b), row-major, with (ab)^n - a b^n - a^n b + ab != 0.

    With d(x) = x^n - x, distributivity gives a d(b) = a b^n - ab and
    d(a) b = a^n b - ab, so

        (ab)^n - a b^n - a^n b + ab = d(ab) - a d(b) - d(a) b,

    and the identity holds at (a, b) exactly when d(ab) = a d(b) + d(a) b.
    The scan (``_n_like_scan``) therefore reads n only through the vector d,
    and two exponents with the same d have the same witness: the scan is
    memoised on the ring per d.  x^n is read from the ring's memoised chain
    of powers (``_low_powers``) for n <= 9, else from its power matrix
    (``_nth_powers``).
    """
    if n < 2:
        raise ValueError(f"generalized n-like needs n >= 2, got {n}")
    chain = _low_powers(r)
    pow_n = chain[n - 1] if n <= len(chain) else _nth_powers(r, n)
    d = r.sub_table.ravel().take(np.multiply(pow_n, r.order, dtype=np.intp) + np.arange(r.order))
    return r.memo(("n_like", d.tobytes()), lambda: _n_like_scan(r, d))


def _low_powers(r: FiniteRing) -> np.ndarray:
    """x^1, ..., x^9 for every x (row k - 1 holds x^k), the powers that
    ``GENERALIZED_RANGE`` reads: one chain of 8 flat gathers
    (``core._next_powers``), memoised."""
    def build() -> np.ndarray:
        chain = [np.arange(r.order, dtype=np.int32)]
        for _ in GENERALIZED_RANGE:
            chain.append(_next_powers(r.mul_table, chain[-1]))
        return np.stack(chain)

    return r.memo("low_powers", build)


def _nth_powers(r: FiniteRing, n: int) -> np.ndarray:
    """x^n for every x, read from the power matrix (column k holds x^(k+1),
    k = 0..L).  Row x repeats from its first column j equal to the last,
    with a period dividing L - j, so past the end x^n sits in column
    j + (n-1-j) mod (L-j); n - 1 is reduced in Python integers, so any n
    is exact."""
    powers = r.power_matrix()
    last = powers.shape[1] - 1
    if n - 1 <= last:
        return powers[:, n - 1]
    j = np.argmax(powers == powers[:, -1:], axis=1)
    period = last - j
    residue = np.array([(n - 1) % p for p in range(1, last + 1)])  # (n-1) mod p, p = 1..L
    return powers[np.arange(r.order), j + (residue[period - 1] - j) % period]


def _n_like_scan(r: FiniteRing, d: np.ndarray) -> Witness:
    """The first pair (a, b), row-major, with d(ab) != a d(b) + d(a) b.

    Four gathers per cell, through the length-n vector d, over growing blocks
    of rows (``core._growing_blocks``); the sum is read from the flat add
    table, so every gather has one index array.  The blocks cover the rows in
    order and each is searched row-major, so the first failure of the first
    failing block is the first failure of the whole grid.
    """
    mul, order = r.mul_table, r.order
    add_flat = r.add_table.ravel()
    for start, stop in _growing_blocks(order, order):
        ab = mul[start:stop]
        sums = np.multiply(ab.take(d, axis=1), order, dtype=np.intp)  # a d(b), as a row offset
        sums += mul.take(d[start:stop], axis=0)                        # d(a) b
        bad = np.flatnonzero(d.take(ab) != add_flat.take(sums))
        if len(bad):
            a, b = divmod(int(bad[0]), order)
            return start + a, b
    return None


# ---------------------------------------------------------------------------
# idempotent lifting and radical set equations


def idempotents_lift_mod(r: FiniteRing, ideal: Ideal) -> bool:
    """Every x with x^2 - x in the ideal is congruent to an idempotent mod it."""
    return _lifting_scan(r, ideal, unique=False)


def idempotents_lift_uniquely_mod(r: FiniteRing, ideal: Ideal) -> bool:
    return _lifting_scan(r, ideal, unique=True)


def _lifting_scan(r: FiniteRing, ideal: Ideal, unique: bool) -> bool:
    mask = ideal.mask()
    idx = np.arange(r.order)
    candidates = mask[r.sub_table[r.mul_table[idx, idx], idx]]  # x^2 - x in the ideal
    counts = _split_counts(r, mask, _idempotent_array(r))[candidates]
    return bool((counts == 1).all() if unique else (counts >= 1).all())


def radical_unit_set(r: FiniteRing) -> tuple[int, ...]:
    """{x : x^m - 1 is a unit for every m >= 1}: no power of x lands where
    "y - 1 is not a unit", a mask precomposed once."""
    not_shifted_unit = ~_units_mask(r).take(r.sub_table[:, r.one])
    return tuple(np.flatnonzero(~_some_power(r, not_shifted_unit)).tolist())


# ---------------------------------------------------------------------------
# theorem right-hand sides


def _pi_shift_into(r: FiniteRing, target_mask: np.ndarray, idem: np.ndarray,
                   unique: bool) -> bool:
    """For every a, some power lands in idem + target: a^m - e in the set.

    With ``unique`` the count of qualifying idempotents at that power must be
    exactly one.
    """
    counts = _split_counts(r, target_mask, idem)
    return bool(_some_power(r, counts == 1 if unique else counts >= 1).all())


CHARACTERIZATION_IDS = (
    "T2.2", "T2.4", "C2.5", "T2.8", "C2.9", "T2.10", "C2.11", "C2.12",
    "T3.3", "C3.4", "T3.7", "T3.9", "C3.10-set",
    "T4.7-2", "T4.7-3", "C4.8",
)


def characterization(r: FiniteRing, thm_id: str) -> bool:
    """Evaluate the right-hand side of one characterization, independently.

    The "unique e" clauses of T2.10(1) and T3.9(1) are read as "unique
    idempotent e"; the torsion condition of T3.3 is the multiplicative one.
    """
    if thm_id == "T2.2":
        if not is_abelian(r):
            return False
        if not idempotents_lift_mod(r, jacobson_radical(r)):
            return False
        return is_uniquely_pi_clean(radical_quotient(r))
    if thm_id in ("T2.4", "C2.5"):
        # a unique idempotent e in a^n R with 1 - e in (1 - a^n) R, or the
        # R a^n / R(1 - a^n) version for C2.5
        if not is_abelian(r):
            return False
        return bool(_some_power(r, _corner_counts(r, left=thm_id == "C2.5") == 1).all())
    if thm_id == "T2.8":
        cidem = np.array(central_idempotents(r).members, dtype=np.int32)
        return _pi_shift_into(r, jacobson_radical(r).mask(), cidem, unique=False)
    if thm_id == "C2.9":
        umask = _units_mask(r)
        shifted = tuple(int(x) for x in np.flatnonzero(umask[r.sub_table[:, r.one]]))
        return is_uniquely_pi_clean(r) and shifted == jacobson_radical(r).members
    if thm_id == "T2.10":
        j = jacobson_radical(r)
        return (_pi_shift_into(r, j.mask(), _idempotent_array(r), unique=True)
                and radical_unit_set(r) == j.members)
    if thm_id == "C2.11":
        j = jacobson_radical(r)
        nilp = np.flatnonzero(_nilpotent_mask(r))
        return (_pi_shift_into(r, j.mask(), _idempotent_array(r), unique=True)
                and bool(j.mask()[nilp].all()))
    if thm_id == "C2.12":
        # units = {x : some x^m - 1 lies in J}
        in_j_plus_one = jacobson_radical(r).mask()[r.sub_table[:, r.one]]
        return bool(np.array_equal(_some_power(r, in_j_plus_one), _units_mask(r)))
    if thm_id == "T3.3":
        if not is_abelian(r):
            return False
        if not idempotents_lift_mod(r, jacobson_radical(r)):
            return False
        return all(quotient_is_torsion(r, p) for p in spectrum(r).j_spec)
    if thm_id == "C3.4":
        if not is_uniquely_pi_clean(r):
            return False
        return all(r.order == 2 * len(m.members) for m in spectrum(r).maximal)
    if thm_id == "T3.7":
        if not is_exchange(r):
            return False
        js = spectrum(r).j_star
        return (is_potent_ring(quotient_ring(r, js))
                and idempotents_lift_uniquely_mod(r, js))
    if thm_id == "T3.9":
        js = spectrum(r).j_star
        return (_pi_shift_into(r, js.mask(), _idempotent_array(r), unique=True)
                and radical_unit_set(r) == js.members)
    if thm_id == "C3.10-set":
        return radical_unit_set(r) == spectrum(r).prime_radical.members
    if thm_id == "T4.7-2":
        return is_abelian(r) and is_periodic(r)
    if thm_id == "T4.7-3":
        # Unique nilpotent-complement decomposition of some power, with the
        # complement landing in the prime radical.  Counting uniqueness over
        # prime-radical complements alone degenerates when P(R) = 0 (any
        # idempotent power would do), which would not characterize anything.
        pmask = spectrum(r).prime_radical.mask()
        nmask = _nilpotent_mask(r)
        idem = _idempotent_array(r)
        ok = ((_split_counts(r, nmask, idem) == 1)
              & (_split_counts(r, nmask & ~pmask, idem) == 0))
        return bool(_some_power(r, ok).all())
    if thm_id == "C4.8":
        pmask = spectrum(r).prime_radical.mask()
        cidem = np.array(central_idempotents(r).members, dtype=np.int32)
        return _pi_shift_into(r, pmask, cidem, unique=False)
    raise ValueError(f"unknown characterization id {thm_id!r}")


# ---------------------------------------------------------------------------
# predicate vectors


GENERALIZED_RANGE = tuple(range(2, 10))

# every ring-level predicate by name, as its witness scan
_PREDICATE_SCANS = {
    "clean": clean_witness,
    "uniquely_clean": uniquely_clean_witness,
    "strongly_clean": strongly_clean_witness,
    "uniquely_pi_clean": uniquely_pi_clean_witness,
    "uniquely_pi_nil_clean": uniquely_pi_nil_clean_witness,
    "exchange": exchange_witness,
    "abelian": abelian_witness,
    "commutative": commutative_witness,
    "boolean": boolean_witness,
    "local": local_witness,
    "potent": potent_witness,
    "periodic": periodic_witness,
    "strongly_pi_regular": strongly_pi_regular_witness,
    "potently_j_clean": potently_j_clean_witness,
    **{f"generalized_{n}_like": partial(generalized_n_like_witness, n=n)
       for n in GENERALIZED_RANGE},
}

PREDICATE_NAMES = tuple(_PREDICATE_SCANS)


@dataclass
class PredicateVector:
    """Every ring-level predicate of one ring, with counterexample witnesses.

    ``witnesses`` records, for each false predicate where one exists, the
    minimal element (or pair) exhibiting the failure.
    """

    label: str
    values: dict[str, bool]
    witnesses: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ring": self.label,
            "predicates": dict(self.values),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }

    def csv_row(self) -> list[str]:
        return [self.label] + [str(self.values[name]).lower() for name in PREDICATE_NAMES]

    @staticmethod
    def csv_header() -> list[str]:
        return ["ring"] + list(PREDICATE_NAMES)


def predicate_vector(r: FiniteRing) -> PredicateVector:
    """Evaluate the full predicate battery on one ring.

    The scans are memoised per table and the vector, which carries the
    label, per label: rings with equal tables that share a memo
    (``FiniteRing.share_memo``) run the scans once and each get their own
    label.
    """
    def build() -> PredicateVector:
        scans = r.memo("predicate_scans",
                       lambda: {name: scan(r) for name, scan in _PREDICATE_SCANS.items()})
        return PredicateVector(r.label, {name: w is None for name, w in scans.items()},
                               {name: w for name, w in scans.items() if w is not None})

    return r.memo(("predicate_vector", r.label), build)
