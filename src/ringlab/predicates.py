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

from .core import FiniteRing
from .subsets import (
    Ideal,
    _central_mask,
    _idempotent_array,
    _nilpotent_mask,
    _potent_mask,
    _units_mask,
    central_idempotents,
    jacobson_radical,
    j_star,
    prime_radical,
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
        return self.complement in prime_radical(r).members


# ---------------------------------------------------------------------------
# per-element vectors


def _split_counts(r: FiniteRing, complement: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Per element a, how many p in ``parts`` have a - p in the complement mask."""
    return complement[r.sub_table[:, parts]].sum(axis=1)


def _some_power(r: FiniteRing, ok: np.ndarray) -> np.ndarray:
    """Per element a, whether the per-element vector ok holds at some a^m."""
    return ok[r.power_matrix()].any(axis=1)


def _multiples(r: FiniteRing, left: bool = False) -> np.ndarray:
    """``m[x, z]``: whether z lies in xR (in Rx when ``left``)."""
    m = np.zeros((r.order, r.order), dtype=bool)
    m[np.arange(r.order)[:, None], r.mul_table.T if left else r.mul_table] = True
    return m


def _corner_counts(r: FiniteRing, left: bool) -> np.ndarray:
    """Per element x, the idempotents e in xR with 1 - e in (1 - x)R
    (in Rx and R(1 - x) when ``left``)."""
    multiples = _multiples(r, left)
    idem = _idempotent_array(r)
    one_minus = r.sub_table[r.one]
    return (multiples[:, idem] & multiples[one_minus[:, None], one_minus[idem]]).sum(axis=1)


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
    compl = r.sub_table[a, idem]
    return [(int(e), int(u)) for e, u in zip(idem, compl) if umask[u]]


def is_uniquely_clean_element(r: FiniteRing, a: int) -> bool:
    return bool(_clean_counts(r)[a] == 1)


def is_uniquely_pi_clean_element(r: FiniteRing, a: int) -> tuple[bool, int | None]:
    """Whether some power of a is uniquely clean; returns the smallest exponent."""
    hits = _clean_counts(r)[r.power_matrix()[a]] == 1
    if not hits.any():
        return False, None
    return True, int(hits.argmax()) + 1


def is_uniquely_nil_clean_element(r: FiniteRing, a: int) -> bool:
    """Exactly one idempotent e with a - e nilpotent."""
    idem = _idempotent_array(r)
    return int(_nilpotent_mask(r)[r.sub_table[a, idem]].sum()) == 1


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

    The witness is a closure failure of the non-unit set: a pair summing or
    absorbing to a unit, or () when there are no non-units at all.
    """
    umask = _units_mask(r)
    nonunits = np.flatnonzero(~umask)
    if len(nonunits) == 0:
        return ()
    bad = np.argwhere(umask[r.add_table[np.ix_(nonunits, nonunits)]])
    if len(bad):
        return int(nonunits[bad[0][0]]), int(nonunits[bad[0][1]])
    bad = np.argwhere(umask[r.mul_table[:, nonunits]])
    if len(bad):
        return int(bad[0][0]), int(nonunits[bad[0][1]])
    bad = np.argwhere(umask[r.mul_table[nonunits, :]])
    if len(bad):
        return int(nonunits[bad[0][0]]), int(bad[0][1])
    return None


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
    """For every a some n has a^n inside a^(n+1) R."""
    powers = r.power_matrix()
    return _first_false(_multiples(r)[powers[:, 1:], powers[:, :-1]].any(axis=1))


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


# cells of the n-like scan per row block; the scan stops at the first block
# holding a failure, so a ring that fails early costs one block
_N_LIKE_BLOCK_CELLS = 1 << 16


def generalized_n_like_witness(r: FiniteRing, n: int) -> Witness:
    """The first pair (a, b), row-major, with (ab)^n - a b^n - a^n b + ab != 0.

    With d(x) = x^n - x, distributivity gives a d(b) = a b^n - ab and
    d(a) b = a^n b - ab, so

        (ab)^n - a b^n - a^n b + ab = d(ab) - a d(b) - d(a) b,

    and the identity holds at (a, b) exactly when d(ab) = a d(b) + d(a) b.
    That is four gathers per cell, through the length-n vector d, scanned a
    block of rows at a time.
    """
    if n < 2:
        raise ValueError(f"generalized n-like needs n >= 2, got {n}")
    mul, order = r.mul_table, r.order
    idx = np.arange(order)
    pow_n = idx
    for _ in range(n - 1):
        pow_n = mul[pow_n, idx]
    d = r.sub_table[pow_n, idx]
    rows = max(1, _N_LIKE_BLOCK_CELLS // order)
    for start in range(0, order, rows):
        block = slice(start, start + rows)
        ab = mul[block]
        bad = np.flatnonzero(d[ab] != r.add_table[ab[:, d], mul[d[block]]])
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
    """{x : x^m - 1 is a unit for every m >= 1}."""
    minus_one = r.sub_table[:, r.one]
    every = _units_mask(r)[minus_one[r.power_matrix()]].all(axis=1)
    return tuple(int(x) for x in np.flatnonzero(every))


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


def characterization(r: FiniteRing, thm_id: str, **caps) -> bool:
    """Evaluate the right-hand side of one characterization, independently.

    The "unique e" clauses of T2.10(1) and T3.9(1) are read as "unique
    idempotent e"; the torsion condition of T3.3 is the multiplicative one.
    Caps are forwarded to the spectrum computations where those are needed.
    """
    idem = _idempotent_array(r)
    cidem = np.array(central_idempotents(r).members, dtype=np.int32)

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
        return _pi_shift_into(r, jacobson_radical(r).mask(), cidem, unique=False)
    if thm_id == "C2.9":
        umask = _units_mask(r)
        shifted = tuple(int(x) for x in np.flatnonzero(umask[r.sub_table[:, r.one]]))
        return is_uniquely_pi_clean(r) and shifted == jacobson_radical(r).members
    if thm_id == "T2.10":
        j = jacobson_radical(r)
        return (_pi_shift_into(r, j.mask(), idem, unique=True)
                and radical_unit_set(r) == j.members)
    if thm_id == "C2.11":
        j = jacobson_radical(r)
        nilp = np.flatnonzero(_nilpotent_mask(r))
        return (_pi_shift_into(r, j.mask(), idem, unique=True)
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
        return all(quotient_is_torsion(r, p) for p in spectrum(r, **caps).j_spec)
    if thm_id == "C3.4":
        if not is_uniquely_pi_clean(r):
            return False
        return all(r.order == 2 * len(m.members) for m in spectrum(r, **caps).maximal)
    if thm_id == "T3.7":
        if not is_exchange(r):
            return False
        js = j_star(r, **caps)
        return (is_potent_ring(quotient_ring(r, js))
                and idempotents_lift_uniquely_mod(r, js))
    if thm_id == "T3.9":
        js = j_star(r, **caps)
        return (_pi_shift_into(r, js.mask(), idem, unique=True)
                and radical_unit_set(r) == js.members)
    if thm_id == "C3.10-set":
        return radical_unit_set(r) == prime_radical(r, **caps).members
    if thm_id == "T4.7-2":
        return is_abelian(r) and is_periodic(r)
    if thm_id == "T4.7-3":
        # Unique nilpotent-complement decomposition of some power, with the
        # complement landing in the prime radical.  Counting uniqueness over
        # prime-radical complements alone degenerates when P(R) = 0 (any
        # idempotent power would do), which would not characterize anything.
        pmask = prime_radical(r, **caps).mask()
        nmask = _nilpotent_mask(r)
        ok = ((_split_counts(r, nmask, idem) == 1)
              & (_split_counts(r, nmask & ~pmask, idem) == 0))
        return bool(_some_power(r, ok).all())
    if thm_id == "C4.8":
        return _pi_shift_into(r, prime_radical(r, **caps).mask(), cidem, unique=False)
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
    """Evaluate the full predicate battery on one ring."""
    def build() -> PredicateVector:
        scans = {name: scan(r) for name, scan in _PREDICATE_SCANS.items()}
        return PredicateVector(r.label, {name: w is None for name, w in scans.items()},
                               {name: w for name, w in scans.items() if w is not None})

    return r.memo("predicate_vector", build)
