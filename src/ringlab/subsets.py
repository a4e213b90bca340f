"""Distinguished element classes and ideal-theoretic objects.

Element classes (units, idempotents, nilpotents, potents, central elements)
are computed by exhaustive scans over the tables.  Ideal machinery covers the
full two-sided ideal lattice of a small ring, its prime and maximal spectra,
and the three radicals the library cross-checks against each other:

* the Jacobson radical, via quasi-regularity: x is in J(R) exactly when
  1 - r*x is a unit for every r (for finite rings the one-sided test
  suffices, and the result is re-verified to be a two-sided ideal);
* J*, the intersection of all maximal two-sided ideals;
* the prime radical P, the intersection of all prime ideals.

The spectrum (the prime, maximal and J-spec ideals, J* and P) comes from one
memoised call, ``spectrum``, which reads only the ideals above J.  Only
``ideal_lattice``, the ideals above 0, takes the lattice order cap and the
ideal-count guard.

Everything is a pure function of an immutable ring; results are memoised on
the ring and safe for concurrent readers.  Rings with equal tables may share
their memo (``FiniteRing.share_memo``), so the ideals and spectra read from it
are rebound to the ring that asks (``_of``): ``jacobson_radical(r).ring`` and
``spectrum(r).ring`` are always ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Literal

import numpy as np

from .core import FiniteRing, _join_cyclic, _row_blocks
from .errors import InternalInvariantViolation, LatticeCapExceeded, NotAnIdeal, NotProperIdeal

DEFAULT_LATTICE_ORDER_CAP = 256
# a fixed guard, not an option: a lattice of more ideals than this is refused
DEFAULT_LATTICE_COUNT_CAP = 100_000

ClassKind = Literal["units", "idempotents", "central_idempotents",
                    "nilpotents", "potents", "central_elements"]


@dataclass(frozen=True)
class ElemClass:
    """A named, sorted set of element indices of one ring."""

    ring: FiniteRing
    kind: ClassKind
    members: tuple[int, ...]

    def verify(self) -> bool:
        """Re-check every member against the defining equation of its kind."""
        r = self.ring
        for x in self.members:
            if self.kind == "units":
                ok = any(r.mul(x, y) == r.one and r.mul(y, x) == r.one for y in range(r.order))
            elif self.kind == "idempotents":
                ok = r.mul(x, x) == x
            elif self.kind == "central_idempotents":
                ok = r.mul(x, x) == x and all(r.mul(x, t) == r.mul(t, x) for t in range(r.order))
            elif self.kind == "nilpotents":
                ok = r.power_trail(x).eventually_hits(r.zero)
            elif self.kind == "potents":
                ok = r.power_trail(x).cycle_start == 0
            else:
                ok = all(r.mul(x, t) == r.mul(t, x) for t in range(r.order))
            if not ok:
                return False
        return len(self.members) == len(set(self.members)) and \
            tuple(sorted(self.members)) == self.members


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, stored as its sorted member indices."""

    ring: FiniteRing
    members: tuple[int, ...]

    def mask(self) -> np.ndarray:
        """The member set as a read-only boolean mask, memoised on the ring per
        member tuple; a member outside [0, order) raises on every call."""
        def build() -> np.ndarray:
            members = np.asarray(self.members, dtype=np.int64)
            if members.size and (members.min() < 0 or members.max() >= self.ring.order):
                raise ValueError(
                    f"{self.ring.label}: ideal member index out of range [0, {self.ring.order})")
            m = np.zeros(self.ring.order, dtype=bool)
            m[members] = True
            return m

        return self.ring.memo(("mask", self.members), build)

    def bitmask(self) -> int:
        """The member set as an int whose bit i is set iff i is a member."""
        return int.from_bytes(np.packbits(self.mask(), bitorder="little").tobytes(), "little")

    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def verify(self) -> bool:
        """Re-check the two-sided ideal axioms by scan (``FiniteRing.ideal_witness``)."""
        return self.ring.ideal_witness(self.members) is None


@dataclass(frozen=True)
class SpectrumReport:
    """The prime, maximal and J-spec ideals of a ring, and the intersections
    of the maximal ideals (J*) and of the prime ideals (the prime radical P)."""

    ring: FiniteRing
    maximal: tuple[Ideal, ...]
    prime: tuple[Ideal, ...]
    j_spec: tuple[Ideal, ...]
    j_star: Ideal
    prime_radical: Ideal


def _of(r: FiniteRing, ideal: Ideal) -> Ideal:
    """``ideal`` as an ideal of ``r``: a memo shared with a ring of equal
    tables may hold it as an ideal of that ring, and only its members are
    table data."""
    return ideal if ideal.ring is r else Ideal(r, ideal.members)


# ---------------------------------------------------------------------------
# element classes


def _units_mask(r: FiniteRing) -> np.ndarray:
    def build() -> np.ndarray:
        left = (r.mul_table == r.one).any(axis=1)   # x has y with x*y = 1
        right = (r.mul_table == r.one).any(axis=0)  # x has y with y*x = 1
        if not np.array_equal(left, right):
            raise InternalInvariantViolation(
                f"{r.label}: one-sided inverses are not two-sided in a finite ring")
        return left

    return r.memo("units_mask", build)


def units(r: FiniteRing) -> ElemClass:
    return ElemClass(r, "units", tuple(int(i) for i in np.flatnonzero(_units_mask(r))))


def _idempotent_array(r: FiniteRing) -> np.ndarray:
    return r.memo("idempotents", lambda: np.flatnonzero(
        np.diagonal(r.mul_table) == np.arange(r.order)).astype(np.int32))


def idempotents(r: FiniteRing) -> ElemClass:
    return ElemClass(r, "idempotents", tuple(int(i) for i in _idempotent_array(r)))


def _central_mask(r: FiniteRing) -> np.ndarray:
    """Whether each element commutes with every element.

    By distributivity, x is central exactly when it commutes with every
    additive generator, so the scan reads |G| <= log2(n) columns and rows.
    """
    def build() -> np.ndarray:
        g = r.additive_generators()
        return (r.mul_table[:, g] == r.mul_table[g, :].T).all(axis=1)

    return r.memo("central_mask", build)


def central_idempotents(r: FiniteRing) -> ElemClass:
    idem = _idempotent_array(r)
    return ElemClass(r, "central_idempotents",
                     tuple(int(i) for i in idem[_central_mask(r)[idem]]))


def central_elements(r: FiniteRing) -> ElemClass:
    return ElemClass(r, "central_elements",
                     tuple(int(i) for i in np.flatnonzero(_central_mask(r))))


def nilpotents(r: FiniteRing) -> ElemClass:
    mask = _nilpotent_mask(r)
    return ElemClass(r, "nilpotents", tuple(int(i) for i in np.flatnonzero(mask)))


def _nilpotent_mask(r: FiniteRing) -> np.ndarray:
    return r.memo("nilpotent_mask", lambda: (r.power_matrix() == r.zero).any(axis=1))


def potents(r: FiniteRing) -> ElemClass:
    mask = _potent_mask(r)
    return ElemClass(r, "potents", tuple(int(i) for i in np.flatnonzero(mask)))


def _some_power(r: FiniteRing, ok: np.ndarray) -> np.ndarray:
    """Per element a, whether the per-element vector ok holds at some a^m.

    Each block of power-matrix rows reads ``ok`` with one ``take``.
    """
    powers = r.power_matrix()
    hit = np.empty(r.order, dtype=bool)
    for start, stop in _row_blocks(r.order, powers.shape[1]):
        hit[start:stop] = ok.take(powers[start:stop]).any(axis=1)
    return hit


def _potent_mask(r: FiniteRing) -> np.ndarray:
    # a is potent when a^n = a for some n >= 2, i.e. the power trail cycles
    # back to its first entry.
    def build() -> np.ndarray:
        powers = r.power_matrix()
        return (powers[:, 1:] == powers[:, :1]).any(axis=1)

    return r.memo("potent_mask", build)


# ---------------------------------------------------------------------------
# radicals and ideals


def jacobson_radical(r: FiniteRing) -> Ideal:
    """J(R) = {x : 1 - r*x is a unit for every r}, re-verified as an ideal.

    "1 - y is a unit" is precomposed into one length-n mask, which a block
    of rows of ``mul_table`` (the products r*x for a block of r) reads with
    one ``take``; the blocks' verdicts are ANDed per column x.
    """
    def build() -> Ideal:
        one_minus = r.add_table[r.one].take(r.neg_table)  # one_minus[y] = 1 - y
        quasi = _units_mask(r).take(one_minus)
        in_j = np.ones(r.order, dtype=bool)
        for start, stop in _row_blocks(r.order, r.order):
            in_j &= quasi.take(r.mul_table[start:stop]).all(axis=0)
        ideal = Ideal(r, tuple(np.flatnonzero(in_j).tolist()))
        if not ideal.verify():
            raise InternalInvariantViolation(
                f"{r.label}: quasi-regularity set is not a two-sided ideal")
        return ideal

    return _of(r, r.memo("jacobson", build))


def _ideal_closure(r: FiniteRing, seeds: Iterable[int],
                   floor: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Mask of the smallest two-sided ideal containing the seeds and the
    ideal F of mask ``floor`` (0 by default), and the elements Y whose
    subgroup joins built it from F.

    Each y taken into Y is joined in by the doubling step of the additive
    generators (``core._join_cyclic``), and g*y and y*g are queued for every
    g in the additive generating set G of R.  At the end the mask is the
    subgroup S = F + <Y>, with g*y and y*g in S for y in Y, g in G, and g*F
    in F; so g*S lies in S, as left multiplication by g is additive, and by
    distributivity r*S and S*r lie in S for every r, a sum of members of G
    (the argument of ``core._check_on_generators``).  So S is an ideal, and
    each element joined is forced into any ideal containing F and the seeds.
    """
    gens = r.additive_generators()
    mask = np.zeros(r.order, dtype=bool) if floor is None else floor.copy()
    mask[r.zero] = True
    joined: list[int] = []
    pending = [int(x) for x in seeds]
    while pending:
        y = pending.pop()
        if mask[y]:
            continue
        joined.append(y)
        _join_cyclic(r.add_table, mask, y)
        pending.extend(r.mul_table[gens, y].tolist())
        pending.extend(r.mul_table[y, gens].tolist())
    return mask, joined


def _ideal(r: FiniteRing, mask: np.ndarray) -> Ideal:
    return Ideal(r, tuple(np.flatnonzero(mask).tolist()))


def ideal_generated_by(r: FiniteRing, xs: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing xs; an index outside the ring raises."""
    return _ideal(r, _ideal_closure(r, [r.elem(x).index for x in xs])[0])


def _principal_ideals(r: FiniteRing, inside: np.ndarray, floor: np.ndarray,
                      ) -> dict[bytes, tuple[np.ndarray, list[int]]]:
    """Every ideal (x) + F with x in ``inside`` and outside the ideal F of
    mask ``floor``, keyed by its mask bytes, with its joined set.

    ``inside`` is the mask of eR for a central idempotent e, and F lies in
    eR.  (x) + F = (u*x*v + f) + F for units u, v and f in F, a class that
    stays in eR, so each class is closed once.  The units are read off
    ``mul_table``, so the lattice shares no code with the Jacobson radical.
    """
    mul = r.mul_table
    units = np.flatnonzero((mul == r.one).any(axis=1))  # one-sided inverse: a unit in a finite ring
    below = np.flatnonzero(floor)
    covered = ~inside | floor
    principal: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for x in np.flatnonzero(~covered).tolist():
        if covered[x]:
            continue
        orbit = np.zeros(r.order, dtype=bool)
        orbit[mul[units, x]] = True
        orbit[mul.take(np.flatnonzero(orbit), axis=0).take(units, axis=1)] = True  # u*x*v
        # u*x*v + f
        covered[r.add_table.take(np.flatnonzero(orbit), axis=0).take(below, axis=1)] = True
        mask, joined = _ideal_closure(r, [x], floor)
        principal.setdefault(mask.tobytes(), (mask, joined))
    return principal


def _blocks(r: FiniteRing) -> np.ndarray:
    """The primitive central idempotents e_1, ..., e_t, ascending.

    They are the minimal nonzero central idempotents, where e <= f means
    e*f = e.  Central idempotents form a Boolean algebra under e*f and
    e + f - e*f; its atoms are pairwise orthogonal and sum to 1, so R is the
    product of the blocks e_i R (Lam, *A First Course in Noncommutative
    Rings*, section 22).  An indecomposable ring has the one block R, with
    e_1 = 1; the zero ring has none.
    """
    def build() -> np.ndarray:
        idem = _idempotent_array(r)
        ci = idem[_central_mask(r)[idem] & (idem != r.zero)]
        # [f, e]: f*e = f, so f <= e
        below = r.mul_table.take(ci, axis=0).take(ci, axis=1) == ci[:, None]
        return ci[below.sum(axis=0) == 1]

    return r.memo("blocks", build)


def ideal_lattice(r: FiniteRing, *,
                  order_cap: int = DEFAULT_LATTICE_ORDER_CAP) -> tuple[Ideal, ...]:
    """Every two-sided ideal, sorted by size, then members: the ideals above
    0.  A ring of order over ``order_cap``, or with more than
    ``DEFAULT_LATTICE_COUNT_CAP`` ideals, is refused; a count refusal is
    stored like a lattice, so a refused ring is enumerated once."""
    if r.order > order_cap:
        raise LatticeCapExceeded(r.order, order_cap)
    lattice = _ideals_above(r, Ideal(r, (r.zero,)))
    if lattice is None:
        raise LatticeCapExceeded(r.order, DEFAULT_LATTICE_COUNT_CAP,
                                 f"more than {DEFAULT_LATTICE_COUNT_CAP} ideals")
    return lattice if lattice[0].ring is r else tuple(_of(r, i) for i in lattice)


def _ideals_above(r: FiniteRing, floor: Ideal) -> tuple[Ideal, ...] | None:
    """The ideals above ``floor``, sorted, or None past the count guard; stored per floor."""
    return r.memo(("lattice", floor.members), lambda: _block_product(r, floor.mask()))


def _block_product(r: FiniteRing, floor: np.ndarray) -> tuple[Ideal, ...] | None:
    """The ideals above the ideal F of mask ``floor``, as the product of the
    block intervals, or None when the count guard refuses them.

    With blocks e_1, ..., e_t (see ``_blocks``), R = e_1R x ... x e_tR and
    every ideal I is the sum of the e_i I, each an ideal of R inside e_iR;
    conversely every such choice sums to an ideal, and I contains F exactly
    when each e_i I contains F ∩ e_iR.  As e_i is central, the ideals of R
    inside e_iR are the ideals of the ring e_iR, so each block's part is a
    join-closure of its own (``_join_closure``).  x lies in I exactly when
    e_i*x lies in e_i I for every i, so each ideal's mask is an AND over the
    blocks.  The product of the block counts is checked before it is formed.
    """
    parts = []
    for e in _blocks(r).tolist():
        inside = np.zeros(r.order, dtype=bool)
        inside[r.mul_table[e]] = True
        masks = _join_closure(r, inside, floor & inside)
        if masks is None:
            return None
        parts.append((e, masks))
    if prod(len(masks) for _, masks in parts) > DEFAULT_LATTICE_COUNT_CAP:
        return None
    lattice = np.ones((1, r.order), dtype=bool)
    for e, masks in parts:
        at_e = masks[:, r.mul_table[e]]  # [k, x]: e*x lies in the block's k-th ideal
        lattice = (lattice[:, None, :] & at_e[None, :, :]).reshape(-1, r.order)
    return tuple(sorted((_ideal(r, m) for m in lattice),
                        key=lambda i: (len(i.members), i.members)))


def _join_closure(r: FiniteRing, inside: np.ndarray, floor: np.ndarray) -> np.ndarray | None:
    """The masks of every ideal within ``inside``, the mask of eR for a
    central idempotent e, above the ideal F of mask ``floor``, or None once
    more than ``DEFAULT_LATTICE_COUNT_CAP`` ideals are found.

    Each is F or a sum of ideals (x) + F, so joining each newly found ideal
    with every (x) + F reaches them all.  A + B is the subgroup
    join of A with the joined set of B, done for the whole frontier at once:
    S + y is the mask shift ``S[x - y]``, read with one ``take`` of the
    contiguous row -y of ``add_table`` (x - y = -y + x).  The count is
    checked as each ideal is found, so the interval is refused exactly when
    it has more ideals than the guard, and as soon as one more is found.
    """
    principal = _principal_ideals(r, inside, floor)
    found = {floor.tobytes(): floor} | {k: mask for k, (mask, _) in principal.items()}
    if len(found) > DEFAULT_LATTICE_COUNT_CAP:
        return None
    frontier = list(found.values())
    add, neg = r.add_table, r.neg_table
    while frontier:
        masks = np.array(frontier)
        frontier = []
        for _, joined in principal.values():
            sums = masks.copy()
            for y in joined:
                step = y
                while True:
                    shifted = sums.take(add[neg[step]], axis=1)
                    if not (shifted & ~sums).any():
                        break
                    sums |= shifted
                    step = add[step, step]
            for mask in sums:
                k = mask.tobytes()
                if k not in found:
                    found[k] = mask
                    frontier.append(mask)
                    if len(found) > DEFAULT_LATTICE_COUNT_CAP:
                        return None
    return np.array(list(found.values()))


def _nilpotency_index(r: FiniteRing, ideal: Ideal) -> int:
    """The least k with I^k = 0, raising once 2^k would pass the order: each
    of I > I^2 > ... > I^k = 0 has index >= 2 in the one before.  I^(k+1) is
    the ideal closure of the products y*z of the joined sets of I^k and of I,
    since by distributivity they span I^k * I, which is an ideal."""
    mask, gens = _ideal_closure(r, ideal.members)
    joined, k = gens, 1
    while mask.sum() > 1:
        if 2 ** (k + 1) > r.order:
            raise InternalInvariantViolation(
                f"{r.label}: J^{k + 1} is not 0 but 2^{k + 1} > {r.order}: J is not nilpotent")
        products = r.mul_table.take(joined, axis=0).take(gens, axis=1)
        mask, joined = _ideal_closure(r, products.ravel().tolist())
        k += 1
    return k


def _is_prime_ideal(r: FiniteRing, ideal: Ideal) -> bool:
    """Proper P is prime when for all a, b outside P some a*r*b stays outside.

    Whether aRb lies in P depends only on the cosets a+P and b+P, so one
    representative per nonzero coset is scanned: its least element, as in
    ``FiniteRing.quotient_by``.  r = 1 is tried first, since 1 lies in R:
    a*b outside P settles the pair.  Every r is a sum of additive generators
    g and P is closed under +, so aRb lies in P exactly when every a*g*b
    does; each generator is tried only on the pairs that stayed in P so far.
    The pairs are taken a block of rows a at a time (``core._row_blocks``),
    every cell read by one ``take`` of the flat ``mul_table``, and the test
    returns False at the first block where a pair survives every generator.
    """
    if not ideal.is_proper():
        return False
    mask = ideal.mask()
    rep = r.add_table[:, list(ideal.members)].min(axis=1)
    outside = np.flatnonzero((rep == np.arange(r.order)) & ~mask)
    n, flat = r.order, r.mul_table.ravel()
    gens = r.additive_generators()
    for start, stop in _row_blocks(len(outside), len(outside)):
        ab = flat.take(outside[start:stop, None] * n + outside)
        i, j = np.divmod(np.flatnonzero(mask.take(ab)), len(outside))  # a*1*b in P
        a, b = outside[start + i], outside[j]
        for g in gens:
            if not len(a):
                break
            ag = flat.take(a * n + g)
            stay = mask.take(flat.take(np.multiply(ag, n, dtype=np.intp) + b))
            a, b = a[stay], b[stay]
        if len(a):
            return False
    return True


def _intersection(r: FiniteRing, ideals: tuple[Ideal, ...]) -> Ideal:
    """The intersection of the ideals (the whole ring when there are none),
    re-verified as an ideal."""
    mask = np.ones(r.order, dtype=bool)
    for i in ideals:
        mask &= i.mask()
    ideal = _ideal(r, mask)
    if not ideal.verify():
        raise InternalInvariantViolation(f"{r.label}: radical intersection is not an ideal")
    return ideal


def spectrum(r: FiniteRing) -> SpectrumReport:
    """The prime, maximal and J-spec ideals, J* and P, read above J.

    J is nilpotent (``_nilpotency_index`` checks it), so J^k = 0 puts J in
    every prime; every maximal ideal is prime (Lam, *A First Course in
    Noncommutative Rings*, chapters 1 and 4).  So J-spec is every prime, and
    J lies in J* and P by construction.  Of the ideals above J only the
    candidates are read: with blocks e_1, ..., e_t (see ``_blocks``), the
    ideals that contain every e_j but one (with one block, the proper ones).

    * Every prime P is a candidate: e_i R e_j = 0 lies in P for i != j, so
      e_i or e_j lies in P, and a proper P misses some e_i as they sum to 1.
    * Every maximal M is a candidate: if M missed e_i and e_j, then
      M + e_jR = (sum over k != j of e_kM) + e_jR would still miss e_i, a
      proper ideal strictly above M.  A proper ideal above a candidate is a
      candidate, so the maximal ideals are the maximal candidates.

    Each candidate runs the full prime test, which every maximal ideal is
    verified to pass.  R/J has 2^t ideals for t simple factors, so a count
    refusal is an ``InternalInvariantViolation``.  J* and P are the meets of
    the maximal and of the prime ideals."""
    def build() -> SpectrumReport:
        j = jacobson_radical(r)
        _nilpotency_index(r, j)
        ideals = _ideals_above(r, j)
        if ideals is None:
            raise InternalInvariantViolation(f"{r.label}: too many ideals above J")
        blocks = _blocks(r)
        candidates = [i for i in ideals if (~i.mask()[blocks]).sum() == 1]
        bits = [(i, i.bitmask()) for i in candidates]
        maximal = tuple(
            i for i, bi in bits
            if not any(bj != bi and (bi & bj) == bi for _, bj in bits)
        )
        prime = tuple(i for i in candidates if _is_prime_ideal(r, i))
        prime_set = {p.members for p in prime}
        for m in maximal:
            if m.members not in prime_set:
                raise InternalInvariantViolation(
                    f"{r.label}: maximal ideal {m.members} fails the prime test")
        return SpectrumReport(r, maximal, prime, prime,
                              _intersection(r, maximal), _intersection(r, prime))

    sp = r.memo("spectrum", build)
    if sp.ring is r:
        return sp
    maximal, prime = (tuple(_of(r, i) for i in ideals) for ideals in (sp.maximal, sp.prime))
    return SpectrumReport(r, maximal, prime, prime, _of(r, sp.j_star), _of(r, sp.prime_radical))


# ---------------------------------------------------------------------------
# quotients


def quotient_ring(r: FiniteRing, ideal: Ideal, label: str | None = None) -> FiniteRing:
    """Quotient by an ideal, memoised per member tuple and label.

    The members must form a two-sided ideal of ``r`` (whatever ring
    ``ideal.ring`` is); ``FiniteRing.quotient_by`` checks that inside the
    memoised build and raises ``NotAnIdeal`` otherwise, storing no quotient.

    Without a ``label``, the first quotient built by these members is reused,
    whatever it is called; if there is none, one is built as
    ``"<label>/(<size>)"``.
    """
    members = ideal.members
    return r.derived(("quotient", members), label, f"{r.label}/({len(members)})",
                     lambda name: r.quotient_by(members, name))


def radical_quotient(r: FiniteRing) -> FiniteRing:
    """R/J(R), labelled ``"<label>/J"``: the catalog, the ``jquot`` source and
    the suites all reach this one ring."""
    return quotient_ring(r, jacobson_radical(r), f"{r.label}/J")


def quotient_is_torsion(r: FiniteRing, p: Ideal) -> bool:
    """Whether every nonzero element of R/P has some power equal to 1.

    "Torsion" is taken multiplicatively: for each nonzero coset x + P there
    is an m >= 1 with (x + P)^m = 1 + P.  As (x + P)^m = x^m + P, that holds
    exactly when some power of x lies in 1 + P, so it is read from R's power
    matrix (``_some_power``) for every x outside P, and R/P is not built.
    The members must form a proper two-sided ideal of ``r``: the whole ring
    raises ``NotProperIdeal``, any other set that is not an ideal
    ``NotAnIdeal``.
    """
    if not p.is_proper():
        raise NotProperIdeal(f"{r.label}: quotient by the whole ring")
    if r.ideal_witness(p.members) is not None:
        raise NotAnIdeal(f"{r.label}: {p.members} is not a two-sided ideal")
    inside = _of(r, p).mask()
    one_plus_p = inside.take(r.add_table[r.neg_table[r.one]])  # y - 1 in P, + commutes
    return bool(_some_power(r, one_plus_p)[~inside].all())
