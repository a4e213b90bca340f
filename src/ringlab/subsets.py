"""Distinguished element classes and ideal-theoretic objects.

Element classes (units, idempotents, nilpotents, potents, central elements)
are computed by exhaustive scans over the tables.  Ideal machinery covers the
full two-sided ideal lattice of a small ring, its prime and maximal spectra,
and the three radicals the library cross-checks against each other:

* the Jacobson radical, via quasi-regularity: x is in J(R) exactly when
  1 - r*x is a unit for every r (for finite rings the one-sided test
  suffices, and the result is re-verified to be a two-sided ideal);
* the intersection of all maximal two-sided ideals;
* the prime radical, the intersection of all prime ideals.

Everything is a pure function of an immutable ring; results are memoised on
the ring and safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .core import FiniteRing
from .errors import InternalInvariantViolation, LatticeCapExceeded, NotProperIdeal

DEFAULT_LATTICE_ORDER_CAP = 256
DEFAULT_LATTICE_COUNT_CAP = 100_000

ClassKind = Literal["units", "idempotents", "central_idempotents",
                    "nilpotents", "potents", "central_elements"]


@dataclass(frozen=True)
class ElemClass:
    """A named, sorted set of element indices of one ring."""

    ring: FiniteRing
    kind: ClassKind
    members: tuple[int, ...]

    def __contains__(self, index: int) -> bool:
        return index in set(self.members)

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
        m = np.zeros(self.ring.order, dtype=bool)
        m[list(self.members)] = True
        return m

    def bitmask(self) -> int:
        bits = 0
        for m in self.members:
            bits |= 1 << m
        return bits

    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def contains(self, other: "Ideal") -> bool:
        return set(other.members) <= set(self.members)

    def verify(self) -> bool:
        """Re-check the two-sided ideal axioms by scan."""
        r = self.ring
        mask = self.mask()
        if not mask[r.zero]:
            return False
        mem = np.array(self.members, dtype=np.int32)
        if not mask[r.add_table[np.ix_(mem, mem)]].all():
            return False
        if not mask[r.neg_table[mem]].all():
            return False
        if not mask[r.mul_table[:, mem]].all():
            return False
        return bool(mask[r.mul_table[mem, :]].all())


@dataclass(frozen=True)
class SpectrumReport:
    """The ideal lattice of a ring with its prime/maximal/J-spec sublists."""

    ring: FiniteRing
    all_ideals: tuple[Ideal, ...]
    maximal: tuple[Ideal, ...]
    prime: tuple[Ideal, ...]
    j_spec: tuple[Ideal, ...]

    def to_json_dict(self) -> dict:
        prime = {i.members for i in self.prime}
        maximal = {i.members for i in self.maximal}
        jspec = {i.members for i in self.j_spec}
        return {
            "ring": self.ring.label,
            "ideals": [
                {
                    "members": list(i.members),
                    "prime": i.members in prime,
                    "maximal": i.members in maximal,
                    "contains_J": i.members in jspec,
                }
                for i in self.all_ideals
            ],
        }


# ---------------------------------------------------------------------------
# element classes


def _units_mask(r: FiniteRing) -> np.ndarray:
    mask = r._memo.get("units_mask")
    if mask is None:
        left = (r.mul_table == r.one).any(axis=1)   # x has y with x*y = 1
        right = (r.mul_table == r.one).any(axis=0)  # x has y with y*x = 1
        if not np.array_equal(left, right):
            raise InternalInvariantViolation(
                f"{r.label}: one-sided inverses are not two-sided in a finite ring")
        mask = left
        r._memo["units_mask"] = mask
    return mask


def inverse_table(r: FiniteRing) -> np.ndarray:
    """inv[x] = the two-sided inverse of x, or -1 for non-units."""
    inv = r._memo.get("inverse_table")
    if inv is None:
        mask = _units_mask(r)
        inv = np.where(mask, np.argmax(r.mul_table == r.one, axis=1), -1).astype(np.int32)
        r._memo["inverse_table"] = inv
    return inv


def units(r: FiniteRing) -> ElemClass:
    return ElemClass(r, "units", tuple(int(i) for i in np.flatnonzero(_units_mask(r))))


def _idempotent_array(r: FiniteRing) -> np.ndarray:
    arr = r._memo.get("idempotents")
    if arr is None:
        diag = r.mul_table[np.arange(r.order), np.arange(r.order)]
        arr = np.flatnonzero(diag == np.arange(r.order)).astype(np.int32)
        r._memo["idempotents"] = arr
    return arr


def idempotents(r: FiniteRing) -> ElemClass:
    return ElemClass(r, "idempotents", tuple(int(i) for i in _idempotent_array(r)))


def _central_mask(r: FiniteRing) -> np.ndarray:
    """Whether each element commutes with every element."""
    mask = r._memo.get("central_mask")
    if mask is None:
        mask = (r.mul_table == r.mul_table.T).all(axis=1)
        r._memo["central_mask"] = mask
    return mask


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
    mask = r._memo.get("nilpotent_mask")
    if mask is None:
        mask = (r.power_matrix() == r.zero).any(axis=1)
        r._memo["nilpotent_mask"] = mask
    return mask


def potents(r: FiniteRing) -> ElemClass:
    mask = _potent_mask(r)
    return ElemClass(r, "potents", tuple(int(i) for i in np.flatnonzero(mask)))


def _potent_mask(r: FiniteRing) -> np.ndarray:
    # a is potent when a^n = a for some n >= 2, i.e. the power trail cycles
    # back to its first entry.
    mask = r._memo.get("potent_mask")
    if mask is None:
        powers = r.power_matrix()
        mask = (powers[:, 1:] == powers[:, :1]).any(axis=1)
        r._memo["potent_mask"] = mask
    return mask


# ---------------------------------------------------------------------------
# radicals and ideals


def jacobson_radical(r: FiniteRing) -> Ideal:
    """J(R) = {x : 1 - r*x is a unit for every r}, re-verified as an ideal."""
    cached = r._memo.get("jacobson")
    if cached is None:
        one_minus = r.sub_table[r.one]  # one_minus[y] = 1 - y
        members = np.flatnonzero(_units_mask(r)[one_minus[r.mul_table]].all(axis=0))
        cached = Ideal(r, tuple(int(x) for x in members))
        if not cached.verify():
            raise InternalInvariantViolation(
                f"{r.label}: quasi-regularity set is not a two-sided ideal")
        r._memo["jacobson"] = cached
    return cached


def _additive_closure(r: FiniteRing, seed_mask: np.ndarray) -> np.ndarray:
    mask = seed_mask.copy()
    mask[r.zero] = True
    while True:
        mem = np.flatnonzero(mask)
        sums = r.add_table[np.ix_(mem, mem)]
        new = np.zeros_like(mask)
        new[sums.ravel()] = True
        if not (new & ~mask).any():
            return mask
        mask |= new


def ideal_generated_by(r: FiniteRing, xs: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing xs: additive closure of R*x*R."""
    seed = np.zeros(r.order, dtype=bool)
    for x in xs:
        # all products r*x*s
        rx = r.mul_table[:, x]
        seed[r.mul_table[rx, :].ravel()] = True
    mask = _additive_closure(r, seed)
    return Ideal(r, tuple(int(i) for i in np.flatnonzero(mask)))


def _ideal_sum(r: FiniteRing, a: Ideal, b: Ideal) -> Ideal:
    mem = np.unique(r.add_table[np.ix_(np.array(a.members), np.array(b.members))])
    return Ideal(r, tuple(int(i) for i in mem))


def ideal_lattice(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> tuple[Ideal, ...]:
    """Every two-sided ideal, as the join-closure of the principal ideals."""
    key = ("lattice", order_cap, count_cap)
    cached = r._memo.get(key)
    if cached is not None:
        return cached
    if r.order > order_cap:
        raise LatticeCapExceeded(r.order, order_cap)
    principal: dict[int, Ideal] = {}
    for x in range(r.order):
        ideal = ideal_generated_by(r, [x])
        principal.setdefault(ideal.bitmask(), ideal)
    found: dict[int, Ideal] = dict(principal)
    frontier = list(principal.values())
    while frontier:
        nxt: list[Ideal] = []
        for a in frontier:
            for b in list(found.values()):
                s = _ideal_sum(r, a, b)
                bits = s.bitmask()
                if bits not in found:
                    found[bits] = s
                    nxt.append(s)
                    if len(found) > count_cap:
                        raise LatticeCapExceeded(r.order, count_cap,
                                                 f"more than {count_cap} ideals")
        frontier = nxt
    ideals = tuple(sorted(found.values(), key=lambda i: (len(i.members), i.members)))
    r._memo[key] = ideals
    return ideals


def _is_prime_ideal(r: FiniteRing, ideal: Ideal) -> bool:
    """Proper P is prime when for all a, b outside P some a*r*b stays outside.

    Every r is a sum of additive generators g and P is closed under +, so
    aRb lies in P exactly when every a*g*b does.
    """
    if not ideal.is_proper():
        return False
    mask = ideal.mask()
    outside = np.flatnonzero(~mask)
    escapes = np.zeros((len(outside), len(outside)), dtype=bool)
    for g in r.additive_generators():
        ag = r.mul_table[outside, g]
        escapes |= ~mask[r.mul_table[np.ix_(ag, outside)]]  # [a, b] -> (a*g)*b
    return bool(escapes.all())


def spectrum(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> SpectrumReport:
    """Full lattice plus prime, maximal and J-spec sublists.

    J-spec is the set of prime ideals containing the Jacobson radical.
    Maximality is read off the lattice; the report verifies (rather than
    assumes) that every maximal ideal passes the prime test.
    """
    key = ("spectrum", order_cap, count_cap)
    cached = r._memo.get(key)
    if cached is not None:
        return cached
    ideals = ideal_lattice(r, order_cap=order_cap, count_cap=count_cap)
    proper = [i for i in ideals if i.is_proper()]
    bits = [(i, i.bitmask()) for i in proper]
    maximal = tuple(
        i for i, bi in bits
        if not any(bj != bi and (bi & bj) == bi for _, bj in bits)
    )
    prime = tuple(i for i in proper if _is_prime_ideal(r, i))
    prime_set = {p.members for p in prime}
    for m in maximal:
        if m.members not in prime_set:
            raise InternalInvariantViolation(
                f"{r.label}: maximal ideal {m.members} fails the prime test")
    j = jacobson_radical(r)
    jset = set(j.members)
    j_spec = tuple(p for p in prime if jset <= set(p.members))
    report = SpectrumReport(r, ideals, maximal, prime, j_spec)
    r._memo[key] = report
    return report


def all_ideals(r: FiniteRing, **caps) -> tuple[Ideal, ...]:
    return spectrum(r, **caps).all_ideals


def prime_ideals(r: FiniteRing, **caps) -> tuple[Ideal, ...]:
    return spectrum(r, **caps).prime


def maximal_ideals(r: FiniteRing, **caps) -> tuple[Ideal, ...]:
    return spectrum(r, **caps).maximal


def j_spec(r: FiniteRing, **caps) -> tuple[Ideal, ...]:
    return spectrum(r, **caps).j_spec


def _spectrum_intersection(r: FiniteRing, part: Literal["maximal", "prime"],
                           order_cap: int, count_cap: int) -> Ideal:
    """Intersection of the maximal or of the prime ideals, memoised per caps."""
    key = ("intersection", part, order_cap, count_cap)
    cached = r._memo.get(key)
    if cached is None:
        # The empty intersection is the whole ring.
        mask = np.ones(r.order, dtype=bool)
        for i in getattr(spectrum(r, order_cap=order_cap, count_cap=count_cap), part):
            mask &= i.mask()
        cached = Ideal(r, tuple(int(i) for i in np.flatnonzero(mask)))
        if not cached.verify():
            raise InternalInvariantViolation(f"{r.label}: radical intersection is not an ideal")
        r._memo[key] = cached
    return cached


def j_star(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> Ideal:
    """Intersection of all maximal two-sided ideals, memoised per caps."""
    return _spectrum_intersection(r, "maximal", order_cap, count_cap)


def prime_radical(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> Ideal:
    """Intersection of all prime ideals, memoised per caps."""
    return _spectrum_intersection(r, "prime", order_cap, count_cap)


# ---------------------------------------------------------------------------
# quotients


def quotient_ring(r: FiniteRing, ideal: Ideal, label: str | None = None) -> FiniteRing:
    """Quotient by an ideal, memoised per member tuple."""
    key = ("quotient", ideal.members)
    cached = r._memo.get(key)
    if cached is None:
        cached = r.quotient_by(ideal.members,
                               label if label is not None else f"{r.label}/({len(ideal.members)})")
        r._memo[key] = cached
    return cached


def quotient_is_torsion(r: FiniteRing, p: Ideal) -> bool:
    """Whether every nonzero element of R/P has some power equal to 1.

    "Torsion" is taken multiplicatively: for each nonzero coset x there is an
    m >= 1 with x^m = 1.
    """
    if not p.is_proper():
        raise NotProperIdeal(f"{r.label}: quotient by the whole ring")
    q = quotient_ring(r, p)
    hits_one = (q.power_matrix() == q.one).any(axis=1)
    return bool(np.delete(hits_one, q.zero).all())
