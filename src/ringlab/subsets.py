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

from .core import FiniteRing, _join_cyclic
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
        """The member set as an int whose bit i is set iff i is a member."""
        return int.from_bytes(np.packbits(self.mask(), bitorder="little").tobytes(), "little")

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
    """Whether each element commutes with every element."""
    return r.memo("central_mask", lambda: (r.mul_table == r.mul_table.T).all(axis=1))


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
    """J(R) = {x : 1 - r*x is a unit for every r}, re-verified as an ideal."""
    def build() -> Ideal:
        one_minus = r.sub_table[r.one]  # one_minus[y] = 1 - y
        members = np.flatnonzero(_units_mask(r)[one_minus[r.mul_table]].all(axis=0))
        ideal = Ideal(r, tuple(int(x) for x in members))
        if not ideal.verify():
            raise InternalInvariantViolation(
                f"{r.label}: quasi-regularity set is not a two-sided ideal")
        return ideal

    return r.memo("jacobson", build)


def _ideal_closure(r: FiniteRing, seeds: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Mask of the smallest two-sided ideal containing the seeds.

    Also returns the elements Y whose subgroup joins built it, an additive
    generating set of the ideal.  Each y taken into Y is joined in by the
    doubling step of the additive generators (``core._join_cyclic``), and
    g*y and y*g are queued for every g in the additive generating set G of R.
    When the queue is empty the mask is the subgroup S generated by Y, with
    g*y and y*g in S for every y in Y and g in G.  Then g*S lies in S, since
    left multiplication by g is additive; every r is a sum of members of G
    and * distributes over +, so r*S lies in S, and S*r likewise (the
    argument of ``core._holds_on_generators``).  So S is an ideal, and each
    element joined is forced into any ideal containing the seeds, so S is
    the smallest one.
    """
    gens = r.additive_generators()
    mask = np.zeros(r.order, dtype=bool)
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
    """Smallest two-sided ideal containing xs."""
    return _ideal(r, _ideal_closure(r, xs)[0])


def _principal_ideals(r: FiniteRing) -> dict[bytes, tuple[np.ndarray, list[int]]]:
    """Every principal ideal (x), keyed by its mask bytes, with its joined set.

    (x) = R(uxv)R for units u and v, so (x) is computed once per orbit of x
    under (u, v) -> u*x*v.  The units are read off ``mul_table`` here, so the
    lattice shares no code with the unit mask that the Jacobson radical uses.
    """
    mul = r.mul_table
    units = np.flatnonzero((mul == r.one).any(axis=1))  # one-sided inverse: a unit in a finite ring
    covered = np.zeros(r.order, dtype=bool)
    principal: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for x in range(r.order):
        if covered[x]:
            continue
        ux = np.zeros(r.order, dtype=bool)
        ux[mul[units, x]] = True
        covered[mul[np.ix_(np.flatnonzero(ux), units)]] = True
        mask, joined = _ideal_closure(r, [x])
        principal.setdefault(mask.tobytes(), (mask, joined))
    return principal


def ideal_lattice(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> tuple[Ideal, ...]:
    """Every two-sided ideal, as the join-closure of the principal ideals.

    Every ideal is a sum of principal ideals, so joining each newly found
    ideal with every principal ideal reaches them all.  A + B is the subgroup
    join of A with the additive generators of B, done for the whole frontier
    at once: S + y is the mask shift ``S[sub_table[:, y]]``.
    """
    if r.order > order_cap:
        raise LatticeCapExceeded(r.order, order_cap)
    # The build is refused exactly when |L| > count_cap; a stored lattice is
    # held to each caller's count_cap the same way.
    ideals = r.memo("lattice", lambda: _join_closure(r, count_cap))
    if len(ideals) > count_cap:
        raise LatticeCapExceeded(r.order, count_cap, f"more than {count_cap} ideals")
    return ideals


def _join_closure(r: FiniteRing, count_cap: int) -> tuple[Ideal, ...]:
    """The lattice of ``ideal_lattice``, refused once more than count_cap ideals are found.

    The count is checked before every round, the last one (which finds
    nothing new) included, so it is refused exactly when |L| > count_cap.
    """
    principal = _principal_ideals(r)
    found = {k: mask for k, (mask, _) in principal.items()}
    frontier = list(found.values())
    sub, add = r.sub_table, r.add_table
    while frontier:
        if len(found) > count_cap:
            raise LatticeCapExceeded(r.order, count_cap, f"more than {count_cap} ideals")
        masks = np.array(frontier)
        frontier = []
        for _, joined in principal.values():
            sums = masks.copy()
            for y in joined:
                step = y
                while True:
                    shifted = sums[:, sub[:, step]]
                    if not (shifted & ~sums).any():
                        break
                    sums |= shifted
                    step = add[step, step]
            for mask in sums:
                k = mask.tobytes()
                if k not in found:
                    found[k] = mask
                    frontier.append(mask)
    return tuple(sorted((_ideal(r, m) for m in found.values()),
                        key=lambda i: (len(i.members), i.members)))


def _is_prime_ideal(r: FiniteRing, ideal: Ideal) -> bool:
    """Proper P is prime when for all a, b outside P some a*r*b stays outside.

    Whether aRb lies in P depends only on the cosets a+P and b+P, so one
    representative per nonzero coset is scanned: its least element, as in
    ``FiniteRing.quotient_by``.  Every r is a sum of additive generators g
    and P is closed under +, so aRb lies in P exactly when every a*g*b does.
    """
    if not ideal.is_proper():
        return False
    mask = ideal.mask()
    rep = r.add_table[:, list(ideal.members)].min(axis=1)
    outside = np.flatnonzero((rep == np.arange(r.order)) & ~mask)
    escapes = np.zeros((len(outside), len(outside)), dtype=bool)
    for g in r.additive_generators():
        ag = r.mul_table[outside, g]
        escapes |= ~mask[r.mul_table[ag[:, None], outside]]  # [a, b] -> (a*g)*b
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
    ideals = ideal_lattice(r, order_cap=order_cap, count_cap=count_cap)

    def build() -> SpectrumReport:
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
        jset = set(jacobson_radical(r).members)
        j_spec = tuple(p for p in prime if jset <= set(p.members))
        return SpectrumReport(r, ideals, maximal, prime, j_spec)

    return r.memo("spectrum", build)


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
    """Intersection of the maximal or of the prime ideals, memoised per part."""
    sp = spectrum(r, order_cap=order_cap, count_cap=count_cap)

    def build() -> Ideal:
        # The empty intersection is the whole ring.
        mask = np.ones(r.order, dtype=bool)
        for i in getattr(sp, part):
            mask &= i.mask()
        ideal = Ideal(r, tuple(int(i) for i in np.flatnonzero(mask)))
        if not ideal.verify():
            raise InternalInvariantViolation(f"{r.label}: radical intersection is not an ideal")
        return ideal

    return r.memo(("intersection", part), build)


def j_star(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> Ideal:
    """Intersection of all maximal two-sided ideals, memoised."""
    return _spectrum_intersection(r, "maximal", order_cap, count_cap)


def prime_radical(
    r: FiniteRing,
    *,
    order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
    count_cap: int = DEFAULT_LATTICE_COUNT_CAP,
) -> Ideal:
    """Intersection of all prime ideals, memoised."""
    return _spectrum_intersection(r, "prime", order_cap, count_cap)


# ---------------------------------------------------------------------------
# quotients


def quotient_ring(r: FiniteRing, ideal: Ideal, label: str | None = None) -> FiniteRing:
    """Quotient by an ideal, memoised per member tuple and label.

    Without a ``label``, the first quotient built by these members is reused,
    whatever it is called; if there is none, one is built as
    ``"<label>/(<size>)"``.
    """
    members = ideal.members
    if label is None:
        label = r.memo(("quotient label", members), lambda: f"{r.label}/({len(members)})")
    else:
        r.memo(("quotient label", members), lambda: label)
    return r.memo(("quotient", members, label), lambda: r.quotient_by(members, label))


def radical_quotient(r: FiniteRing) -> FiniteRing:
    """R/J(R), labelled ``"<label>/J"``: the catalog, the ``jquot`` source and
    the suites all reach this one ring."""
    return quotient_ring(r, jacobson_radical(r), f"{r.label}/J")


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
