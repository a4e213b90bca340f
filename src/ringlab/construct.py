"""Ring constructors and the default verification catalog.

Every constructor emits canonical tables: zero at index 0, one at index 1, and
stable human-readable element names.  Rebuilding any catalog entry reproduces
byte-identical tables, so golden files and cross-run diffs stay stable.

Structured rings share one digit encoding (``_digits`` / ``_encode``): an
element is a tuple of m coordinates in 0..q-1 and its index is the base-q
number they spell, most significant first.  Tables are computed a whole
coordinate at a time with numpy and folded into indices Horner style, so one
n-by-n coordinate table is live per step.  Two builders use it:

- ``_quotient_poly_ring`` builds Z/p[x] modulo a monic polynomial (``gf``,
  ``zn_alpha``).  The coordinates are the coefficients, highest degree first,
  so index = sum a_i p^i is little-endian in the degree and puts 0 and 1 at
  indices 0 and 1 directly.
- ``_matrix_tables`` builds a family of k-by-k matrices over a table ring
  (``matrix_ring``, ``upper_triangular``, ``equal_diagonal_subring``,
  ``gf4_triangular_example``, ``strict_upper_bimodule``).  Coordinate t is
  read from its *home* cell; homes are listed row-major.  A *tied* cell holds
  a fixed image of one coordinate (the shared diagonal of the equal-diagonal
  ring, the Frobenius-twisted middle entry of the GF(4) showcase), and every
  other cell is zero.  Closure is verified cell by cell, not assumed: each
  product cell that is not a home must equal zero or its tie image.  The
  identity matrix is then moved to index 1 by the normalization pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ORDER_CAP, FiniteRing
from .errors import (
    BimoduleLawViolation,
    ClosureViolation,
    NotAnIdeal,
    NotIdempotent,
    OrderCapExceeded,
    UnsupportedFieldOrder,
)
from .subsets import Ideal, idempotents
from . import subsets

# Field order q -> (p, lower coefficients c_0, ..., c_{d-1} of a monic
# irreducible x^d + c_{d-1} x^(d-1) + ... + c_0 over Z/p), in catalog order.
IRREDUCIBLE = {
    2: (2, (0,)),
    3: (3, (0,)),
    4: (2, (1, 1)),      # x^2 + x + 1 over Z/2
    5: (5, (0,)),
    7: (7, (0,)),
    8: (2, (1, 1, 0)),   # x^3 + x + 1 over Z/2
    9: (3, (1, 0)),      # x^2 + 1 over Z/3
}

SUPPORTED_FIELD_ORDERS = tuple(IRREDUCIBLE)


def _digits(index, q: int, m: int) -> list:
    """The m base-q digits of ``index`` (an int or int array), most significant first."""
    return [index // q ** (m - 1 - t) % q for t in range(m)]


def _encode(digits, q: int):
    """Inverse of ``_digits``: fold digits, most significant first.

    ``digits`` may be a generator of equal-shape tables, so folding a whole
    table keeps one coordinate table live per step.
    """
    index = 0
    for d in digits:
        index = index * q + d
    return index


def zmod(n: int) -> FiniteRing:
    """Integers mod n; zmod(1) is the zero ring."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    names = tuple(idx.astype(str).tolist())
    return FiniteRing.from_tables(f"Z/{n}", add, mul, 0, 1 % n, names)


def _poly_names(coeffs: list[np.ndarray], var: str) -> tuple[str, ...]:
    """Names such as ``2t^2+t+1``, from the little-endian coefficient arrays."""
    names = np.full(len(coeffs[0]), "", dtype=object)
    for k in reversed(range(len(coeffs))):
        c = coeffs[k]
        term = c.astype(str).astype(object)
        if k:
            term = np.where(c == 1, "", term) + var + (f"^{k}" if k > 1 else "")
        names = np.where(c == 0, names, np.where(names == "", term, names + "+" + term))
    return tuple(np.where(names == "", "0", names).tolist())


def _quotient_poly_ring(label: str, p: int, modulus: tuple[int, ...], var: str) -> FiniteRing:
    """Z/p[x] mod a monic polynomial with the given lower coefficients.

    ``modulus`` lists c_0..c_{d-1} of x^d = -(c_{d-1} x^{d-1} + ... + c_0).
    The coefficient a_i of every element is digit d-1-i of its index.
    """
    d = len(modulus)
    coeffs = _digits(np.arange(p ** d, dtype=np.int32), p, d)[::-1]
    # shifted[j][i]: coefficient i of a * x^j, for every element a
    shifted = [coeffs]
    for _ in range(d - 1):
        prev = shifted[-1]
        shifted.append([(low - prev[-1] * c) % p for low, c in zip([0] + prev[:-1], modulus)])
    add = _encode(((a[:, None] + a[None, :]) % p for a in reversed(coeffs)), p)
    mul = _encode((sum(shifted[j][i][:, None] * coeffs[j][None, :] for j in range(d)) % p
                   for i in reversed(range(d))), p)
    return FiniteRing.from_tables(label, add, mul, 0, 1, _poly_names(coeffs, var))


def gf(q: int) -> FiniteRing:
    """Finite field of order q, for q in the supported list."""
    if q not in SUPPORTED_FIELD_ORDERS:
        raise UnsupportedFieldOrder(f"gf({q}) not supported; choose from {SUPPORTED_FIELD_ORDERS}")
    p, modulus = IRREDUCIBLE[q]
    return _quotient_poly_ring(f"GF({q})", p, modulus, "t")


def zn_alpha(n: int) -> FiniteRing:
    """Z/n adjoined a primitive cube root of unity: Z/n[w]/(w^2 + w + 1)."""
    if n < 2:
        raise ValueError(f"zn_alpha needs n >= 2, got {n}")
    return _quotient_poly_ring(f"Z/{n}[w]", n, (1, 1), "w")


def product(r: FiniteRing, s: FiniteRing, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Componentwise product ring; element (i, j) encodes as i*|S| + j."""
    n = r.order * s.order
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    ri, si = np.divmod(np.arange(n, dtype=np.int64), s.order)
    add = r.add_table[np.ix_(ri, ri)].astype(np.int64) * s.order + s.add_table[np.ix_(si, si)]
    mul = r.mul_table[np.ix_(ri, ri)].astype(np.int64) * s.order + s.mul_table[np.ix_(si, si)]
    names = "(" + r.name_array()[ri] + "," + s.name_array()[si] + ")"
    return FiniteRing.from_tables(f"{r.label} x {s.label}", add, mul,
                                  0, r.one * s.order + s.one, tuple(names.tolist()),
                                  order_cap=order_cap)


# ---------------------------------------------------------------------------
# matrix-shaped rings


def _matrix_tables(
    label: str,
    base: FiniteRing,
    k: int,
    homes: list[tuple[int, int]],
    ties: list[tuple[tuple[int, int], int, np.ndarray]] = (),
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Addition and multiplication tables of a family of k-by-k matrices over ``base``.

    Coordinate t is read from cell ``homes[t]``; each ``(cell, t, image)`` in
    ``ties`` makes ``cell`` hold ``image[coordinate t]``; every other cell is
    zero.  Also returns the entries of every element: cell -> index array.
    Raises ``ClosureViolation`` when a product leaves the family.
    """
    q, m = base.order, len(homes)
    digits = _digits(np.arange(q ** m, dtype=np.int32), q, m)
    cells = dict(zip(homes, digits))
    cells.update({cell: image[digits[t]] for cell, t, image in ties})

    def product_cell(r: int, c: int) -> np.ndarray | None:
        """Cell (r, c) of every product, or None where it is zero by support.

        The cell is sum over mids of left[r, mid] * right[mid, c], a function
        of the |mids| left and |mids| right entries only: it is tabulated on
        the q^|mids| x q^|mids| digit grid, then gathered once by each
        element's encoded entries.
        """
        mids = [mid for mid in range(k) if (r, mid) in cells and (mid, c) in cells]
        if not mids:
            return None
        grid = _digits(np.arange(q ** len(mids), dtype=np.int32), q, len(mids))
        small = None
        for g in grid:
            term = base.mul_table[g[:, None], g[None, :]]
            small = term if small is None else base.add_table[small, term]
        left = _encode((cells[r, mid] for mid in mids), q)
        right = _encode((cells[mid, c] for mid in mids), q)
        return small[left[:, None], right[None, :]]

    tie_of = {cell: (t, image) for cell, t, image in ties}
    held = dict.fromkeys(t for t, _ in tie_of.values())  # what tied cells must match

    def coordinate(t: int) -> np.ndarray:
        tab = product_cell(*homes[t])
        if tab is None:
            tab = np.full((q ** m, q ** m), base.zero, dtype=np.int32)
        if t in held:
            held[t] = tab
        return tab

    add = _encode((base.add_table[d[:, None], d[None, :]] for d in digits), q)
    mul = _encode(map(coordinate, range(m)), q)
    for cell in itertools.product(range(k), repeat=2):
        tab = None if cell in homes else product_cell(*cell)
        if tab is None:
            continue
        want = base.zero
        if cell in tie_of:
            t, image = tie_of[cell]
            want = image[held[t]]
        if (tab != want).any():
            raise ClosureViolation(f"{label}: products leave the family at cell {cell}")
    return add, mul, cells


def _matrix_ring(
    label: str,
    base: FiniteRing,
    k: int,
    homes: list[tuple[int, int]],
    ties: list[tuple[tuple[int, int], int, np.ndarray]] = (),
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteRing:
    """The matrix family of ``_matrix_tables`` as a ring, with matrix element names."""
    n = base.order ** len(homes)
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    add, mul, cells = _matrix_tables(label, base, k, homes, ties)
    one = _encode((base.one if r == c else base.zero for r, c in homes), base.order)
    names = base.name_array()

    def joined(parts):
        return "[" + functools.reduce(lambda a, b: a + "," + b, parts) + "]"

    rows = [joined([names[cells[r, c]] if (r, c) in cells else names[base.zero]
                    for c in range(k)]) for r in range(k)]
    return FiniteRing.from_tables(label, add, mul, 0, one, tuple(joined(rows).tolist()),
                                  order_cap=order_cap)


def matrix_ring(base: FiniteRing, k: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Full k-by-k matrix ring over a table ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    homes = [(i, j) for i in range(k) for j in range(k)]
    return _matrix_ring(f"M{k}({base.label})", base, k, homes, order_cap=order_cap)


def upper_triangular(base: FiniteRing, k: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Upper triangular k-by-k matrices over a table ring."""
    if k < 1:
        raise ValueError("matrix size must be >= 1")
    homes = [(i, j) for i in range(k) for j in range(i, k)]
    return _matrix_ring(f"T{k}({base.label})", base, k, homes, order_cap=order_cap)


def equal_diagonal_subring(base: FiniteRing, k: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Upper triangular matrices with constant diagonal.

    Encoded on 1 + k(k-1)/2 coordinates: the shared diagonal value first (its
    home is the top-left cell, the other diagonal cells are tied to it), then
    the strict-upper entries row-major.
    """
    if k < 2:
        raise ValueError("equal-diagonal subring needs k >= 2")
    homes = [(0, 0)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
    ties = [((d, d), 0, np.arange(base.order)) for d in range(1, k)]
    return _matrix_ring(f"T{k}^const({base.label})", base, k, homes, ties, order_cap=order_cap)


def corner(r: FiniteRing, e: int, label: str | None = None) -> FiniteRing:
    """The corner ring eRe with identity e."""
    if not 0 <= e < r.order:
        raise ValueError(f"{r.label}: element index {e} out of range [0, {r.order})")
    if r.mul(e, e) != e:
        raise NotIdempotent(f"{r.label}: element {e} is not idempotent")
    exe = np.unique(r.mul_table[r.mul_table[e, :], e])
    return r.subring(exe, e, label if label is not None else f"e{e}({r.label})e{e}")


def quotient(r: FiniteRing, ideal: Ideal | tuple[int, ...], label: str | None = None) -> FiniteRing:
    """Quotient ring by a two-sided ideal."""
    if not isinstance(ideal, Ideal):
        ideal = Ideal(r, tuple(sorted(int(i) for i in ideal)))
    if not ideal.verify():
        raise NotAnIdeal(f"{r.label}: {ideal.members} is not a two-sided ideal")
    return subsets.quotient_ring(r, ideal, label)


# ---------------------------------------------------------------------------
# ideal extensions


@dataclass(frozen=True)
class BimoduleSpec:
    """Data for an ideal extension: base ring R, pseudo-ring S, and actions.

    ``s_add``/``s_mul`` are |S|x|S| tables over S's indices (S needs no
    identity); ``left[r, s]`` and ``right[s, r]`` give the module actions.
    ``validate`` checks that S is an associative pseudo-ring, both actions are
    biadditive module actions, and the three compatibility laws between
    actions and S-multiplication hold.
    """

    label: str
    base: FiniteRing
    s_add: np.ndarray
    s_mul: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def s_order(self) -> int:
        return self.s_add.shape[0]

    def validate(self) -> None:
        r, ns = self.base, self.s_order
        s_add = np.asarray(self.s_add, dtype=np.int32)
        s_mul = np.asarray(self.s_mul, dtype=np.int32)
        left = np.asarray(self.left, dtype=np.int32)
        right = np.asarray(self.right, dtype=np.int32)
        if left.shape != (r.order, ns) or right.shape != (ns, r.order):
            raise BimoduleLawViolation("action table shape")
        # S is an abelian group with associative multiplication distributing
        # over addition.
        if not np.array_equal(s_add, s_add.T):
            raise BimoduleLawViolation("S addition commutative")
        if not np.array_equal(s_add[0], np.arange(ns)):
            raise BimoduleLawViolation("S zero at index 0")
        if not (s_add == 0).any(axis=1).all():
            raise BimoduleLawViolation("S additive inverses")
        if not np.array_equal(s_add[s_add, :], s_add[:, s_add]):
            raise BimoduleLawViolation("S addition associative")
        if not np.array_equal(s_mul[s_mul, :], s_mul[:, s_mul]):
            raise BimoduleLawViolation("S multiplication associative")
        if not np.array_equal(s_mul[:, s_add], s_add[s_mul[:, :, None], s_mul[:, None, :]]):
            raise BimoduleLawViolation("S left distributivity")
        if not np.array_equal(s_mul[s_add, :], s_add[s_mul[:, None, :], s_mul[None, :, :]]):
            raise BimoduleLawViolation("S right distributivity")
        # Biadditivity of the actions.
        if not np.array_equal(left[r.add_table, :], s_add[left[:, None, :], left[None, :, :]]):
            raise BimoduleLawViolation("left action additive in R")
        if not np.array_equal(left[:, s_add], s_add[left[:, :, None], left[:, None, :]]):
            raise BimoduleLawViolation("left action additive in S")
        if not np.array_equal(right[s_add, :], s_add[right[:, None, :], right[None, :, :]]):
            raise BimoduleLawViolation("right action additive in S")
        if not np.array_equal(right[:, r.add_table], s_add[right[:, :, None], right[:, None, :]]):
            raise BimoduleLawViolation("right action additive in R")
        # Module laws, each laid out so both gathers share the same axes.
        if not np.array_equal(left[r.mul_table, :], left[:, left]):
            # [r1, r2, s]: left[r1*r2, s] == left[r1, left[r2, s]]
            raise BimoduleLawViolation("(r1*r2)s = r1(r2*s)")
        if not np.array_equal(right[:, r.mul_table], right[right, :]):
            # [s, r1, r2]: right[s, r1*r2] == right[right[s, r1], r2]
            raise BimoduleLawViolation("s(r1*r2) = (s*r1)r2")
        if not np.array_equal(right[left, :], left[:, right]):
            # [r1, s, r2]: right[left[r1, s], r2] == left[r1, right[s, r2]]
            raise BimoduleLawViolation("(r1*s)r2 = r1(s*r2)")
        # Compatibility with S multiplication.
        if not np.array_equal(right[s_mul, :], s_mul[:, right]):
            # [s1, s2, r]: right[s1*s2, r] == s_mul[s1, right[s2, r]]
            raise BimoduleLawViolation("(s1*s2)r = s1(s2*r)")
        if not np.array_equal(left[:, s_mul], s_mul[left, :]):
            # [r, s1, s2]: left[r, s1*s2] == s_mul[left[r, s1], s2]
            raise BimoduleLawViolation("r(s1*s2) = (r*s1)s2")
        if not np.array_equal(s_mul[right, :], s_mul[:, left]):
            # [s1, r, s2]: s_mul[right[s1, r], s2] == s_mul[s1, left[r, s2]]
            raise BimoduleLawViolation("(s1*r)s2 = s1(r*s2)")

    def s_is_idempotent_free(self) -> bool:
        """No nonzero s with s*s = s."""
        diag = self.s_mul[np.arange(self.s_order), np.arange(self.s_order)]
        return not (diag[1:] == np.arange(1, self.s_order)).any()

    def s_has_quasi_inverses(self) -> bool:
        """Every s admits s' with s*s' = s'*s and s + s' + s*s' = 0."""
        s_add, s_mul = np.asarray(self.s_add), np.asarray(self.s_mul)
        ok = (s_mul == s_mul.T) & (s_add[s_add, s_mul] == 0)
        return bool(ok.any(axis=1).all())

    def idempotents_act_centrally(self) -> bool:
        """e*s = s*e for every idempotent e of the base ring and every s."""
        idem = list(idempotents(self.base).members)
        return np.array_equal(np.asarray(self.left)[idem, :], np.asarray(self.right)[:, idem].T)


def ideal_extension(spec: BimoduleSpec, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """The ring on R x S with product (r1,s1)(r2,s2) = (r1r2, s1s2 + r1s2 + s1r2).

    The bimodule data is validated first; the resulting tables then go through
    ring axiom validation, which in particular requires (1_R, 0) to act as
    identity.
    """
    spec.validate()
    r, ns = spec.base, spec.s_order
    n = r.order * ns
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    ri, si = np.divmod(np.arange(n, dtype=np.int64), ns)
    add = r.add_table[np.ix_(ri, ri)].astype(np.int64) * ns + spec.s_add[np.ix_(si, si)]
    s_part = spec.s_add[
        spec.s_add[spec.s_mul[np.ix_(si, si)], spec.left[np.ix_(ri, si)]],
        spec.right[np.ix_(si, ri)],
    ]
    mul = r.mul_table[np.ix_(ri, ri)].astype(np.int64) * ns + s_part
    names = "(" + r.name_array()[ri] + ";s" + si.astype(str).astype(object) + ")"
    return FiniteRing.from_tables(f"I({r.label};{spec.label})", add, mul,
                                  0, r.one * ns, tuple(names.tolist()), order_cap=order_cap)


def strict_upper_bimodule(base: FiniteRing, k: int, label: str | None = None) -> BimoduleSpec:
    """Strictly upper triangular k-by-k matrices over ``base`` as an R-R-bimodule.

    S multiplies as matrices (nilpotent, no identity); the base ring acts by
    scalar multiplication on entries, i.e. through the diagonal embedding.
    """
    if k < 2:
        raise ValueError("strict upper bimodule needs k >= 2")
    label = label if label is not None else f"N{k}({base.label})"
    strict = [(i, j) for i in range(k) for j in range(i + 1, k)]
    s_add, s_mul, cells = _matrix_tables(label, base, k, strict)
    left = _encode((base.mul_table[:, cells[cell]] for cell in strict), base.order)
    right = _encode((base.mul_table[cells[cell], :] for cell in strict), base.order)
    return BimoduleSpec(label, base, s_add, s_mul, left, right)


def gf4_triangular_example() -> FiniteRing:
    """The 64-element ring of 3x3 matrices [[x,y,z],[0,x^2,0],[0,0,x]] over GF(4).

    The middle diagonal entry is the field square of x (squaring is a ring
    homomorphism in characteristic 2, which is what keeps the set closed under
    products -- closure is still verified cell by cell, not assumed).
    """
    f = gf(4)
    ties = [((1, 1), 0, f.mul_table.diagonal()), ((2, 2), 0, np.arange(4))]
    return _matrix_ring("GF(4) twisted triangular (order 64)", f, 3,
                        [(0, 0), (0, 1), (0, 2)], ties)


# ---------------------------------------------------------------------------
# named bimodule specs for the extension harness


def t41_base_spec() -> BimoduleSpec:
    """Characteristic-2 strictly-upper bimodule over Z/2: all three extension
    conditions hold (s' = s works since 2s = 0 and s^2 = 0)."""
    return strict_upper_bimodule(zmod(2), 2, "N2(Z/2)")


def _projection_through(base: FiniteRing, e: int) -> np.ndarray:
    """phi[r] = 1 when the corner projection e*r*e equals e, else 0.

    For an idempotent e this is additive and multiplicative whenever the
    corner ring eRe has order 2, which is how the mutated specs below build
    their one-dimensional actions.
    """
    return (base.mul_table[base.mul_table[e, :], e] == e).astype(np.int32)


def t41_break_central_action_spec() -> BimoduleSpec:
    """Z/2 x Z/2 acting on a square-zero S through complementary coordinates on
    the two sides, so each nontrivial idempotent acts non-centrally."""
    base = product(zmod(2), zmod(2))
    e1, e2 = [e for e in idempotents(base).members if e not in (0, base.one)]
    s_add = np.array([[0, 1], [1, 0]], dtype=np.int32)
    s_mul = np.zeros((2, 2), dtype=np.int32)
    left = np.stack([np.zeros(4, np.int32), _projection_through(base, e1)], axis=1)
    right = np.stack([np.zeros(4, np.int32), _projection_through(base, e2)], axis=1).T.copy()
    return BimoduleSpec("sqzero-twisted", base, s_add, s_mul, left, right)


def t41_break_quasi_inverse_spec() -> BimoduleSpec:
    """Z/4 acting on itself with full multiplication: s = 1 has no quasi-inverse
    (1 + s' + s' is always odd), and S is not idempotent-free."""
    base = zmod(4)
    tab = base.mul_table.copy()
    return BimoduleSpec("Z/4-full", base, base.add_table.copy(), tab,
                        tab.copy(), tab.copy())


def t41_break_base_ring_spec() -> BimoduleSpec:
    """Upper triangular base ring (not uniquely pi-clean) acting on a square-zero
    S through the top-left corner entry on both sides, so idempotents still act
    centrally and quasi-inverses still exist."""
    base = upper_triangular(zmod(2), 2)
    e11 = base.elem_names.index("[[1,0],[0,0]]")
    phi = _projection_through(base, e11)
    s_add = np.array([[0, 1], [1, 0]], dtype=np.int32)
    s_mul = np.zeros((2, 2), dtype=np.int32)
    left = np.stack([np.zeros(8, np.int32), phi], axis=1)
    right = left.T.copy()
    return BimoduleSpec("sqzero-corner", base, s_add, s_mul, left, right)


T41_SPECS: dict[str, tuple] = {
    "t41-base": (t41_base_spec, None),
    "t41-break-central-action": (t41_break_central_action_spec, "idempotents act centrally"),
    "t41-break-quasi-inverse": (t41_break_quasi_inverse_spec, "quasi-inverses in S"),
    "t41-break-base-ring": (t41_break_base_ring_spec, "base ring uniquely pi-clean"),
}


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class RingCatalogEntry:
    """A catalog ring with its re-executable provenance id and any expected
    predicate values (tagged with where the expectation comes from)."""

    ring: FiniteRing
    provenance: str
    expected: dict | None = None


def build_from_provenance(provenance: str) -> FiniteRing:
    """Re-execute a provenance id (same grammar as the CLI ring sources)."""
    from .sources import parse_ring_source  # local import: sources imports this module
    return parse_ring_source(provenance)


def _catalog_primary() -> list[RingCatalogEntry]:
    classified = {
        "zmod:3": {
            "uniquely_clean": (False, "2 splits both as 0+2 and as 1+1"),
            "uniquely_pi_clean": (True, "squares of nonzero elements are 1"),
        },
        "zn-alpha:3": {
            "uniquely_pi_clean": (True, "finite commutative"),
        },
        "matrix:zmod2:2": {
            "clean": (True, "exchange plus lifted idempotents"),
            "uniquely_pi_clean": (False, "non-central idempotent"),
        },
        "paper:gf4-example": {
            "uniquely_pi_clean": (True, "generalized 7-like"),
            "commutative": (False, "off-diagonal entries twist"),
            "generalized_7_like": (True, "each element has a^7 = a or a^2 = 0"),
        },
    }
    entries: list[RingCatalogEntry] = []

    def put(provenance: str, ring: FiniteRing):
        entries.append(RingCatalogEntry(ring, provenance, classified.get(provenance)))

    for n in list(range(1, 17)) + [27, 32]:
        put(f"zmod:{n}", zmod(n))
    for q in SUPPORTED_FIELD_ORDERS:
        put(f"gf:{q}", gf(q))
    bases = [("zmod2", zmod(2)), ("zmod3", zmod(3)), ("zmod4", zmod(4)),
             ("zmod6", zmod(6)), ("gf4", gf(4))]
    for (ida, a), (idb, b) in itertools.combinations_with_replacement(bases, 2):
        if a.order * b.order <= 36:
            put(f"product:{ida},{idb}", product(a, b))
    put("matrix:zmod2:2", matrix_ring(zmod(2), 2))
    put("matrix:zmod3:2", matrix_ring(zmod(3), 2))
    put("tri:zmod2:2", upper_triangular(zmod(2), 2))
    put("tri:zmod3:2", upper_triangular(zmod(3), 2))
    put("eqdiag:zmod2:2", equal_diagonal_subring(zmod(2), 2))
    put("eqdiag:zmod2:3", equal_diagonal_subring(zmod(2), 3))
    put("eqdiag:zmod3:2", equal_diagonal_subring(zmod(3), 2))
    for n in (2, 3, 4):
        put(f"zn-alpha:{n}", zn_alpha(n))
    for name, (builder, _) in T41_SPECS.items():
        put(f"extension:{name}", ideal_extension(builder()))
    put("paper:gf4-example", gf4_triangular_example())
    return entries


def default_catalog() -> list[RingCatalogEntry]:
    """The deterministic verification catalog.

    The explicitly constructed entries come first; then, for each of them, the
    corner ring of every idempotent and the quotient by the Jacobson radical,
    skipping derived rings whose canonical tables duplicate an earlier entry
    byte for byte.
    """
    entries = _catalog_primary()
    seen = {e.ring.table_bytes() for e in entries}
    derived: list[RingCatalogEntry] = []
    for entry in entries:
        r = entry.ring
        for e in idempotents(r).members:
            c = corner(r, e, f"corner {e} of {r.label}")
            key = c.table_bytes()
            if key not in seen:
                seen.add(key)
                derived.append(RingCatalogEntry(c, f"corner:{entry.provenance}:{e}"))
        q = subsets.radical_quotient(r)
        key = q.table_bytes()
        if key not in seen:
            seen.add(key)
            derived.append(RingCatalogEntry(q, f"jquot:{entry.provenance}"))
    return entries + derived
