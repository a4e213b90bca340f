"""Ring constructors and the default verification catalog.

Every constructor hands its tables to ``FiniteRing._canonical``, which
normalizes them in place, zero to index 0 and one to index 1, so one pair of
tables is live, and gives the elements stable human-readable names.
Rebuilding any catalog entry reproduces byte-identical tables, so golden
files and cross-run diffs stay stable.  The catalog is data:
``CATALOG_SOURCES`` lists its primary rings as ring sources (see
``sources``), and each is built from its source, the one path that also
re-executes a provenance id.

Rings on R x S share one table builder, ``_pair_table``, which puts element
(r, s) at index r*|S| + s: ``product``, ``ideal_extension``, and the additive
group of every structured ring below, the m-fold product of its coordinate
group (``_power_table``, folded from the right: the coordinate table is
paired with the running table, never the other way round).

The structured constructors build rings by theorem, without
``validate_tables``: each runs only the checks its theorem needs, and its
docstring states the theorem.  Only ``ideal_extension`` validates its tables,
because that validation decides the bimodule laws of its spec.

Structured rings share one digit encoding (``_digits`` / ``_encode``): an
element is a tuple of m coordinates in 0..q-1 and its index is the base-q
number they spell, most significant first, which is the index that m - 1
folds of ``_pair_table`` give, from either side.  Two builders use it:

- ``_quotient_poly_ring`` builds Z/p[x] modulo a monic polynomial (``gf``,
  ``zn_alpha``).  The coordinates are the coefficients, highest degree first,
  so index = sum a_i p^i is little-endian in the degree and puts 0 and 1 at
  indices 0 and 1 directly.  Its multiplication table is computed a whole
  coordinate at a time and folded Horner style into one running index
  table, in place, so besides it one n-by-n coordinate table is live per
  step.
- ``_matrix_tables`` builds a family of k-by-k matrices over a table ring
  (``matrix_ring``, ``upper_triangular``, ``equal_diagonal_subring``,
  ``gf4_triangular_example``, ``strict_upper_bimodule``).  Coordinate t is
  read from its *home* cell; homes are listed row-major.  A *tied* cell holds
  a fixed image of one coordinate (the shared diagonal of the equal-diagonal
  ring, the Frobenius-twisted middle entry of the GF(4) showcase), and every
  other cell is zero.  Row r of a product depends only on row r of the left
  factor, so each product row is tabulated on the encodings of that row's
  entries and the multiplication table is a sum of one row take per matrix
  row, added a row block at a time.  Closure is verified, not assumed: under
  + by checking that each tie image is additive, under * cell by cell and
  row block by row block (each product cell that is not a home must equal
  zero or its tie image).  ``_matrix_ring`` then checks that its identity
  fixes every element; normalization moves it to index 1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ORDER_CAP, FiniteRing, _row_blocks, _unfixed_by
from .errors import (
    BimoduleLawViolation,
    ClosureViolation,
    NoIdentity,
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

    ``digits`` may be a generator of equal-shape tables.  The first step makes
    a fresh array; later ones fold into it in place, so no digit table is
    written and only the running index and one coordinate table are live.
    """
    index = 0
    for d in digits:
        if isinstance(index, np.ndarray) and index.shape == np.shape(d):
            index *= q
            index += d
        else:
            index = index * q + d
    return index


def _pair_table(rt: np.ndarray, st: np.ndarray) -> np.ndarray:
    """A table on R x S, element (r, s) at index r*|S| + s.

    Cell ((r1, s1), (r2, s2)) holds rt[r1, r2]*|S| + st[s1, s2], built as one
    broadcast over the four axes (r1, s1, r2, s2) and reshaped to n x n.  An
    S part that depends on r1 and r2 as well is given on all four axes.
    """
    ns = st.shape[-1]
    if st.ndim == 2:
        st = st[None, :, None, :]
    return (rt[:, None, :, None] * ns + st).reshape(len(rt) * ns, -1)


def _power_table(coord: np.ndarray, m: int) -> np.ndarray:
    """The table of the m-fold product of ``coord``'s structure with itself.

    Folded from the right, ``_pair_table(coord, acc)``: the index
    r*q^k + s of a leading coordinate r before k more is the one the left
    fold gives, so the table is the same, and the broadcast's inner loop
    runs over the large running table instead of a q-wide one.
    """
    table = coord
    for _ in range(m - 1):
        table = _pair_table(coord, table)
    return table


def zmod(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Integers mod n; zmod(1) is the zero ring.

    Z/n is the quotient of the ring Z by the ideal nZ, so its tables, taken
    mod n, are a ring's and are not validated.  Products are formed in int64,
    where (n-1)^2 cannot overflow, and stored as int32, one row block at a
    time (``core._row_blocks``), so no int64 n-by-n table is live.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    idx = np.arange(n, dtype=np.int64)
    add = np.empty((n, n), dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    for start, stop in _row_blocks(n, n):
        rows = idx[start:stop, None]
        sums = rows + idx
        sums[sums >= n] -= n  # (a + b) mod n, as a + b < 2n
        add[start:stop] = sums
        mul[start:stop] = rows * idx % n
    names = tuple(idx.astype(str).tolist())
    return FiniteRing._canonical(f"Z/{n}", add, mul, 0, 1 % n, names)


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
    The coefficient a_i of every element is digit d-1-i of its index.  For
    any p >= 2, Z/p[x] is a ring and the polynomials of degree below d are
    representatives of its quotient by the ideal (f) of a monic f of degree
    d (division by a monic polynomial leaves a unique remainder), so the
    tables are a ring's and are not validated.
    """
    d = len(modulus)
    coeffs = _digits(np.arange(p ** d, dtype=np.int32), p, d)[::-1]
    # shifted[j][i]: coefficient i of a * x^j, for every element a
    shifted = [coeffs]
    for _ in range(d - 1):
        prev = shifted[-1]
        shifted.append([(low - prev[-1] * c) % p for low, c in zip([0] + prev[:-1], modulus)])
    digit = np.arange(p, dtype=np.int32)
    add = _power_table((digit[:, None] + digit[None, :]) % p, d)
    mul = _encode((sum(shifted[j][i][:, None] * coeffs[j][None, :] for j in range(d)) % p
                   for i in reversed(range(d))), p)
    return FiniteRing._canonical(label, add, mul, 0, 1, _poly_names(coeffs, var))


def gf(q: int) -> FiniteRing:
    """Finite field of order q, for q in the supported list."""
    if q not in SUPPORTED_FIELD_ORDERS:
        raise UnsupportedFieldOrder(f"gf({q}) not supported; choose from {SUPPORTED_FIELD_ORDERS}")
    p, modulus = IRREDUCIBLE[q]
    return _quotient_poly_ring(f"GF({q})", p, modulus, "t")


def zn_alpha(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Z/n adjoined a primitive cube root of unity: Z/n[w]/(w^2 + w + 1)."""
    if n < 2:
        raise ValueError(f"zn_alpha needs n >= 2, got {n}")
    if n * n > order_cap:
        raise OrderCapExceeded(n * n, order_cap)
    return _quotient_poly_ring(f"Z/{n}[w]", n, (1, 1), "w")


def product(r: FiniteRing, s: FiniteRing, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Componentwise product ring; element (i, j) encodes as i*|S| + j.

    Every ring law holds in R x S because it holds in each coordinate, and
    (1, 1) is its identity, so the tables of two rings' product are not
    validated.
    """
    n = r.order * s.order
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    names = "(" + r.name_array()[:, None] + "," + s.name_array()[None, :] + ")"
    return FiniteRing._canonical(f"{r.label} x {s.label}", _pair_table(r.add_table, s.add_table),
                                 _pair_table(r.mul_table, s.mul_table),
                                 0, r.one * s.order + s.one, tuple(names.ravel().tolist()))


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
    Raises ``ClosureViolation`` when a sum or a product leaves the family: a
    sum stays in it exactly when every tie image is additive,
    image[a + b] = image[a] + image[b].
    """
    q, m = base.order, len(homes)
    for cell, _, image in ties:
        if (image[base.add_table] != base.add_table[image[:, None], image[None, :]]).any():
            raise ClosureViolation(f"{label}: sums leave the family at cell {cell}")
    digits = _digits(np.arange(q ** m, dtype=np.int32), q, m)
    cells = dict(zip(homes, digits))
    cells.update({cell: image[digits[t]] for cell, t, image in ties})

    base_add, base_mul = base.add_table.ravel(), base.mul_table.ravel()

    def row_of_products(r: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Row r of every product, tabulated on row r of the left factor.

        Cell (r, c) of x*y is the sum over mids of x[r, mid] * y[mid, c], a
        function of row r of x and of y only.  It is tabulated as [l, y], l
        running over the q^|row| encodings of the entries present in row r,
        with ``left`` giving each element's l, so cell (r, c) of every
        product is ``cols[c].take(left, axis=0)``: one row take.  A column
        that is zero by support has no table.
        """
        row = [mid for mid in range(k) if (r, mid) in cells]
        # q * (entry at mid) on the grid: the row offset of a flat base-table read
        entries = _digits(np.arange(q ** len(row)), q, len(row))
        grid = {mid: q * entry[:, None] for mid, entry in zip(row, entries)}
        cols: dict[int, np.ndarray] = {}
        for c in range(k):
            for mid in row:
                if (mid, c) in cells:
                    term = base_mul.take(grid[mid] + cells[mid, c])
                    cols[c] = base_add.take(q * cols[c] + term) if c in cols else term
        return _encode((cells[r, mid] for mid in row), q), cols

    rows = [row_of_products(r) for r in range(k)]
    n = q ** m

    def product_cell(r: int, c: int, start: int, stop: int) -> np.ndarray | int:
        """Cell (r, c) of the products x*y for x in start..stop-1 and every y;
        ``base.zero`` where it is zero by support."""
        left, cols = rows[r]
        return cols[c].take(left[start:stop], axis=0) if c in cols else base.zero

    add = _power_table(base.add_table, m)
    # the index is the sum over t of q^(m-1-t) * coordinate t, added one
    # matrix row and one row block at a time; base.zero is index 0, so a
    # coordinate that is zero by support adds nothing
    mul = np.zeros((n, n), dtype=np.int32)
    for r, (left, cols) in enumerate(rows):
        weighted = [cols[c] * q ** (m - 1 - t) for t, (hr, c) in enumerate(homes)
                    if hr == r and c in cols]
        if weighted:
            row_sum = sum(weighted)
            for start, stop in _row_blocks(n, n):
                mul[start:stop] += row_sum.take(left[start:stop], axis=0)
    tie_of = {cell: (t, image) for cell, t, image in ties}
    for r, c in itertools.product(range(k), repeat=2):
        if (r, c) in homes or c not in rows[r][1]:
            continue
        for start, stop in _row_blocks(n, n):
            want = base.zero
            if (r, c) in tie_of:  # a tied cell must match its home's image
                t, image = tie_of[r, c]
                want = image[product_cell(*homes[t], start, stop)]
            if (product_cell(r, c, start, stop) != want).any():
                raise ClosureViolation(f"{label}: products leave the family at cell {(r, c)}")
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
    """The matrix family of ``_matrix_tables`` as a ring, with matrix element names.

    The encoded elements are matrices of M_k(base), itself a ring, and the
    encoding respects + and * once ``_matrix_tables`` has checked closure
    under both.  A subset of a ring that is closed under + and * and has an
    element fixing every member on both sides is a ring (see the ``core``
    module docstring).  So the one check left is that ``one``, the element
    with 1 in each diagonal home and 0 in every other home, fixes every
    element, else ``NoIdentity`` (the error and witness that full validation
    gives); the tables are not validated.
    """
    n = base.order ** len(homes)
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    add, mul, cells = _matrix_tables(label, base, k, homes, ties)
    one = _encode((base.one if r == c else base.zero for r, c in homes), base.order)
    bad = _unfixed_by(mul, one)
    if bad is not None:
        raise NoIdentity(f"declared identity x{one} does not fix x{bad}", (one, bad))
    names = base.name_array()

    def joined(parts):
        return "[" + functools.reduce(lambda a, b: a + "," + b, parts) + "]"

    rows = [joined([names[cells[r, c]] if (r, c) in cells else names[base.zero]
                    for c in range(k)]) for r in range(k)]
    return FiniteRing._canonical(label, add, mul, 0, one, tuple(joined(rows).tolist()))


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
    """The corner ring eRe with identity e, memoised per idempotent and label.

    Without a ``label``, the first corner built at e is reused, whatever it is
    called (``FiniteRing.derived``); if there is none, one is built as
    ``"e<e>(<label>)e<e>"``.  A non-idempotent e raises ``NotIdempotent`` and
    stores nothing.  At e = 1 the corner is R itself (1R1 = R), so ``r`` is
    returned, whatever the ``label``, and nothing is built.
    """
    e = r.elem(e).index
    if r.mul(e, e) != e:
        raise NotIdempotent(f"{r.label}: element {e} is not idempotent")
    if e == r.one:
        return r

    def build(name: str) -> FiniteRing:
        return r.subring(np.unique(r.mul_table[r.mul_table[e, :], e]), e, name)

    return r.derived(("corner", e), label, f"e{e}({r.label})e{e}", build)


def quotient(r: FiniteRing, ideal: Ideal | tuple[int, ...], label: str | None = None) -> FiniteRing:
    """Quotient ring by a two-sided ideal of ``r``; ``NotAnIdeal`` otherwise."""
    if not isinstance(ideal, Ideal):
        ideal = Ideal(r, tuple(sorted(int(i) for i in ideal)))
    return subsets.quotient_ring(r, ideal, label)


# ---------------------------------------------------------------------------
# ideal extensions


@dataclass(frozen=True)
class BimoduleSpec:
    """Data for an ideal extension: base ring R, pseudo-ring S, and actions.

    ``s_add``/``s_mul`` are |S|x|S| tables over S's indices, zero at index 0
    (S needs no identity); ``left[r, s]`` and ``right[s, r]`` give the module
    actions.  ``ideal_extension`` decides the bimodule laws.
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
        """Check the format, and that the zero of R acts as zero (row 0 of
        ``left``, column 0 of ``right``), the one law the extension cannot
        see; ``BimoduleLawViolation`` otherwise."""
        tables = dict(s_add=self.s_add, s_mul=self.s_mul, left=self.left, right=self.right)
        if not all(isinstance(t, np.ndarray) and t.ndim == 2 and t.dtype.kind in "iu"
                   for t in tables.values()):
            raise BimoduleLawViolation("tables must be two-dimensional integer arrays")
        ns, nr = self.s_order, self.base.order
        shapes = dict(s_add=(ns, ns), s_mul=(ns, ns), left=(nr, ns), right=(ns, nr))
        for name, t in tables.items():
            if t.shape != shapes[name]:
                raise BimoduleLawViolation(f"{name} has shape {t.shape}, not {shapes[name]}")
            bad = np.argwhere((t < 0) | (t >= ns))
            if bad.size:
                raise BimoduleLawViolation(f"{name} entry out of range [0, {ns})",
                                           tuple(bad[0].tolist()))
        if self.left[0].any() or self.right[:, 0].any():
            raise BimoduleLawViolation("the zero of R acts as zero")

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

    Its ring axiom validation decides the bimodule laws.  As R is a ring and
    0_R acts as zero (``spec.validate``), zero annihilation on (0,0) makes
    (r,0)(0,s), (0,s)(r,0), (0,s1)(0,s2) and (r1,0)(r2,0) equal (0,rs),
    (0,sr), (0,s1s2) and (r1r2,0); each law is then a ring axiom on such
    elements, e.g. (r1r2)s = r1(r2s) is associativity on (r1,0), (r2,0),
    (0,s), and 1s = s = s1 is the identity (1,0).  Conversely the laws make
    the product biadditive, and the associator, being trilinear, vanishes
    everywhere.  The extension sees only the sum s1s2 + r1s2 + s1r2, hence
    the zero-action check: adding one t = -t to every entry of ``left`` and
    ``right`` changes no table of R x S.
    """
    spec.validate()
    r, ns = spec.base, spec.s_order
    n = r.order * ns
    if n > order_cap:
        raise OrderCapExceeded(n, order_cap)
    # s1s2 + r1s2 + s1r2 on the axes (r1, s1, r2, s2)
    s_part = spec.s_add[spec.s_add[spec.s_mul[None, :, None, :], spec.left[:, None, None, :]],
                        spec.right[None, :, :, None]]
    names = "(" + r.name_array()[:, None] + ";s" + np.arange(ns).astype(str).astype(object) + ")"
    add, mul = _pair_table(r.add_table, spec.s_add), _pair_table(r.mul_table, s_part)
    return FiniteRing.from_tables(f"I({r.label};{spec.label})", add, mul,
                                  0, r.one * ns, tuple(names.ravel().tolist()))


def strict_upper_bimodule(base: FiniteRing, k: int) -> BimoduleSpec:
    """Strictly upper triangular k-by-k matrices over ``base`` as an R-R-bimodule.

    S multiplies as matrices (nilpotent, no identity); the base ring acts by
    scalar multiplication on entries, i.e. through the diagonal embedding.
    """
    if k < 2:
        raise ValueError("strict upper bimodule needs k >= 2")
    label = f"N{k}({base.label})"
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
    return strict_upper_bimodule(zmod(2), 2)


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


# the primary entries, in catalog order, as ring sources (see ``sources``)
CATALOG_SOURCES: tuple[str, ...] = (
    *(f"zmod:{n}" for n in [*range(1, 17), 27, 32]),
    *(f"gf:{q}" for q in SUPPORTED_FIELD_ORDERS),
    *(f"product:{a},{b}" for a, b in itertools.combinations_with_replacement(
        ("zmod2", "zmod3", "zmod4", "zmod6", "gf4"), 2)),
    "matrix:zmod2:2", "matrix:zmod3:2", "tri:zmod2:2", "tri:zmod3:2",
    "eqdiag:zmod2:2", "eqdiag:zmod2:3", "eqdiag:zmod3:2",
    *(f"zn-alpha:{n}" for n in (2, 3, 4)),
    *(f"extension:{name}" for name in T41_SPECS),
    "paper:gf4-example",
)

# expected predicate values of primary entries by source: name -> (value, why)
CATALOG_EXPECTED: dict[str, dict] = {
    "zmod:3": {
        "uniquely_clean": (False, "2 splits both as 0+2 and as 1+1"),
        "uniquely_pi_clean": (True, "squares of nonzero elements are 1"),
    },
    "zn-alpha:3": {"uniquely_pi_clean": (True, "finite commutative")},
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


def default_catalog() -> list[RingCatalogEntry]:
    """The deterministic verification catalog.

    The rings of ``CATALOG_SOURCES`` come first, each built from its source;
    then, for each of them, the corner ring of every idempotent but 1 (the
    corner at 1 is the ring itself) and the quotient by the Jacobson radical,
    skipping derived rings whose canonical tables duplicate an earlier entry
    byte for byte.

    The rings of one catalog with equal tables share one memo, so each value
    is built once per distinct table (``FiniteRing.share_memo``): primary
    twins such as ``zmod:2`` and ``gf:2``, the derived rings, and every ring
    derived from them later (the suites' corners and quotients).  The map of
    tables is made fresh per call and doubles as the dedup set, so nothing
    is shared between two catalogs.
    """
    entries = [RingCatalogEntry(build_from_provenance(source), source, CATALOG_EXPECTED.get(source))
               for source in CATALOG_SOURCES]
    twins: dict[bytes, FiniteRing] = {}
    for entry in entries:
        entry.ring.share_memo(twins)
    derived: list[RingCatalogEntry] = []
    for entry in entries:
        r, source = entry.ring, entry.provenance
        candidates = [(corner(r, e, f"corner {e} of {r.label}"), f"corner:{source}:{e}")
                      for e in idempotents(r).members if e != r.one]
        for ring, provenance in candidates + [(subsets.radical_quotient(r), f"jquot:{source}")]:
            if twins[ring.table_bytes()] is ring:  # the first ring with its tables
                derived.append(RingCatalogEntry(ring, provenance))
    return entries + derived
