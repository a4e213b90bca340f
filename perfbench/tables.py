"""Ring tables for the file workloads, generated with numpy alone.

Nothing here imports ``ringlab``: the tables the benchmark feeds to
``core.load_ring_file`` are built independently of the library, so the
accept/reject verdict expected for each file does not rest on the code under
test.

Every table is written in the library's JSON ring format, relabelled by a
seeded permutation so that zero and one sit at arbitrary indices and the
loader has to normalise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Orders are fixed, so the cubic cost of validating a pass does not depend on
# the seed; the seed picks the factor pair of the product ring, the relabelling
# and the corrupted cells.
ZMOD_ORDER = 256
PRODUCT_ORDER = 384
PRODUCT_FACTORS = ((2, 192), (3, 128), (4, 96), (6, 64), (8, 48), (12, 32), (16, 24))
MATRIX_ORDER = 512  # 3x3 matrices over Z/2


@dataclass(frozen=True)
class Table:
    label: str
    add: np.ndarray
    mul: np.ndarray
    zero: int
    one: int

    @property
    def order(self) -> int:
        return self.add.shape[0]

    def to_json(self) -> str:
        return json.dumps({"label": self.label, "order": self.order,
                           "add": self.add.tolist(), "mul": self.mul.tolist(),
                           "zero": self.zero, "one": self.one},
                          separators=(",", ":"))


def zmod(n: int) -> Table:
    idx = np.arange(n, dtype=np.int64)
    return Table(f"Z/{n}", (idx[:, None] + idx) % n, (idx[:, None] * idx) % n, 0, 1)


def zmod_product(m: int, k: int) -> Table:
    """Z/m x Z/k with (a, b) at index a*k + b."""
    a, b = np.divmod(np.arange(m * k, dtype=np.int64), k)
    add = ((a[:, None] + a) % m) * k + (b[:, None] + b) % k
    mul = ((a[:, None] * a) % m) * k + (b[:, None] * b) % k
    return Table(f"Z/{m} x Z/{k}", add, mul, 0, k + 1)


def matrix3_gf2() -> Table:
    """M3(Z/2): entry (r, c) of matrix x is bit 3r + c of its index x."""
    idx = np.arange(MATRIX_ORDER, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(9)) & 1).reshape(-1, 3, 3)
    prod = np.einsum("irk,jkc->ijrc", bits, bits) & 1
    mul = (prod.reshape(MATRIX_ORDER, MATRIX_ORDER, 9) << np.arange(9)).sum(axis=2)
    identity = (1 << 0) | (1 << 4) | (1 << 8)
    return Table("M3(Z/2)", idx[:, None] ^ idx, mul, 0, identity)


def relabeled(t: Table, rng: np.random.Generator) -> Table:
    """The same ring with element x renamed perm[x]."""
    perm = rng.permutation(t.order)
    inv = np.argsort(perm)
    add = perm[t.add[np.ix_(inv, inv)]]
    mul = perm[t.mul[np.ix_(inv, inv)]]
    return Table(t.label, add, mul, int(perm[t.zero]), int(perm[t.one]))


def corrupted(t: Table, which: str, rng: np.random.Generator) -> Table:
    """A copy with one cell of the ``which`` table changed to another index.

    The result is never a ring, so loading it must fail:

    * add: the addition table of a group is a Latin square, each row a
      permutation.  A changed cell repeats one value in its row, so the
      table is no group table and the full axiom scan rejects it.
    * mul: say a*b changes.  If b = 0, zero no longer annihilates.  Else, for
      n >= 3, pick y outside {0, b}; a*(b-y) and a*y are unchanged cells, so
      a*b = a*(b-y) + a*y held before and fails now: distributivity breaks.
    """
    i, j = (int(v) for v in rng.integers(t.order, size=2))
    table = (t.add if which == "add" else t.mul).copy()
    table[i, j] = (table[i, j] + rng.integers(1, t.order)) % t.order
    add, mul = (table, t.mul) if which == "add" else (t.add, table)
    return Table(f"{t.label} with {which}[{i}][{j}] changed", add, mul, t.zero, t.one)


def valid_tables(seed: int) -> list[Table]:
    """Z/256, Z/m x Z/k of order 384 and M3(Z/2), relabelled, for one seed."""
    rng = np.random.default_rng(seed)
    m, k = PRODUCT_FACTORS[int(rng.integers(len(PRODUCT_FACTORS)))]
    return [relabeled(t, rng) for t in (zmod(ZMOD_ORDER), zmod_product(m, k), matrix3_gf2())]


def corrupted_tables(seed: int) -> list[Table]:
    """One add-corrupted and one mul-corrupted copy of each valid table."""
    rng = np.random.default_rng([seed, 1])
    return [corrupted(t, which, rng) for t in valid_tables(seed) for which in ("add", "mul")]


def write_tables(tables: list[Table], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for n, t in enumerate(tables):
        path = directory / f"ring{n}.json"
        path.write_text(t.to_json(), encoding="utf-8")
        paths.append(path)
    return paths
