"""Rings of order 256-1024 against closed forms that share no code with the library.

Deselected by default; run with ``pytest -m large``.
"""

from __future__ import annotations

from math import prod

import pytest

from ringlab import jacobson_radical, nilpotents, units
from ringlab.sources import parse_ring_source

pytestmark = pytest.mark.large


def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)| = prod_{i<k} (q^k - q^i)."""
    return prod(q ** k - q ** i for i in range(k))


@pytest.mark.parametrize("source, q, k", [("matrix:gf4:2", 4, 2), ("matrix:zmod2:3", 2, 3)])
def test_matrix_ring_counts(source, q, k):
    ring = parse_ring_source(source)
    assert ring.order == q ** (k * k)
    assert len(units(ring).members) == gl_order(q, k)
    # M_k(F_q) has q^(k^2-k) nilpotents (Fine & Herstein, 1958)
    assert len(nilpotents(ring).members) == q ** (k * k - k)


@pytest.mark.parametrize("source, q, k", [("tri:zmod3:3", 3, 3), ("tri:zmod2:4", 2, 4)])
def test_triangular_radical(source, q, k):
    ring = parse_ring_source(source)
    assert ring.order == q ** (k * (k + 1) // 2)
    # J(T_k(F_q)) is the strictly upper triangular part
    assert len(jacobson_radical(ring).members) == q ** (k * (k - 1) // 2)
    assert len(units(ring).members) == (q - 1) ** k * q ** (k * (k - 1) // 2)


def test_zmod_1024_units():
    ring = parse_ring_source("zmod:1024")
    # phi(2^10) = 2^9
    assert len(units(ring).members) == 2 ** 9
    assert len(ring.additive_generators()) == 1
