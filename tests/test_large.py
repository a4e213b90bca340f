"""Rings of order 256-1024 against closed forms that share no code with the library.

Deselected by default; run with ``pytest -m large``.
"""

from __future__ import annotations

from math import prod
from time import perf_counter

import pytest
from sympy import catalan, divisor_count

from ringlab import (all_ideals, gf, jacobson_radical, load_ring_json, nilpotents, product,
                     spectrum, units)
from ringlab.predicates import GENERALIZED_RANGE, generalized_n_like_witness
from ringlab.sources import parse_ring_source
from test_predicates import reference_n_like_witness, zmod_n_like_witness

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


@pytest.mark.parametrize("source, count", [
    ("matrix:gf4:2", 2),                 # M_k(F_q) is simple (Wedderburn-Artin)
    ("matrix:zmod2:3", 2),
    ("tri:zmod3:3", int(catalan(4))),    # T_k(F_q) has Catalan(k+1) ideals
    ("tri:zmod2:4", int(catalan(5))),
    ("zmod:1024", int(divisor_count(1024))),
])
def test_ideal_counts(source, count):
    assert len(all_ideals(parse_ring_source(source), order_cap=1024)) == count


def test_boolean_ring_of_order_256_ideal_count():
    r = gf(2)
    for _ in range(7):
        r = product(r, gf(2))
    # every subset of the 8 coordinates spans one ideal
    assert len(all_ideals(r, order_cap=1024)) == 2 ** 8


def test_boolean_ring_of_order_1024_spectrum():
    r = gf(2)
    for _ in range(9):
        r = product(r, gf(2))
    start = perf_counter()
    sp = spectrum(r, order_cap=1024)
    seconds = perf_counter() - start
    # one ideal per subset of the 10 coordinates; the primes, all maximal,
    # are the 10 ideals that drop one coordinate
    assert (len(sp.all_ideals), len(sp.prime), len(sp.maximal)) == (2 ** 10, 10, 10)
    assert seconds < 1.0, f"lattice and spectrum of GF(2)^10 took {seconds:.2f} s"


def test_zmod_1024_n_like_witnesses():
    ring = parse_ring_source("zmod:1024")
    for n in GENERALIZED_RANGE:
        assert generalized_n_like_witness(ring, n) == zmod_n_like_witness(1024, n), n


@pytest.mark.parametrize("source", ["tri:zmod2:4", "tri:zmod3:3"])
def test_triangular_n_like_witnesses(source):
    ring = parse_ring_source(source)
    for n in GENERALIZED_RANGE:
        assert generalized_n_like_witness(ring, n) == reference_n_like_witness(ring, n), n


@pytest.mark.parametrize("source", ["zmod:1024", "tri:zmod2:4"])
def test_json_round_trip(source):
    ring = parse_ring_source(source)
    assert load_ring_json(ring.to_json()).table_bytes() == ring.table_bytes()
