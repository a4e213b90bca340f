"""Rings of order 256-4096 against closed forms and oracles that share no code with the library.

Deselected by default; run with ``pytest -m large``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from math import prod
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from sympy import catalan, divisor_count

from ringlab import (gf, jacobson_radical, load_ring_json, nilpotents, product, ring_report,
                     spectrum, units)
from ringlab.cli import main
from ringlab.core import load_ring_file, validate_tables
from ringlab.predicates import GENERALIZED_RANGE, _nth_powers, generalized_n_like_witness
from ringlab.sources import parse_ring_source
from ringlab.subsets import ideal_lattice
from test_predicates import reference_n_like_witness, zmod_n_like_witness
from test_subsets import reference_spectrum, spectrum_parts

pytestmark = pytest.mark.large

SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert len(ideal_lattice(parse_ring_source(source), order_cap=1024)) == count


@pytest.mark.parametrize("source", ["matrix:gf4:2", "matrix:zmod2:3", "tri:zmod3:3",
                                    "tri:zmod2:4", "zmod:1024", "eqdiag:gf4:3", "zn-alpha:16"])
def test_spectrum_matches_full_lattice_oracle(source):
    ring = parse_ring_source(source)
    assert spectrum_parts(ring) == reference_spectrum(ring)


def test_boolean_ring_of_order_256_ideal_count():
    r = gf(2)
    for _ in range(7):
        r = product(r, gf(2))
    # every subset of the 8 coordinates spans one ideal
    assert len(ideal_lattice(r, order_cap=1024)) == 2 ** 8


def test_boolean_ring_of_order_1024_spectrum():
    r = gf(2)
    for _ in range(9):
        r = product(r, gf(2))
    start = perf_counter()
    ideals = ideal_lattice(r, order_cap=1024)
    sp = spectrum(r)
    seconds = perf_counter() - start
    # one ideal per subset of the 10 coordinates; the primes, all maximal,
    # are the 10 ideals that drop one coordinate
    assert (len(ideals), len(sp.prime), len(sp.maximal)) == (2 ** 10, 10, 10)
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


@pytest.mark.parametrize("source", ["matrix:zmod2:3", "eqdiag:gf4:3", "matrix:gf4:2"])
def test_ladder_n_like_witnesses(source):
    ring = parse_ring_source(source)
    for n in GENERALIZED_RANGE:
        assert generalized_n_like_witness(ring, n) == reference_n_like_witness(ring, n), n


@pytest.mark.parametrize("source", ["zmod:1024", "matrix:zmod2:3", "tri:zmod3:3"])
def test_powers_past_the_chain_match_repeated_squaring(source):
    ring = parse_ring_source(source)
    for n in (10, 11, 25, 44, 10 ** 12 + 7):
        assert _nth_powers(ring, n).tolist() == [ring.pow(x, n) for x in range(ring.order)], n


@pytest.mark.parametrize("source", ["zmod:1024", "tri:zmod2:4"])
def test_json_round_trip(source):
    ring = parse_ring_source(source)
    assert load_ring_json(ring.to_json()).table_bytes() == ring.table_bytes()


@pytest.mark.parametrize("source", ["tri:gf4:3", "product:zmod64,zmod64"])
def test_relabeled_order_4096_tables_validate(source):
    # a relabelling puts the generators and the identity off their canonical
    # indices, as in a ring file written by another program
    ring = parse_ring_source(source)
    relabeled = ring.relabeled(np.random.default_rng(4096).permutation(ring.order))
    validate_tables(relabeled.add_table, relabeled.mul_table, relabeled.zero, relabeled.one,
                    ring.order)


@pytest.mark.parametrize("source", ["tri:gf4:3", "product:zmod64,zmod64"])
def test_order_4096_report_memory_budget(source):
    # the budget for analysing a ring of order 4096 is 300 MB (10^6 bytes);
    # the build is traced with the report, so the tables count against it
    tracemalloc.start()
    try:
        ring_report(parse_ring_source(source))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300e6, f"{source}: peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("source", ["zmod:4096", "tri:gf4:3", "product:zmod64,zmod64"])
def test_order_4096_report_peak_below_its_tables(source):
    # differences are read through add_table and neg_table, and no n x n
    # difference table is stored, so analysing a built ring allocates well
    # under the two tables it reads
    ring = parse_ring_source(source)
    tracemalloc.start()
    try:
        ring_report(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = ring.add_table.nbytes + ring.mul_table.nbytes
    assert peak <= 0.6 * tables, f"{source}: peak {peak / tables:.2f} x its tables"


@pytest.mark.parametrize("source", ["tri:gf4:3", "product:zmod64,zmod64"])
def test_order_4096_build_peak_within_half_again_its_tables(source):
    # the builder's tables are normalized in place, and a matrix family adds
    # its products a row block at a time, so no second pair is ever live
    tracemalloc.start()
    try:
        ring = parse_ring_source(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = ring.add_table.nbytes + ring.mul_table.nbytes
    assert peak <= 1.5 * tables, f"{source}: peak {peak / tables:.2f} x its tables"


def write_ring_json(ring, path) -> None:
    """``ring.to_json()`` into ``path``, with one row as Python ints at a
    time: as lists, the two tables of an order-4096 ring take over a gigabyte."""
    def table(name):
        rows = getattr(ring, f"{name}_table")
        return "[" + ",".join("[" + ",".join(map(str, row.tolist())) + "]" for row in rows) + "]"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"add":{table("add")},"label":{json.dumps(ring.label)},"mul":{table("mul")},'
                 f'"one":{ring.one},"order":{ring.order},"zero":{ring.zero}}}\n')


def test_order_4096_file_load_memory_budget(tmp_path):
    small = tmp_path / "small.json"
    write_ring_json(parse_ring_source("tri:zmod2:2"), small)
    assert small.read_text() == parse_ring_source("tri:zmod2:2").to_json()
    path = tmp_path / "zmod4096.json"
    write_ring_json(parse_ring_source("zmod:4096"), path)
    tracemalloc.start()
    try:
        ring = load_ring_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text once, the tables once (filled a row block at a time and
    # normalized in place), and 16 MB of block temporaries
    tables = ring.add_table.nbytes + ring.mul_table.nbytes
    budget = path.stat().st_size + tables + 16e6
    assert peak <= budget, f"peak {peak / 1e6:.0f} MB over {budget / 1e6:.0f} MB"
    assert ring.table_bytes() == parse_ring_source("zmod:4096").table_bytes()


def test_raised_env_cap_admits_an_order_above_the_default(capsys, monkeypatch):
    # 4097 is over the default cap of 4096, which from_tables does not apply
    monkeypatch.setenv("RINGLAB_CAP", "5000")
    assert main(["analyze", "--ring", "zmod:4097"]) == 0
    assert "ring: Z/4097 (order 4097)" in capsys.readouterr().out


# F_2 + V with V = F_2^9 and V*V = 0, element (a, v) at index a*2^9 + v.  Its
# ideals are R and the subspaces of V, millions of them, so the lattice must
# be refused by the count guard; under a 2 GB address-space limit it must be
# refused before the search runs out of memory.  J = V, so the spectrum reads
# only V and R: the one maximal ideal V, which is the one prime.
COUNT_GUARD = """
import resource, sys
from time import perf_counter
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
import numpy as np
from ringlab import FiniteRing, LatticeCapExceeded, jacobson_radical, spectrum
from ringlab.subsets import ideal_lattice

dim = 9
idx = np.arange(2 << dim)
a, v = idx >> dim, idx & ((1 << dim) - 1)
mul = ((a[:, None] & a[None, :]) << dim) | ((a[:, None] * v[None, :]) ^ (v[:, None] * a[None, :]))
ring = FiniteRing.from_tables("F2+V9", idx[:, None] ^ idx[None, :], mul, 0, 1 << dim,
                              [str(i) for i in idx])
try:
    ideal_lattice(ring, order_cap=1024)
except LatticeCapExceeded as exc:
    print(exc)
start = perf_counter()
sp = spectrum(ring)
seconds = perf_counter() - start
# the ring is relabelled to put its identity at index 1; V is a = 0 by name
v = tuple(i for i, name in enumerate(ring.elem_names) if int(name) < 1 << dim)
print("maximal", [m.members for m in sp.maximal] == [v])
print("prime", [p.members for p in sp.prime] == [v])
print("radicals", jacobson_radical(ring).members == sp.j_star.members == sp.prime_radical.members == v)
print("seconds", seconds)
"""


def test_count_guard_refuses_within_bounded_memory():
    proc = subprocess.run([sys.executable, "-c", COUNT_GUARD, str(SRC)], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "more than 100000 ideals" in proc.stdout
    # the spectrum of the same ring is not refused: it reads the ideals above J = V
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines()[1:])
    assert (lines["maximal"], lines["prime"], lines["radicals"]) == ("True",) * 3, proc.stdout
    assert float(lines["seconds"]) < 1.0, f"spectrum of F_2 + V took {lines['seconds']} s"
