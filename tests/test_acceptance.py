"""Acceptance gate: ten criteria, one test each, printed as pass/fail lines.

All checks are exact boolean properties (no numeric tolerances); the two
runtime budgets are 1 ms for the Z/3 classification, 5 s for the order-64
showcase ring, and 120 s for the complete suite run.
"""

from __future__ import annotations

import time

from ringlab import (
    RunConfig,
    clean_decompositions,
    corner,
    gf4_triangular_example,
    idempotents,
    is_abelian,
    is_clean,
    is_commutative,
    is_generalized_n_like,
    is_potent_ring,
    is_potently_j_clean,
    is_strongly_clean,
    is_uniquely_clean,
    is_uniquely_pi_clean,
    is_uniquely_pi_clean_element,
    is_uniquely_pi_nil_clean,
    is_exchange,
    is_periodic,
    jacobson_radical,
    quotient_ring,
    radical_unit_set,
    run_verify,
    spectrum,
    zmod,
)
from ringlab.construct import T41_SPECS
from ringlab.predicates import GENERALIZED_RANGE
from ringlab.verify import _t41_verdict


def report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:02d}] {status}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_01_zmod3_classification(self):
        best = float("inf")
        for _ in range(5):
            ring = zmod(3)
            t0 = time.perf_counter()
            decomps = clean_decompositions(ring, 2)
            uc = is_uniquely_clean(ring)
            upc, witness_m = is_uniquely_pi_clean_element(ring, 2)
            ring_upc = is_uniquely_pi_clean(ring)
            best = min(best, time.perf_counter() - t0)
        ok = (decomps == [(0, 2), (1, 1)] and set(decomps) == {(0, 2), (1, 1)}
              and uc is False and upc is True and witness_m == 2
              and ring_upc is True and best < 1e-3)
        report(1, ok, f"decomps={decomps}, witness m={witness_m}, best {best*1e3:.3f} ms")

    def test_02_inclusion_chain_counterexamples(self, catalog):
        by_prov = {e.provenance: e.ring for e in catalog}
        z3 = by_prov["zmod:3"]
        m2 = by_prov["matrix:zmod2:2"]
        ok = (is_uniquely_pi_clean(z3) and not is_uniquely_clean(z3)
              and is_clean(m2) and not is_uniquely_pi_clean(m2))
        report(2, ok, "Z/3 separates unique from pi-unique; M2(Z/2) clean but not")

    def test_03_equivalence_suites_zero_disagreements(self, catalog):
        t0 = time.perf_counter()
        verdicts = run_verify(RunConfig(jobs=1), catalog)
        elapsed = time.perf_counter() - t0
        wanted = {"T2.2", "T2.4", "C2.5", "T2.8", "T2.10", "T3.7", "T3.9",
                  "T4.7-2", "T4.7-3", "C4.8", "T3.3", "C2.9", "C3.4"}
        bad = [(v.theorem, r.provenance)
               for v in verdicts if v.theorem in wanted
               for r in v.disagreements()]
        covered = {v.theorem for v in verdicts if v.theorem in wanted and v.rows}
        ok = not bad and covered == wanted and elapsed < 120
        report(3, ok, f"{len(wanted)} suites, {elapsed:.1f} s, disagreements={bad}")

    def test_04_finite_scale_collapse(self, catalog):
        exceptions = [e.provenance for e in catalog
                      if is_uniquely_pi_clean(e.ring) != is_abelian(e.ring)]
        report(4, not exceptions, f"exceptions={exceptions}")

    def test_05_radical_triple_equality(self, catalog):
        exceptions = []
        for e in catalog:
            j = jacobson_radical(e.ring).members
            sp = spectrum(e.ring)
            if not (j == sp.j_star.members == sp.prime_radical.members):
                exceptions.append(e.provenance)
        report(5, not exceptions, f"exceptions={exceptions}")

    def test_06_radical_unit_set_equation(self, catalog):
        exceptions = [e.provenance for e in catalog
                      if is_uniquely_pi_clean(e.ring)
                      and radical_unit_set(e.ring) != jacobson_radical(e.ring).members]
        z4_set = radical_unit_set(zmod(4))
        ok = not exceptions and z4_set == (0, 2)
        report(6, ok, f"Z/4 set={z4_set}, exceptions={exceptions}")

    def test_07_gf4_showcase(self):
        t0 = time.perf_counter()
        ring = gf4_triangular_example()
        power_law = all(ring.pow(a, 7) == a or ring.pow(a, 2) == ring.zero
                        for a in range(ring.order))
        seven_like = is_generalized_n_like(ring, 7)
        noncomm = not is_commutative(ring)
        upc = is_uniquely_pi_clean(ring)
        elapsed = time.perf_counter() - t0
        ok = (ring.order == 64 and power_law and seven_like and noncomm
              and upc and elapsed < 5)
        report(7, ok, f"order={ring.order}, {elapsed:.2f} s")

    def test_08_ideal_extension_harness(self):
        verdict = _t41_verdict()
        rows = {r.provenance.removeprefix("extension:"): r for r in verdict.rows}
        base = rows["t41-base"]
        mutations_flip = all(
            not rows[name].lhs and not rows[name].rhs and rows[name].agree
            and rows[name].witness == f"breaks: {broken}"
            for name, (_, broken) in T41_SPECS.items() if broken is not None
        )
        ok = (verdict.overall and base.lhs and base.rhs and len(verdict.rows) == 4
              and mutations_flip)
        report(8, ok, "base biconditional true-true; three single-condition flips")

    def test_09_corner_and_quotient_closure(self, catalog):
        exceptions = []
        for e in catalog:
            ring = e.ring
            if not is_uniquely_pi_clean(ring):
                continue
            for idx in idempotents(ring).members:
                if not is_uniquely_pi_clean(corner(ring, idx)):
                    exceptions.append((e.provenance, "corner", idx))
            q = quotient_ring(ring, jacobson_radical(ring))
            if not is_uniquely_pi_clean(q):
                exceptions.append((e.provenance, "quotient not uniquely pi-clean"))
            if not is_potent_ring(q):
                exceptions.append((e.provenance, "quotient not potent"))
        report(9, not exceptions, f"exceptions={exceptions}")

    def test_10_implication_battery(self, catalog):
        counterexamples = []
        for e in catalog:
            ring = e.ring
            checks = (
                ("L2.1", is_uniquely_pi_clean(ring),
                 lambda: is_abelian(ring) and is_exchange(ring)),
                ("chain-uc", is_uniquely_clean(ring),
                 lambda: is_uniquely_pi_clean(ring)),
                ("chain-sc", is_uniquely_pi_clean(ring),
                 lambda: is_strongly_clean(ring)),
                ("T4.4", is_abelian(ring) and is_potently_j_clean(ring),
                 lambda: is_uniquely_pi_clean(ring)),
                ("C4.9", any(is_generalized_n_like(ring, n) for n in GENERALIZED_RANGE),
                 lambda: is_uniquely_pi_clean(ring)),
                ("L4.3", is_potently_j_clean(ring),
                 lambda: is_exchange(ring)),
                ("L4.6", is_uniquely_pi_nil_clean(ring),
                 lambda: is_abelian(ring) and is_periodic(ring)),
            )
            for name, antecedent, consequent in checks:
                if antecedent and not consequent():
                    counterexamples.append((e.provenance, name))
        report(10, not counterexamples, f"counterexamples={counterexamples}")
