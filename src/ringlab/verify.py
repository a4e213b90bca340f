"""Theorem-verification suites over the ring catalog.

Each suite checks one biconditional (or implication battery) by computing its
two sides independently on every catalog ring and recording per-ring
agreement.  A suite's overall flag is the conjunction of the row agreements
over the rings that were not skipped; rings can be skipped for cap reasons or
because a suite's hypothesis (local, ...) does not apply.

Suite identifiers
-----------------
T2.2   abelian + idempotents lift mod J + R/J uniquely pi-clean
T2.4   abelian + unique idempotent in a^n R with complement in (1-a^n) R
C2.5   left-module version of T2.4
T2.8   some power within a central idempotent shift of J
C2.9   [uniquely clean] uniquely pi-clean + J = {x : x - 1 a unit}
T2.10  unique J-shifted idempotent power + J = {x : all x^m - 1 units}
C2.11  unique J-shifted idempotent power + nilpotents inside J
C2.12  [local rings] units = {x : some x^m - 1 in J}
T3.3   abelian + lifting + torsion quotients at primes over J (see caveat)
C3.4   [uniquely clean] uniquely pi-clean + all maximal ideals of index 2
T3.7   exchange + potent quotient and unique lifting mod the maximal-ideal
       intersection
T3.9   J* version of T2.10
C3.10-set  [hypothesis-gated] prime radical = {x : all x^m - 1 units}
T4.7-2 abelian periodic
T4.7-3 unique nilpotent-complement idempotent power with complement in the
       prime radical
C4.8   central idempotent power shift into the prime radical
L4.6   some power uniquely nil clean  <->  abelian periodic
T4.1   ideal-extension biconditional with single-condition mutations
implications     one-way implication battery (zero counterexamples expected)
collapse         uniquely pi-clean coincides with abelian on finite rings
radical-triple   Jacobson = maximal-intersection = prime radical
radical-set      {x : all x^m - 1 units} equals J on uniquely pi-clean rings
corner-quotient  corners and the radical quotient inherit uniquely pi-clean
obs-2powers      informational: which powers of 2 are uniquely clean in Z/(p+1)
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .core import FiniteRing
from .errors import LatticeCapExceeded
from . import construct, predicates, subsets

EQUIVALENCE_IDS = tuple(predicates.CHARACTERIZATION_IDS) + ("L4.6",)
BATTERY_IDS = ("T4.1", "implications", "collapse", "radical-triple",
               "radical-set", "corner-quotient", "obs-2powers")
ALL_SUITE_IDS = EQUIVALENCE_IDS + BATTERY_IDS

T33_CAVEAT = ("stated for 'strongly pi-clean', a term used nowhere else; "
              "evaluated here against the uniquely pi-clean predicate, which "
              "the remaining characterizations pin down at finite scale")

T473_NOTE = ("uniqueness is counted over nilpotent complements; counting over "
             "prime-radical complements alone degenerates when the prime "
             "radical vanishes")

IMPLICATIONS = (
    ("L2.1", "uniquely_pi_clean", ("abelian", "exchange")),
    ("chain-uc", "uniquely_clean", ("uniquely_pi_clean",)),
    ("chain-sc", "uniquely_pi_clean", ("strongly_clean",)),
    ("T4.4", "abelian&potently_j_clean", ("uniquely_pi_clean",)),
    ("C4.9", "generalized_n_like", ("uniquely_pi_clean",)),
    ("L4.3", "potently_j_clean", ("exchange",)),
)


@dataclass(frozen=True)
class SuiteRow:
    ring: str
    provenance: str
    lhs: bool
    rhs: bool
    witness: str | None = None

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {"ring": self.ring, "provenance": self.provenance, "lhs": self.lhs,
                "rhs": self.rhs, "agree": self.agree, "witness": self.witness}


@dataclass
class TheoremVerdict:
    theorem: str
    rows: list[SuiteRow] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (provenance, reason)
    caveat: str | None = None

    @property
    def overall(self) -> bool:
        return all(row.agree for row in self.rows)

    def disagreements(self) -> list[SuiteRow]:
        return [row for row in self.rows if not row.agree]

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "overall": self.overall,
            "rows": [row.to_json_dict() for row in self.rows],
            "skipped": [{"provenance": p, "reason": why} for p, why in self.skipped],
        }
        if self.caveat:
            out["caveat"] = self.caveat
        return out


@dataclass
class RunConfig:
    """Knobs for a verification run; defaults match the acceptance setup."""

    order_cap: int = 128
    lattice_order_cap: int = subsets.DEFAULT_LATTICE_ORDER_CAP
    lattice_count_cap: int = subsets.DEFAULT_LATTICE_COUNT_CAP
    theorems: tuple[str, ...] | None = None
    jobs: int = 0  # 0 -> one worker per core

    def __post_init__(self):
        if self.order_cap < 1 or self.lattice_order_cap < 1 or self.lattice_count_cap < 1:
            raise ValueError("caps must be positive")
        if self.jobs < 0:
            raise ValueError(f"jobs must be 0 (one per core) or positive, got {self.jobs}")
        if self.theorems is not None:
            unknown = [t for t in self.theorems if t not in ALL_SUITE_IDS]
            if unknown:
                raise ValueError(f"unknown suite ids {unknown}; known: {ALL_SUITE_IDS}")

    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    def selected(self) -> tuple[str, ...]:
        return self.theorems if self.theorems is not None else ALL_SUITE_IDS


# ---------------------------------------------------------------------------
# per-ring suite evaluation


_SPECTRUM_SUITES = {"T3.3", "C3.4", "T3.7", "T3.9", "C3.10-set", "T4.7-3", "C4.8",
                    "radical-triple", "radical-set"}


def _nil_ideal(r: FiniteRing, members: tuple[int, ...]) -> bool:
    return bool(subsets._nilpotent_mask(r)[list(members)].all())


def _ring_rows(ring: FiniteRing, suite_ids: tuple[str, ...], caps: dict) -> dict[str, tuple | str]:
    """Evaluate every requested per-ring suite on one ring.

    Returns suite id -> (lhs, rhs, witness) or a skip-reason string.
    """
    out: dict[str, tuple | str] = {}
    vec = predicates.predicate_vector(ring).values
    upc = vec["uniquely_pi_clean"]
    j = subsets.jacobson_radical(ring)
    j_nil = _nil_ideal(ring, j.members)

    spectra_ok = True
    spectra_reason = ""
    try:
        subsets.spectrum(ring, **caps)
    except LatticeCapExceeded as exc:
        spectra_ok = False
        spectra_reason = str(exc)

    for tid in suite_ids:
        if tid in _SPECTRUM_SUITES and not spectra_ok:
            out[tid] = spectra_reason
            continue
        if tid in predicates.CHARACTERIZATION_IDS:
            if tid in ("C2.9", "C3.4"):
                lhs = vec["uniquely_clean"]
            elif tid == "C2.12":
                if not vec["local"]:
                    out[tid] = "not a local ring"
                    continue
                lhs = upc
            elif tid == "C3.10-set":
                sp = subsets.spectrum(ring, **caps)
                hyp = upc and {p.members for p in sp.prime} == {m.members for m in sp.maximal}
                if not hyp:
                    out[tid] = "hypothesis unmet (uniquely pi-clean with all primes maximal)"
                    continue
                lhs = True
            elif tid in ("T4.7-2", "T4.7-3", "C4.8"):
                lhs = upc and j_nil
            else:
                lhs = upc
            rhs = predicates.characterization(ring, tid, **caps)
            out[tid] = (lhs, rhs, None)
        elif tid == "L4.6":
            out[tid] = (vec["uniquely_pi_nil_clean"], vec["abelian"] and vec["periodic"], None)
        elif tid == "collapse":
            out[tid] = (upc, vec["abelian"], None)
        elif tid == "radical-triple":
            js = subsets.j_star(ring, **caps).members
            pr = subsets.prime_radical(ring, **caps).members
            ok = j.members == js == pr
            wit = None if ok else f"J={j.members} J*={js} P={pr}"
            out[tid] = (True, ok, wit)
        elif tid == "radical-set":
            if not upc:
                out[tid] = "not uniquely pi-clean"
                continue
            rus = predicates.radical_unit_set(ring)
            ok = rus == j.members
            wit = None if ok else f"unit-shift set {rus} vs J {j.members}"
            out[tid] = (True, ok, wit)
        elif tid == "corner-quotient":
            if not upc:
                out[tid] = "not uniquely pi-clean"
                continue
            ok, wit = True, None
            for e in subsets.idempotents(ring).members:
                if not predicates.is_uniquely_pi_clean(construct.corner(ring, e)):
                    ok, wit = False, f"corner at idempotent {e}"
                    break
            if ok:
                q = subsets.radical_quotient(ring)
                if not predicates.is_uniquely_pi_clean(q):
                    ok, wit = False, "radical quotient not uniquely pi-clean"
                elif not predicates.is_potent_ring(q):
                    ok, wit = False, "radical quotient not potent"
            out[tid] = (True, ok, wit)
        elif tid == "implications":
            ok, wit = True, None
            for name, ante, cons in IMPLICATIONS:
                if ante == "abelian&potently_j_clean":
                    a = vec["abelian"] and vec["potently_j_clean"]
                elif ante == "generalized_n_like":
                    a = any(vec[f"generalized_{n}_like"] for n in predicates.GENERALIZED_RANGE)
                else:
                    a = vec[ante]
                if a and not all(vec[c] for c in cons):
                    ok, wit = False, name
                    break
            out[tid] = (True, ok, wit)
    return out


def _worker(args: tuple) -> tuple[int, dict]:
    position, ring, suite_ids, caps = args
    return position, _ring_rows(ring, suite_ids, caps)


def _t41_verdict() -> TheoremVerdict:
    """The ideal-extension biconditional on the named specs.

    The base spec satisfies all three conditions; each mutated spec is built
    to break exactly one of them.  A row records lhs = (extension uniquely
    pi-clean and S idempotent-free) against rhs = conjunction of the three
    conditions; the witness explains which condition a mutation targets and
    is checked to be the only one that flipped.
    """
    verdict = TheoremVerdict("T4.1")
    base_conds: dict[str, bool] = {}
    for name, (builder, broken) in construct.T41_SPECS.items():
        spec = builder()
        ext = construct.ideal_extension(spec)
        conds = {
            "base ring uniquely pi-clean": predicates.is_uniquely_pi_clean(spec.base),
            "idempotents act centrally": spec.idempotents_act_centrally(),
            "quasi-inverses in S": spec.s_has_quasi_inverses(),
        }
        lhs = predicates.is_uniquely_pi_clean(ext) and spec.s_is_idempotent_free()
        rhs = all(conds.values())
        if broken is None:
            base_conds = dict(conds)
            witness = "all three conditions hold" if rhs else "base spec fails a condition"
        else:
            flipped = [k for k in conds if conds[k] != base_conds.get(k)]
            if flipped != [broken]:
                # a mutation that does not break exactly its target is itself
                # a harness failure; surface it as a disagreeing row
                verdict.rows.append(SuiteRow(ext.label, f"extension:{name}", True, False,
                                             f"mutation flipped {flipped}, wanted [{broken}]"))
                continue
            witness = f"breaks: {broken}"
        verdict.rows.append(SuiteRow(ext.label, f"extension:{name}", lhs, rhs, witness))
    return verdict


def _obs_2powers_verdict() -> TheoremVerdict:
    """Record which powers of 2 are uniquely clean in Z/(p+1) for small p.

    Observational only: rows always agree; the witness carries the data.
    """
    verdict = TheoremVerdict(
        "obs-2powers",
        caveat="observational record, never asserted: per small prime p, the "
               "uniquely-clean status of 2^m in Z/(p+1) for 1 <= m <= log2(p)")
    for p in (2, 3, 5, 7, 11, 13):
        ring = construct.zmod(p + 1)
        rows = []
        m = 1
        while 2 ** m <= p:
            a = pow(2, m, p + 1)
            rows.append(f"2^{m}={a}:{'unique' if predicates.is_uniquely_clean_element(ring, a) else 'not-unique'}")
            m += 1
        verdict.rows.append(SuiteRow(ring.label, f"zmod:{p+1}", True, True, "; ".join(rows) or "no powers"))
    return verdict


def run_verify(config: RunConfig | None = None,
               catalog: list[construct.RingCatalogEntry] | None = None) -> list[TheoremVerdict]:
    """Run the selected suites over the catalog and return one verdict each.

    Results are deterministic: rows follow catalog order regardless of the
    parallelism degree.
    """
    config = config or RunConfig()
    if catalog is None:
        catalog = construct.default_catalog()
    selected = config.selected()
    per_ring = tuple(t for t in selected if t not in ("T4.1", "obs-2powers"))

    verdicts: dict[str, TheoremVerdict] = {}
    for tid in selected:
        verdicts[tid] = TheoremVerdict(tid)
        if tid == "T3.3":
            verdicts[tid].caveat = T33_CAVEAT
        if tid == "T4.7-3":
            verdicts[tid].caveat = T473_NOTE

    entries = [(e, e.ring.order <= config.order_cap) for e in catalog]
    caps = {"order_cap": config.lattice_order_cap, "count_cap": config.lattice_count_cap}

    if per_ring:
        jobs = config.effective_jobs()
        todo = [i for i, (_, ok) in enumerate(entries) if ok]
        if jobs > 1 and len(todo) > 1:
            # workers get the catalog's own rings, without the parent's memo,
            # and answer by catalog position
            work = [(i, replace(entries[i][0].ring, _memo={}), per_ring, caps) for i in todo]
            with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
                results = dict(pool.map(_worker, work))
        else:
            results = {i: _ring_rows(entries[i][0].ring, per_ring, caps) for i in todo}
        for i, (e, ok) in enumerate(entries):
            if not ok:
                for tid in per_ring:
                    verdicts[tid].skipped.append(
                        (e.provenance, f"order {e.ring.order} over cap {config.order_cap}"))
                continue
            rows = results[i]
            for tid in per_ring:
                cell = rows[tid]
                if isinstance(cell, str):
                    verdicts[tid].skipped.append((e.provenance, cell))
                else:
                    lhs, rhs, wit = cell
                    verdicts[tid].rows.append(SuiteRow(e.ring.label, e.provenance, lhs, rhs, wit))

    if "T4.1" in selected:
        t41 = _t41_verdict()
        verdicts["T4.1"].rows = t41.rows
    if "obs-2powers" in selected:
        obs = _obs_2powers_verdict()
        verdicts["obs-2powers"].rows = obs.rows
        verdicts["obs-2powers"].caveat = obs.caveat

    return [verdicts[tid] for tid in selected]


# ---------------------------------------------------------------------------
# single-ring analysis report


def ring_report(ring: FiniteRing, *, lattice_order_cap: int = subsets.DEFAULT_LATTICE_ORDER_CAP,
                lattice_count_cap: int = subsets.DEFAULT_LATTICE_COUNT_CAP) -> dict:
    """Everything the analyzer prints for one ring, as a JSON-friendly dict."""
    vec = predicates.predicate_vector(ring)
    report = {
        "ring": ring.label,
        "order": ring.order,
        "predicates": dict(vec.values),
        "witnesses": {k: [int(x) for x in v] for k, v in vec.witnesses.items()},
        "class_sizes": {
            kind: len(getattr(subsets, kind)(ring).members)
            for kind in ("units", "idempotents", "central_idempotents",
                         "nilpotents", "potents", "central_elements")
        },
        "jacobson_radical": [int(x) for x in subsets.jacobson_radical(ring).members],
        "radical_unit_set": [int(x) for x in predicates.radical_unit_set(ring)],
    }
    caps = {"order_cap": lattice_order_cap, "count_cap": lattice_count_cap}
    try:
        sp = subsets.spectrum(ring, **caps)
        report["spectrum"] = {
            "ideal_count": len(sp.all_ideals),
            "prime": [list(map(int, p.members)) for p in sp.prime],
            "maximal": [list(map(int, m.members)) for m in sp.maximal],
            "j_spec_count": len(sp.j_spec),
        }
        report["j_star"] = [int(x) for x in subsets.j_star(ring, **caps).members]
        report["prime_radical"] = [int(x) for x in subsets.prime_radical(ring, **caps).members]
    except LatticeCapExceeded as exc:
        report["spectrum"] = {"skipped": str(exc)}
    return report
