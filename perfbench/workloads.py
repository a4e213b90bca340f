"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload is a closed loop run by one client in one process: the next
operation starts when the previous one has returned.  ``setup`` makes the
inputs; ``run_pass`` runs every operation once, times each, and checks its
output.  An operation fails when it raises unexpectedly, returns a wrong
verdict, or fails a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tables


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0

    def record(self, seconds: float, ok: bool) -> None:
        self.seconds += seconds
        self.attempted += 1
        self.failed += not ok


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        pass

    def run_pass(self, around) -> PassResult:
        """One pass; ``around(fn)`` calls fn, inside a root span when tracing."""
        raise NotImplementedError


def _timed(around, fn):
    """Run fn through ``around``; return (seconds, result, exception)."""
    start = perf_counter()
    try:
        result = around(fn)
    except Exception as exc:  # the loop must go on; the caller counts it
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


class CatalogVerify(Workload):
    """``ringlab verify --format json`` with default options, in-process."""

    name = "catalog-verify"

    def __init__(self):
        from ringlab import cli
        self.cli = cli
        self.first_counts = None
        # per pass, for the traced run's verify.* counts
        self.verify_counts = {"rows": 0, "skipped": 0, "disagreements": 0}

    def _command(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify", "--format", "json"])
        return code, out.getvalue()

    def run_pass(self, around) -> PassResult:
        res = PassResult()
        seconds, result, exc = _timed(around, self._command)
        if exc is not None:
            _report_failure(f"{self.name}: {''.join(traceback.format_exception(exc))}")
            res.record(seconds, False)
            return res
        code, text = result
        try:
            verdicts = json.loads(text)
            counts = {v["theorem"]: (len(v["rows"]), len(v["skipped"])) for v in verdicts}
            disagreements = sum(not row["agree"] for v in verdicts for row in v["rows"])
        except (ValueError, KeyError, TypeError) as exc:
            _report_failure(f"{self.name}: unreadable verdict JSON ({exc})")
            res.record(seconds, False)
            return res
        if self.first_counts is None:
            self.first_counts = counts
        ok = (code == 0 and disagreements == 0 and counts == self.first_counts
              and all(v["overall"] for v in verdicts))
        if not ok:
            _report_failure(f"{self.name}: exit {code}, {disagreements} disagreements, "
                            f"suite counts {counts} vs first pass {self.first_counts}")
        self.verify_counts["rows"] += sum(r for r, _ in counts.values())
        self.verify_counts["skipped"] += sum(s for _, s in counts.values())
        self.verify_counts["disagreements"] += disagreements
        res.record(seconds, ok)
        return res


def _gl_order(k: int, q: int) -> int:
    """|GL_k(F_q)| = prod_{i<k} (q^k - q^i)."""
    out = 1
    for i in range(k):
        out *= q ** k - q ** i
    return out


# Closed-form facts about each rung, computed without the library.
# M_k(F_q) has q^(k^2-k) nilpotents (Fine and Herstein) and, being simple,
# two ideals.  Equal-diagonal 3x3 upper triangular matrices over GF(4) are a
# local ring of order 4 * 4^3: units have a nonzero diagonal, J is the
# strictly upper part.  GF(2)^7 is Boolean: every element idempotent, every
# subset of factors an ideal, and only (1, ..., 1) a unit.
LADDER_ORACLES = {
    "matrix:zmod2:3": {"order": 2 ** 9, "units": _gl_order(3, 2),
                       "nilpotents": 2 ** (9 - 3), "ideal_count": 2},
    "eqdiag:gf4:3": {"order": 4 ** 4, "units": 3 * 4 ** 3, "jacobson": 4 ** 3},
    "paper:gf4-example": {"order": 64, "uniquely_pi_clean": True, "generalized_7_like": True},
    "GF(2)^7": {"order": 2 ** 7, "idempotents": 2 ** 7, "ideal_count": 2 ** 7, "units": 1},
}

# Fixes the work: a later change of DEFAULT_LATTICE_ORDER_CAP must not change
# which rungs get a spectrum.
LATTICE_ORDER_CAP = 1024


def _oracle_values(report: dict) -> dict:
    sizes = report["class_sizes"]
    return {
        "order": report["order"],
        "units": sizes["units"],
        "nilpotents": sizes["nilpotents"],
        "idempotents": sizes["idempotents"],
        "ideal_count": report["spectrum"].get("ideal_count"),
        "jacobson": len(report["jacobson_radical"]),
        "uniquely_pi_clean": report["predicates"]["uniquely_pi_clean"],
        "generalized_7_like": report["predicates"]["generalized_7_like"],
    }


class LadderAnalyze(Workload):
    """Build a few large rings, analyse each, serialise the report."""

    name = "ladder-analyze"

    def __init__(self):
        from ringlab import construct, sources, verify
        self.construct, self.sources, self.verify = construct, sources, verify
        self.digests: dict[str, str] = {}

    def _gf2_power7(self):
        # product: takes two factors, so chain the constructor instead
        g = self.construct.gf(2)
        ring = g
        for _ in range(6):
            ring = self.construct.product(ring, g)
        return ring

    def _analyze(self, rung: str) -> str:
        if rung == "GF(2)^7":
            ring = self._gf2_power7()
        else:
            ring = self.sources.parse_ring_source(rung)
        report = self.verify.ring_report(ring, lattice_order_cap=LATTICE_ORDER_CAP)
        return json.dumps(report, sort_keys=True)

    def run_pass(self, around) -> PassResult:
        res = PassResult()
        for rung, oracle in LADDER_ORACLES.items():
            seconds, text, exc = _timed(around, lambda: self._analyze(rung))
            if exc is not None:
                _report_failure(f"{rung}: {''.join(traceback.format_exception(exc))}")
                res.record(seconds, False)
                continue
            try:
                got = _oracle_values(json.loads(text))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                got = {"report": f"unreadable ({exc!r})"}
            wrong = {k: (got.get(k), v) for k, v in oracle.items() if got.get(k) != v}
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = self.digests.setdefault(rung, digest)
            if wrong or digest != first:
                _report_failure(f"{rung}: oracle (got, want) {wrong}, "
                                f"digest {digest[:12]} vs first pass {first[:12]}")
            res.record(seconds, not wrong and digest == first)
        return res


@dataclass
class _FileCase:
    path: Path
    label: str
    order: int


class FileWorkload(Workload):
    """``core.load_ring_file`` on generated table files with a known verdict."""

    accept: bool
    make_tables: staticmethod  # seed -> list[tables.Table]

    def __init__(self):
        from ringlab import core
        from ringlab.errors import RingValidationError
        self.core, self.rejection = core, RingValidationError
        self.cases: list[_FileCase] = []

    def setup(self, seed: int, workdir: Path) -> None:
        made = self.make_tables(seed)
        paths = tables.write_tables(made, workdir)
        self.cases = [_FileCase(p, t.label, t.order) for p, t in zip(paths, made)]

    def _check(self, case: _FileCase, ring, exc) -> bool:
        if self.accept:
            return exc is None and ring.order == case.order
        return isinstance(exc, self.rejection)

    def run_pass(self, around) -> PassResult:
        res = PassResult()
        for case in self.cases:
            seconds, ring, exc = _timed(around, lambda: self.core.load_ring_file(case.path))
            ok = self._check(case, ring, exc)
            if not ok:
                _report_failure(f"{case.label}: expected {'accept' if self.accept else 'reject'}, "
                                f"got {type(exc).__name__ if exc else 'accept'}: {exc}")
            res.record(seconds, ok)
        return res


class FileAccept(FileWorkload):
    name = "file-accept"
    accept = True
    make_tables = staticmethod(tables.valid_tables)


class FileReject(FileWorkload):
    name = "file-reject"
    accept = False
    make_tables = staticmethod(tables.corrupted_tables)


WORKLOADS = {w.name: w for w in (CatalogVerify, LadderAnalyze, FileAccept, FileReject)}
