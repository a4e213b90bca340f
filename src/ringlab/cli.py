"""Command-line front end.

Subcommands:
    analyze  --ring SRC       full predicate/radical/spectrum report for one ring
    verify   [--theorems IDS] run theorem suites over the catalog
    catalog  list|dump        inspect or export the default catalog

Exit codes: 0 success / all suites agree; 2 ring validation failure;
3 cap exceeded; 4 theorem disagreement; 5 IO error writing --out or the dump
directory.
analyze builds its ring under an order cap, --order-cap, which the
RINGLAB_CAP environment variable overrides.  verify checks every catalog
ring: it skips a ring only for a suite whose hypothesis the ring does not
meet.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .core import DEFAULT_ORDER_CAP
from .errors import OrderCapExceeded, RinglabError, RingValidationError
from .predicates import PREDICATE_NAMES, PredicateVector, predicate_vector
from .sources import parse_ring_source
from .verify import ALL_SUITE_IDS, RunConfig, ring_report, run_verify
from . import construct

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPS = 3
EXIT_DISAGREEMENT = 4
EXIT_IO = 5


def _order_cap(args) -> int:
    """analyze's build cap: RINGLAB_CAP if set, else --order-cap; either must
    be a positive integer."""
    env = os.environ.get("RINGLAB_CAP")
    if env:
        name, given, cap = "RINGLAB_CAP", env, int(env) if env.strip().isdecimal() else 0
    else:
        name, given, cap = "--order-cap", args.order_cap, args.order_cap
    if cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {given!r}")
    return cap


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _witness_text(ring, indices) -> str:
    parts = [f"{i} ({ring.name_of(i)})" for i in indices]
    return ", ".join(parts)


def cmd_analyze(args) -> int:
    try:
        cap = _order_cap(args)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        ring = parse_ring_source(args.ring, order_cap=cap)
    except OrderCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except RingValidationError as exc:
        print(f"validation failed: {json.dumps(exc.report())}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RinglabError, OSError, ValueError) as exc:
        print(f"cannot load ring: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = ring_report(ring)
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, indent=1) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(PredicateVector.csv_header())
        writer.writerow(predicate_vector(ring).csv_row())
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"ring: {report['ring']} (order {report['order']})", "predicates:"]
        for name, value in report["predicates"].items():
            line = f"  {name}: {value}"
            wit = report["witnesses"].get(name)
            if wit:
                line += f"   [witness: {_witness_text(ring, wit)}]"
            lines.append(line)
        lines.append("element classes: " + ", ".join(
            f"{k}={v}" for k, v in report["class_sizes"].items()))
        lines.append(f"jacobson radical: {_witness_text(ring, report['jacobson_radical'])}")
        lines.append(f"unit-shift radical set: {_witness_text(ring, report['radical_unit_set'])}")
        sp = report["spectrum"]
        if "skipped" in sp:
            lines.append(f"spectrum: skipped ({sp['skipped']})")
        else:
            lines.append(f"spectrum: {sp['ideal_count']} ideals, "
                         f"{len(sp['prime'])} prime, {len(sp['maximal'])} maximal")
            lines.append(f"maximal-ideal intersection: {_witness_text(ring, report['j_star'])}")
            lines.append(f"prime radical: {_witness_text(ring, report['prime_radical'])}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    theorems = None
    if args.theorems is not None:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    try:
        config = RunConfig(theorems=theorems, jobs=args.jobs)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    verdicts = run_verify(config)

    if args.format == "json":
        _emit(json.dumps([v.to_json_dict() for v in verdicts], sort_keys=True, indent=1) + "\n",
              args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["theorem", "ring", "provenance", "lhs", "rhs", "agree", "witness"])
        for v in verdicts:
            for row in v.rows:
                writer.writerow([v.theorem, row.ring, row.provenance,
                                 row.lhs, row.rhs, row.agree, row.witness or ""])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for v in verdicts:
            status = "PASS" if v.overall else "FAIL"
            lines.append(f"[{status}] {v.theorem}: {len(v.rows)} rings checked, "
                         f"{len(v.skipped)} skipped")
            if v.caveat:
                lines.append(f"    note: {v.caveat}")
            for row in v.disagreements():
                lines.append(f"    DISAGREE {row.provenance}: lhs={row.lhs} rhs={row.rhs}"
                             + (f" witness={row.witness}" if row.witness else ""))
        lines.append("overall: " + ("all suites agree"
                     if all(v.overall for v in verdicts) else "DISAGREEMENTS FOUND"))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(v.overall for v in verdicts) else EXIT_DISAGREEMENT


def cmd_catalog(args) -> int:
    catalog = construct.default_catalog()
    if args.catalog_cmd == "dump":
        outdir = Path(args.dir)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = []
        for entry in catalog:
            name = entry.provenance.replace(":", "_").replace(",", "+").replace("/", "-")
            (outdir / f"{name}.json").write_text(entry.ring.to_json(), encoding="utf-8")
            manifest.append({"provenance": entry.provenance, "label": entry.ring.label,
                             "order": entry.ring.order, "file": f"{name}.json"})
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(catalog)} ring files to {args.dir}")
        return EXIT_OK

    rows = []
    for entry in catalog:
        vec = predicate_vector(entry.ring)
        if args.filter and not vec.values.get(args.filter, False):
            continue
        rows.append((entry, vec))
    if args.format == "json":
        payload = [
            {"provenance": e.provenance, "label": e.ring.label, "order": e.ring.order,
             "predicates": dict(v.values)}
            for e, v in rows
        ]
        _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["provenance", "order"] + PredicateVector.csv_header()[1:])
        for e, v in rows:
            writer.writerow([e.provenance, e.ring.order] + v.csv_row()[1:])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"{len(rows)} catalog entries" + (f" with {args.filter}" if args.filter else "")]
        for e, v in rows:
            marks = [name for name in ("uniquely_clean", "uniquely_pi_clean", "abelian",
                                       "commutative", "local")
                     if v.values[name]]
            lines.append(f"  {e.provenance:40s} order {e.ring.order:3d}  {e.ring.label}"
                         + (f"  [{', '.join(marks)}]" if marks else ""))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="finite-ring clean-family analysis and theorem verification")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a single ring")
    pa.add_argument("--ring", required=True,
                    help="ring source, e.g. zmod:6, gf:4, matrix:zmod2:2, file:ring.json")
    pa.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pa.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run theorem suites over the catalog")
    pv.add_argument("--theorems", default=None,
                    help=f"comma-separated suite ids; known: {', '.join(ALL_SUITE_IDS)}")
    pv.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = this process, the default; 0 = one per core)")
    pv.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("catalog", help="list or export the catalog")
    subc = pc.add_subparsers(dest="catalog_cmd", required=True)
    pcl = subc.add_parser("list", help="list entries")
    pcl.add_argument("--filter", default=None, choices=PREDICATE_NAMES, metavar="PREDICATE",
                     help=f"keep rings where this predicate holds; one of {', '.join(PREDICATE_NAMES)}")
    pcl.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pcl.add_argument("--out", default=None)
    pcl.set_defaults(func=cmd_catalog)
    pcd = subc.add_parser("dump", help="write one ring JSON per entry")
    pcd.add_argument("--dir", required=True)
    pcd.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except OSError as exc:
        # writing --out or the dump directory failed
        print(f"IO error: {exc}", file=sys.stderr)
        code = EXIT_IO
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
