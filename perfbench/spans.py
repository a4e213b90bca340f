"""Spans around the calls into each ringlab layer, recorded from outside.

``install`` replaces the public functions of each package module with
wrappers that record a span per call: (id, name, start, end, parent, ring).
A span id is ``[pid, n]``, so spans from forked pool workers stay distinct;
a worker's first span has the parent's open span as its parent.  Spans stay
in memory and are written out when the run ends.  Pool workers append theirs
to a spool file after each task, which the parent merges at the end.

The wrappers must be installed before ``verify.run_verify`` creates its
process pool: workers are forked and inherit them.
"""

from __future__ import annotations

import functools
import json
import os
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (module, public function names) whose calls it covers
TARGETS = {
    "cli": ("cli", ("main",)),
    "verify.run": ("verify", ("run_verify",)),
    "verify.worker": ("verify", ("_worker",)),
    "verify.report": ("verify", ("ring_report",)),
    "sources.parse": ("sources", ("parse_ring_source",)),
    "construct.catalog": ("construct", ("default_catalog",)),
    "construct.from_provenance": ("construct", ("build_from_provenance",)),
    "construct.build": ("construct", (
        "zmod", "gf", "zn_alpha", "product", "matrix_ring", "upper_triangular",
        "equal_diagonal_subring", "corner", "quotient", "ideal_extension",
        "strict_upper_bimodule", "gf4_triangular_example")),
    "core.validate": ("core", ("validate_tables",)),
    "core.load": ("core", ("load_ring_file", "load_ring_json")),
    "subsets.lattice": ("subsets", ("ideal_lattice",)),
    "subsets.spectrum": ("subsets", ("spectrum",)),
    "subsets.jacobson": ("subsets", ("jacobson_radical",)),
    "subsets.classes": ("subsets", (
        "units", "idempotents", "central_idempotents", "central_elements",
        "nilpotents", "potents")),
    "predicates.vector": ("predicates", ("predicate_vector",)),
    "predicates.upc": ("predicates", ("is_uniquely_pi_clean",)),
    "predicates.characterization": ("predicates", ("characterization",)),
}
METHOD_TARGETS = {"core.trails": ("trails", "power_trail")}

ROOT_SPAN = "bench.op"


class Tracer:
    """Span and counter store for one process (and, after a fork, its child)."""

    def __init__(self, spool_dir: Path):
        self.root_pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[tuple] = []
        self.stack: list[list[int]] = []
        self.counters: Counter = Counter()
        self.rings: dict[str, list] = {}
        self._ring_ids = weakref.WeakKeyDictionary()
        self._seen: set = set()
        self._next = 0
        self._next_ring = 0
        self.ring_type = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Keep the open stack so worker spans point at the parent's span;
        # drop everything the parent had already recorded.
        self.spans, self.counters, self.rings = [], Counter(), {}
        self._ring_ids = weakref.WeakKeyDictionary()
        self._seen = set()

    def ring_id(self, obj) -> str | None:
        if self.ring_type is None or not isinstance(obj, self.ring_type):
            return None
        rid = self._ring_ids.get(obj)
        if rid is None:
            rid = f"{os.getpid()}:{self._next_ring}"
            self._next_ring += 1
            self._ring_ids[obj] = rid
            self.rings[rid] = [obj.label, obj.order]
        return rid

    def first_time(self, key) -> bool:
        """Whether this key (ring, arguments) is new in this process."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def open(self) -> list[int]:
        sid = [os.getpid(), self._next]
        self._next += 1
        self.stack.append(sid)
        return sid

    def close(self, sid, name, start, end, ring=None) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, name, start, end, parent, ring))

    def span(self, name: str, fn, *args, **kwargs):
        sid = self.open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid, name, start, perf_counter())

    def flush_child(self) -> None:
        """In a pool worker, append the spans recorded so far to its spool file."""
        if os.getpid() == self.root_pid:
            return
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counters": self.counters, "rings": self.rings}) + "\n")
        self.spans, self.counters, self.rings = [], Counter(), {}

    def merge_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    if isinstance(rec, dict):
                        self.counters.update(rec["counters"])
                        self.rings.update(rec["rings"])
                    else:
                        sid, name, start, end, parent, ring = rec
                        self.spans.append((sid, name, start, end, parent, ring))
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"rings": self.rings, "counters": self.counters}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, name: str, fn, on_call=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open()
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            ring = tracer.ring_id(args[0]) if args else None
            if ring is None:
                ring = tracer.ring_id(result)
            span_name = on_call(args, kwargs, result, ring) if on_call else None
            tracer.close(sid, span_name or name, start, end, ring)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target in every ringlab module namespace that binds it."""
    from ringlab import cli, construct, core, predicates, sources, subsets, verify

    tracer.ring_type = core.FiniteRing
    modules = {mod.__name__: mod
               for mod in (cli, construct, core, predicates, sources, subsets, verify)}
    caps_default = (subsets.DEFAULT_LATTICE_ORDER_CAP, subsets.DEFAULT_LATTICE_COUNT_CAP)

    def caps(kwargs):
        return (kwargs.get("order_cap", caps_default[0]), kwargs.get("count_cap", caps_default[1]))

    def on_validate(args, kwargs, result, ring):
        order = args[4] if len(args) > 4 else kwargs["order"]
        tracer.counters["core.validate.order_cubed"] += order ** 3

    def on_lattice(args, kwargs, result, ring):
        if result is not None and tracer.first_time(("lattice", ring, caps(kwargs))):
            tracer.counters["subsets.lattice.ideals"] += len(result)

    def on_spectrum(args, kwargs, result, ring):
        tracer.counters["subsets.spectrum.calls"] += 1
        if not tracer.first_time(("spectrum", ring, caps(kwargs))):
            tracer.counters["subsets.spectrum.repeats"] += 1

    def on_characterization(args, kwargs, result, ring):
        thm = args[1] if len(args) > 1 else kwargs["thm_id"]
        return f"predicates.characterization.{thm}"

    hooks = {"core.validate": on_validate, "subsets.lattice": on_lattice,
             "subsets.spectrum": on_spectrum,
             "predicates.characterization": on_characterization}

    for span_name, (mod_name, fn_names) in TARGETS.items():
        module = modules[f"ringlab.{mod_name}"]
        for fn_name in fn_names:
            orig = getattr(module, fn_name)
            wrapped = _wrap(tracer, span_name, orig, hooks.get(span_name))
            if span_name == "verify.worker":
                wrapped = _flushing(tracer, wrapped)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    for span_name, methods in METHOD_TARGETS.items():
        for meth in methods:
            setattr(core.FiniteRing, meth, _wrap(tracer, span_name, getattr(core.FiniteRing, meth)))

    base = verify.ProcessPoolExecutor

    class TracedPool(base):
        """The verify layer's pool; its span is the parent's wait for workers."""

        def __enter__(self):
            self._span = (tracer.open(), perf_counter())
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                sid, start = self._span
                tracer.close(sid, "verify.pool", start, perf_counter())

    verify.ProcessPoolExecutor = TracedPool


def _flushing(tracer: Tracer, wrapped):
    @functools.wraps(wrapped)
    def worker(*args, **kwargs):
        try:
            return wrapped(*args, **kwargs)
        finally:
            tracer.flush_child()
    return worker


# ---------------------------------------------------------------------------
# per-layer metrics

CHARACTERIZATION_IDS = (
    "T2.2", "T2.4", "C2.5", "T2.8", "C2.9", "T2.10", "C2.11", "C2.12",
    "T3.3", "C3.4", "T3.7", "T3.9", "C3.10-set", "T4.7-2", "T4.7-3", "C4.8",
)

# metric -> span names whose self time it sums
SELF_METRICS = {
    "core.validate.self_s": ("core.validate",),
    "core.load.self_s": ("core.load",),
    "core.trails.self_s": ("core.trails",),
    "construct.build.self_s": ("construct.build",),
    "subsets.lattice.self_s": ("subsets.lattice",),
    "subsets.spectrum.self_s": ("subsets.spectrum",),
    "subsets.jacobson.self_s": ("subsets.jacobson",),
    "subsets.classes.self_s": ("subsets.classes",),
    "predicates.vector.self_s": ("predicates.vector",),
    "predicates.characterization.self_s": tuple(
        f"predicates.characterization.{t}" for t in CHARACTERIZATION_IDS),
    **{f"predicates.characterization.{t}.self_s": (f"predicates.characterization.{t}",)
       for t in CHARACTERIZATION_IDS},
    "predicates.upc.self_s": ("predicates.upc",),
    "verify.parent_wait_s": ("verify.pool",),
    "verify.report.self_s": ("verify.report",),
    "cli.self_s": ("cli",),
}

# metric -> (unit, better)
PER_LAYER = {
    "core.validate.self_s": ("s", "lower"),
    "core.validate.calls": ("count", "lower"),
    "core.validate.order_cubed": ("count", "lower"),
    "core.load.self_s": ("s", "lower"),
    "core.trails.self_s": ("s", "lower"),
    "construct.build.self_s": ("s", "lower"),
    "construct.build.calls": ("count", "lower"),
    "construct.catalog_s": ("s", "lower"),
    "subsets.lattice.self_s": ("s", "lower"),
    "subsets.lattice.ideals": ("count", "lower"),
    "subsets.spectrum.self_s": ("s", "lower"),
    "subsets.spectrum.repeat_ratio": ("ratio", "lower"),
    "subsets.jacobson.self_s": ("s", "lower"),
    "subsets.classes.self_s": ("s", "lower"),
    "predicates.vector.self_s": ("s", "lower"),
    "predicates.characterization.self_s": ("s", "lower"),
    "predicates.characterization.calls": ("count", "lower"),
    **{f"predicates.characterization.{t}.self_s": ("s", "lower") for t in CHARACTERIZATION_IDS},
    "predicates.upc.self_s": ("s", "lower"),
    "verify.run_s": ("s", "lower"),
    "verify.parent_wait_s": ("s", "lower"),
    "verify.worker_busy_s": ("s", "lower"),
    "verify.rebuild_share": ("ratio", "lower"),
    "verify.report.self_s": ("s", "lower"),
    "verify.rows": ("count", "higher"),
    "verify.skipped": ("count", "lower"),
    "verify.disagreements": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus that of its children in the same process."""
    covered: dict[tuple, float] = defaultdict(float)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None and parent[0] == sid[0]:
            covered[tuple(parent)] += end - start
    return [end - start - covered[tuple(sid)] for sid, _, start, end, _, _ in spans]


def layer_metrics(tracer: Tracer, passes: int, verify_counts: dict, overhead_s: float) -> dict:
    """Per-layer metrics per traced pass, from the merged spans and counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    root_self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    worker_build = 0.0
    for (sid, name, start, end, _, _), own in zip(spans, selfs):
        self_by_name[name] += own
        total_by_name[name] += end - start
        calls[name] += 1
        if sid[0] == tracer.root_pid:
            root_self_by_name[name] += own
        elif name == "construct.from_provenance":
            worker_build += end - start

    out = {metric: sum(self_by_name[n] for n in names) for metric, names in SELF_METRICS.items()}
    reported = {n for names in SELF_METRICS.values() for n in names}
    worker_busy = total_by_name["verify.worker"]
    spectrum_calls = tracer.counters["subsets.spectrum.calls"]
    out.update({
        "core.validate.calls": calls["core.validate"],
        "core.validate.order_cubed": tracer.counters["core.validate.order_cubed"],
        "construct.build.calls": calls["construct.build"],
        "construct.catalog_s": total_by_name["construct.catalog"],
        "subsets.lattice.ideals": tracer.counters["subsets.lattice.ideals"],
        "predicates.characterization.calls": sum(
            calls[f"predicates.characterization.{t}"] for t in CHARACTERIZATION_IDS),
        "verify.run_s": total_by_name["verify.run"],
        "verify.worker_busy_s": worker_busy,
        "verify.rows": verify_counts.get("rows", 0),
        "verify.skipped": verify_counts.get("skipped", 0),
        "verify.disagreements": verify_counts.get("disagreements", 0),
        # time inside the timed operations of the benchmark process that no
        # reported self time covers: the benchmark's own code, sources
        # dispatch, verify and catalog orchestration, and span bookkeeping
        "bench.unattributed_s": sum(v for n, v in root_self_by_name.items() if n not in reported),
    })
    out = {k: v / passes for k, v in out.items()}
    out["subsets.spectrum.repeat_ratio"] = (
        tracer.counters["subsets.spectrum.repeats"] / spectrum_calls if spectrum_calls else 0.0)
    out["verify.rebuild_share"] = worker_build / worker_busy if worker_busy else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
