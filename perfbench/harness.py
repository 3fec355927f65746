"""Shared benchmark machinery.

* :func:`hermetic_root` gives every run a private directory for the
  ledger, the artifact cache, the access log and ``TMPDIR``, and deletes
  it afterwards.
* :class:`Recorder` is the benchmark's own span recorder.  Spans are
  taken around calls into the program's public functions; the program's
  own tracer stays off.
* :func:`traced_build` is the source-to-published-binary path of
  ``compile_source`` + ``ensure_native``, spelled out one public layer
  call at a time so each call gets its own span.
* :func:`canonical_c` makes generated C comparable across compiles in
  one process; :class:`HostReference` scales timings for host drift.
* :func:`operation_metrics` turns a workload's operation samples into
  the metrics every workload reports; :func:`probe_layers` times the
  library layers the daemon calls per request, on a workload's own
  binaries.
* Small statistics helpers and :class:`Tally`, which counts attempted
  and failed operations.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
CHECKOUT = PERFBENCH.parent
SRC = CHECKOUT / "src"
# Private run roots and written-out traces live here (ignored by git).
WORK_DIR = CHECKOUT / ".perfbench"

# Iterations at which every output is checked against the FIFO
# interpreter (the independent reference).
REFERENCE_ITERATIONS = 4

# Span-name prefix -> the program layer the call goes into.  Spans with
# any other prefix are the benchmark's own structure, not layer time.
LAYERS = {
    "frontend": "repro.frontend",
    "graph": "repro.graph",
    "scheduling": "repro.scheduling",
    "lir": "repro.lir",
    "opt": "repro.opt",
    "backend": "repro.backend",
    "cache": "repro.cache",
    "ledger": "repro.obs.ledger",
    "serve": "repro.serve",
    "pool": "repro.serve",
}


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def load_metric_map() -> dict:
    return json.loads((PERFBENCH / "metric_map.json").read_text())


def declared_metrics(metric_map: dict, kind: str) -> list[dict]:
    """Every ``kind`` (end_to_end / per_layer) metric.  Every workload
    reports all of them."""
    return list(metric_map[kind])


# The C backend names temps ``t<id>`` after a process-wide counter, so a
# program compiled twice in one process comes out with different names
# (and, as the digits grow, different byte counts).
_TEMP_NAME = re.compile(r"\bt(\d+)\b")


def canonical_c(code: str) -> str:
    """``code`` with temps renumbered in order of first appearance."""
    names: dict[str, int] = {}
    return _TEMP_NAME.sub(
        lambda match: f"t{names.setdefault(match.group(1), len(names))}",
        code)


def c_size(code: str) -> int:
    """Bytes of ``code`` with temps renumbered, so the size does not
    depend on what this process compiled before."""
    return len(canonical_c(code).encode("utf-8"))


def opt_counts(stats) -> dict[str, int]:
    """The deterministic counts of one LaminarIR compile (``OptStats``);
    a rebuild must reproduce them."""
    counts = {"lir.steady_ops": stats.ops_before.get("steady", 0),
              "opt.steady_ops_after": stats.ops_after.get("steady", 0),
              "opt.fixpoint_rounds": stats.fixpoint_rounds,
              "opt.regions_rerolled": stats.regions_rerolled}
    for stat in stats.pass_stats:
        counts[f"opt.changes.{stat.name}"] = stat.changes
    return counts


def count_metrics(counts: list[dict[str, int]]) -> dict[str, int]:
    """The declared per-layer counts, summed over programs (passes that
    change nothing on the compile workload are not declared)."""
    declared = {entry["name"] for entry in load_metric_map()["per_layer"]}
    totals: dict[str, int] = {}
    for one in counts:
        for name, value in one.items():
            if name in declared:
                totals[name] = totals.get(name, 0) + value
    return totals


def high_water_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MB."""
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- hermetic runs -----------------------------------------------------------

@contextlib.contextmanager
def hermetic_root():
    """A private root for one run; the environment points into it.

    Every ``REPRO_*`` variable the caller had is dropped so nothing
    (fault plans, limits, a shared ledger) leaks in; child processes
    inherit the rewritten environment.
    """
    WORK_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    saved = dict(os.environ)
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    (root / "tmp").mkdir()
    os.environ.update(REPRO_LEDGER_DIR=str(root / "ledger"),
                      REPRO_CACHE_DIR=str(root / "cache"),
                      REPRO_ACCESS_LOG=str(root / "access.jsonl"),
                      TMPDIR=str(root / "tmp"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in saved.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    tempfile.tempdir = str(root / "tmp")
    try:
        yield root
    finally:
        os.environ.clear()
        os.environ.update(saved)
        tempfile.tempdir = None
        shutil.rmtree(root, ignore_errors=True)


# -- spans -------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    index: int = -1
    end: float | None = None

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) \
            - self.start

    @property
    def layer(self) -> str | None:
        return LAYERS.get(self.name.split(".", 1)[0])


class Recorder:
    """In-memory spans (name, start, end, parent) around layer calls.

    Disabled (the untraced run), it records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(),
                    parent.index if parent is not None else None)
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Span | None = None) -> None:
        """Record a span after the fact, from times the caller took
        anyway (the untraced half of an A/B comparison)."""
        if not self.enabled:
            return
        span = Span(name, start, parent.index if parent else None,
                    end=end)
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally only
        those whose parent is called ``under``)."""
        return sum(span.seconds for span in self.spans
                   if span.name == name and (
                       under is None or (span.parent is not None and
                                         self.spans[span.parent].name
                                         == under)))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each layer span's duration minus the part
        its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, float] = {}
        for span in self.spans:
            if span.layer is None:
                continue
            covered = _union([(child.start, child.end)
                              for child in children.get(span.index, [])],
                             span.start, span.end)
            out[span.layer] = out.get(span.layer, 0.0) \
                + span.seconds - covered
        return out

    def uncovered_share(self, roots: list[Span]) -> float:
        """Share of the ``roots``' wall time that no layer span covers."""
        layer_spans = [(span.start, span.end) for span in self.spans
                       if span.layer is not None]
        wall = sum(root.seconds for root in roots)
        covered = sum(_union(layer_spans, root.start, root.end)
                      for root in roots)
        return 1.0 - covered / wall if wall > 0 else 0.0

    def dump(self, path: Path, root: Span) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"name": span.name, "layer": span.layer,
             "start": span.start - root.start,
             "end": (span.end if span.end is not None else span.start)
             - root.start,
             "parent": span.parent} for span in self.spans], indent=0))


def _union(intervals: list[tuple[float, float | None]], lo: float,
           hi: float | None) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    if hi is None:
        return 0.0
    total = 0.0
    current_start = current_end = None
    for start, end in sorted((max(s, lo), min(e, hi))
                             for s, e in intervals if e is not None):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# -- host speed --------------------------------------------------------------

# Each yardstick's time at the speed the adjusted figures are quoted at.
# Only ratios between runs matter; the values are the yardsticks' typical
# times on the 2-core VM the bounds were tuned on.
REFERENCE_NOMINAL_S = {"native": 0.1, "python": 0.03, "spawn": 0.1}

# Standard-library modules a fresh interpreter imports for the "spawn"
# yardstick.
_SPAWN_IMPORTS = "import argparse, asyncio, decimal, email.parser, json"

# A fixed, generated Python module.  Compiling it exercises the CPython
# parser and bytecode compiler and no code of the program.
_YARDSTICK_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    x = [a * {i} + b for _ in range(3)]\n"
    f"    return {{'k': x, 'v': (a, b, {i})}}\n" for i in range(400))


class HostReference:
    """A yardstick timed at points spread through a run.

    The host's speed drifts by up to 2x from minute to minute, and every
    absolute timing drifts with it.  :meth:`adjust` scales a timing taken
    during the run to the nominal speed, dividing that drift out.  Two
    yardsticks share no code with the program:

    * ``"native"``: ``ref_loop.c``, a floating-point loop in its own
      process; it tracks the speed of the generated binaries;
    * ``"python"``: CPython compiling a fixed generated module in this
      process, with the garbage collector off so the program's heap
      cannot slow it; it tracks Python-heavy work (the compiler), which
      the native loop does not;
    * ``"spawn"``: a fresh interpreter importing standard-library
      modules; it tracks process start-up and imports (a set-up).
    """

    def __init__(self, root: Path, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        if kind == "native":
            from repro.backend import runner

            compiler = runner.find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler on PATH")
            self.binary = root / "ref_loop"
            subprocess.run([compiler, "-O2", "-o", str(self.binary),
                            str(PERFBENCH / "ref_loop.c")], check=True)

    def _once(self) -> float:
        if self.kind == "spawn":
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", _SPAWN_IMPORTS],
                           check=True)
            return time.perf_counter() - started
        if self.kind == "native":
            result = subprocess.run([str(self.binary)], check=True,
                                    capture_output=True, text=True)
            return float(result.stdout)
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            compile(_YARDSTICK_SOURCE, "<yardstick>", "exec")
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def sample(self, count: int = 1) -> float:
        """Run the yardstick ``count`` times; returns their median."""
        for _ in range(count):
            self.samples.append(self._once())
        return median(self.samples[-count:])

    @property
    def seconds(self) -> float:
        return median(self.samples)

    def adjust(self, value: float, yardstick: float | None = None) -> float:
        """A time (or a latency) as it would read at the nominal speed,
        by the run's median yardstick or by one taken next to it."""
        return value * REFERENCE_NOMINAL_S[self.kind] / (
            yardstick if yardstick is not None else self.seconds)

    def factor(self, before: float, after: float) -> float:
        """The scale to nominal speed for timings taken between the
        yardsticks ``before`` and ``after``."""
        return REFERENCE_NOMINAL_S[self.kind] / math.sqrt(before * after)

    def timed(self, fn, before: float,
              count: int = 1) -> tuple[float, float, float]:
        """Time ``fn()`` between two yardsticks: ``(seconds, adjusted
        seconds, the yardstick after)``, the yardstick run ``count``
        times after.  The yardstick moves with the host's speed from
        second to second, so scaling each sample by the ones on either
        side divides out more drift than the run's median can."""
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        after = self.sample(count)
        return elapsed, elapsed * self.factor(before, after), after


# -- outcome bookkeeping -----------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed; failures keep a short reason."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class WorkloadResult:
    metrics: dict[str, float]
    tally: Tally
    # Human-readable lines for the report on stderr.
    report: list[str] = field(default_factory=list)


# -- statistics --------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Operations:
    """One run's operation samples, in the order taken: ``(program,
    seconds)`` for the LaminarIR operation and for its FIFO baseline.

    ``laminar_adj``/``fifo_adj`` hold the same samples each scaled by
    the yardsticks taken next to it (:meth:`HostReference.timed`), when
    the workload takes them; otherwise they stay empty.
    """

    laminar: list[tuple[str, float]] = field(default_factory=list)
    fifo: list[tuple[str, float]] = field(default_factory=list)
    laminar_adj: list[tuple[str, float]] = field(default_factory=list)
    fifo_adj: list[tuple[str, float]] = field(default_factory=list)


def _by_program(samples: list[tuple[str, float]]) -> dict[str, float]:
    grouped: dict[str, list[float]] = {}
    for program, seconds in samples:
        grouped.setdefault(program, []).append(seconds)
    return {program: median(values) for program, values in grouped.items()}


def drift(samples: list[tuple[str, float]]) -> float:
    """Median of the last tenth of the samples over that of the first
    tenth, each sample taken relative to its program's median."""
    medians = _by_program(samples)
    relative = [seconds / medians[program] for program, seconds in samples]
    tenth = max(1, len(relative) // 10)
    return median(relative[-tenth:]) / median(relative[:tenth])


def operation_metrics(ops: Operations, host: "HostReference", *,
                      pooled: bool) -> tuple[dict, dict]:
    """The end-to-end and per-layer operation metrics of a run.

    The operation time is the geomean over programs of each one's median
    or, ``pooled``, the median of all samples (serve-hot requests).
    """
    def op_seconds(samples):
        if pooled:
            return median([seconds for _program, seconds in samples])
        return geomean(list(_by_program(samples).values()))

    op_s, fifo_s = op_seconds(ops.laminar), op_seconds(ops.fifo)
    if ops.laminar_adj:
        adj_s = op_seconds(ops.laminar_adj)
        end_to_end = {"adj_op_us": adj_s * 1e6,
                      "speedup": op_seconds(ops.fifo_adj) / adj_s}
    else:
        end_to_end = {"adj_op_us": host.adjust(op_s) * 1e6,
                      "speedup": fifo_s / op_s}
    per_layer = {"host.ref_s": host.seconds,
                 "op_us": op_s * 1e6,
                 "fifo_op_us": fifo_s * 1e6,
                 "op_p99_us": percentile([seconds for _program, seconds
                                          in ops.laminar], 99) * 1e6,
                 "op_drift": drift(ops.laminar)}
    return end_to_end, per_layer


def per_program_report(ops: Operations, unit: str, scale: float) -> list[str]:
    laminar, fifo = _by_program(ops.laminar), _by_program(ops.fifo)
    return [f"  {program:<16} laminar {laminar[program] * scale:>12.3f} "
            f"{unit}  fifo {fifo[program] * scale:>12.3f} {unit}  "
            f"ratio {fifo[program] / laminar[program]:.3f}"
            for program in sorted(laminar)]


def reference_checksum(stream, iterations: int = REFERENCE_ITERATIONS) -> int:
    """The FIFO interpreter's output checksum: the independent reference."""
    from repro.backend.common import checksum_outputs

    return checksum_outputs(stream.run_fifo(iterations).outputs)


def layer_report(recorder: Recorder, roots: list[Span]) -> list[str]:
    """Self time per layer and the uncovered share of the ``roots``'
    wall time (the traced parts of the workload)."""
    lines = [f"  {'layer':<18} {'self s':>10} {'of wall':>8}"
             "  (concurrent spans can add past 100%)"]
    wall = sum(root.seconds for root in roots)
    for layer, seconds in sorted(recorder.self_times().items(),
                                 key=lambda item: -item[1]):
        lines.append(f"  {layer:<18} {seconds:>10.4f} "
                     f"{seconds / wall:>8.1%}")
    lines.append(f"  uncovered share of {wall:.3f} s wall: "
                 f"{recorder.uncovered_share(roots):.1%}")
    return lines


# -- the build path, one layer call at a time --------------------------------

# The spans traced_build takes, one per public layer call.
TIMINGS = ("frontend.parse", "graph.elaborate", "graph.flatten",
           "scheduling.schedule", "lir.lower", "opt.optimize", "lir.verify",
           "backend.codegen", "backend.cc", "cache.publish")


def layer_timings(recorder: Recorder) -> dict[str, float]:
    """Seconds per build layer, summed over every traced build."""
    return {f"{name}_s": recorder.total(name) for name in TIMINGS}


@dataclass
class Build:
    entry: object  # repro.cache.store.CacheEntry
    code: str
    opt_stats: object | None  # repro.opt.OptStats (laminar builds only)


def traced_build(recorder: Recorder, source: str, filename: str,
                 backend: str, cache) -> Build:
    """Source -> published binary through each layer's public function.

    Mirrors ``compile_source`` followed by ``ensure_native`` on a miss
    (default lowering and optimizer options), with a span around every
    layer call.  The compile workload checks that it emits the same C.
    """
    from repro.api import CompiledStream
    from repro.backend import runner
    from repro.backend.fifo_c import generate_fifo_c
    from repro.backend.laminar_c import generate_laminar_c
    from repro.cache import service
    from repro.frontend import parse_and_check
    from repro.graph import elaborate, flatten
    from repro.lir import lower, verify
    from repro.opt import optimize
    from repro.scheduling import build_schedule

    started = time.monotonic()
    with recorder.span("frontend.parse"):
        ast = parse_and_check(source, filename)
    with recorder.span("graph.elaborate"):
        root = elaborate(ast)
    with recorder.span("graph.flatten"):
        graph = flatten(root)
    with recorder.span("scheduling.schedule"):
        schedule = build_schedule(graph)
    stream = CompiledStream(source=source, ast=ast, root=root, graph=graph,
                            schedule=schedule)
    stats = lir_dump = None
    if backend == "laminar-c":
        with recorder.span("lir.lower"):
            program = lower(schedule, source, None)
        with recorder.span("opt.optimize"):
            stats = optimize(program, None)
        with recorder.span("lir.verify"):
            verify(program)
        with recorder.span("backend.codegen"):
            code = generate_laminar_c(program)
        lir_dump = program.dump()
    else:
        with recorder.span("backend.codegen"):
            code = generate_fifo_c(schedule, source)
    key, components = service.native_key(stream, backend=backend)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench_cc_"))
    try:
        with recorder.span("backend.cc"):
            binary = runner.compile_c(code, workdir=workdir,
                                      name=service.BINARY_NAME)
        artifacts = {service.CODE_NAME: code,
                     service.BINARY_NAME: binary,
                     service.LIR_NAME: lir_dump,
                     service.SCHEDULE_NAME: json.dumps(stream.stats(),
                                                       sort_keys=True)}
        with recorder.span("cache.publish"):
            entry = cache.publish(
                key, components, artifacts=artifacts,
                meta={"stream": stream.name,
                      "binary": service.BINARY_NAME,
                      "build_seconds": time.monotonic() - started})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Build(entry=entry, code=code, opt_stats=stats)


# -- per-request layers, probed on a workload's own binaries -----------------

PROBE_REPEATS = 10
# Records in the ledger ``ledger.append_ms.full`` appends to.
LEDGER_FULL = 500


def serve_records(program: str, entry, checksum: int,
                  iterations: int) -> tuple[dict, dict]:
    """The ledger body and access-log record the daemon writes for a hot
    native ``/run`` of ``program`` (see ``repro.serve.daemon``)."""
    from repro.obs import ledger

    body = ledger.make_body(
        "serve", program, spec_hash=entry.components.get("source_hash"),
        backend="laminar-c", pipeline="default", iterations=iterations,
        flags={"route": "native", "cache_hit": True, "degraded": False},
        checksum=f"{checksum:016x}", seconds=0.0001,
        request_id="0" * 16, trace_id="0" * 32)
    record = {"ts": time.time(), "wall_time": time.time(),
              "request_id": "0" * 16, "trace_id": "0" * 32,
              "traceparent": f"00-{'0' * 32}-{'0' * 16}-01",
              "traceparent_in": None, "method": "POST", "path": "/run",
              "route": "/run", "status": 200, "backend": "laminar-c",
              "cache_hit": True, "dedup": False, "degraded": False,
              "run_route": "native", "stream": program,
              "duration_ms": 10.0, "bytes_out": 400}
    return body, record


def timed_calls(recorder: Recorder, name: str, fn, repeats: int,
           *args) -> tuple[float, list]:
    """Median milliseconds of ``fn(*args)`` over ``repeats`` spanned calls,
    and the results."""
    times, results = [], []
    for _ in range(repeats):
        with recorder.span(name) as span:
            results.append(fn(*args))
        times.append(span.seconds * 1e3)
    return median(times), results


def probe_layers(root: Path, recorder: Recorder, cache, entries: dict,
                 expected: dict[str, int], iterations: int, tally: Tally,
                 body: dict, record: dict) -> dict[str, float]:
    """Each per-request layer's public call, timed (traced run only).

    ``entries`` maps programs to LaminarIR cache entries of ``cache``;
    ``expected`` holds their reference checksums at ``iterations``;
    ``body``/``record`` are what the ledger and access log are given.
    """
    with recorder.span("bench.probes"):
        return _probe_layers(root, recorder, cache, entries, expected,
                             iterations, tally, body, record)


def _probe_layers(root, recorder, cache, entries, expected, iterations,
                  tally, body, record) -> dict[str, float]:
    from repro.backend import runner
    from repro.obs import ledger
    from repro.obs.sinks import JsonlAccessLog
    from repro.serve import WorkerPool

    lookups = []
    for program, entry in entries.items():
        ms, found = timed_calls(recorder, "cache.lookup", cache.lookup,
                           PROBE_REPEATS, entry.key)
        lookups.append(ms)
        tally.check(all(hit is not None and hit.key == entry.key
                        for hit in found), f"{program}: cache lookup missed")
    metrics = {"cache.lookup_ms": median(lookups)}

    pool = WorkerPool(size=1)
    try:
        first = next(iter(entries.values()))
        pool.submit({"kind": "native", "iterations": iterations,
                     "binary": str(first.binary)})
        submits = []
        for program, entry in entries.items():
            ms, replies = timed_calls(
                recorder, "pool.submit", pool.submit, PROBE_REPEATS,
                {"kind": "native", "iterations": iterations,
                 "binary": str(entry.binary)})
            submits.append(ms)
            tally.check(all(reply.get("checksum")
                            == f"{expected[program]:016x}"
                            for reply in replies),
                        f"{program}: pool reply checksum mismatch")
    finally:
        pool.close()
    metrics["pool.submit_ms"] = median(submits)

    metrics["backend.exec_1iter_ms"] = median([
        timed_calls(recorder, "backend.exec_1iter", runner.run_binary,
               PROBE_REPEATS, entry.binary, 1)[0]
        for entry in entries.values()])

    empties = []
    for index in range(2 * PROBE_REPEATS):
        directory = root / "probe-ledgers" / f"empty-{index}"
        with recorder.span("ledger.append") as span:
            ledger.append(body, directory=directory)
        empties.append(span.seconds * 1e3)
    metrics["ledger.append_ms.empty"] = median(empties)
    full = root / "probe-ledgers" / "full"
    for _ in range(LEDGER_FULL):
        ledger.append(body, directory=full)
    metrics["ledger.append_ms.full"], _ = timed_calls(
        recorder, "ledger.append", ledger.append, 2 * PROBE_REPEATS, body,
        full)

    access_log = JsonlAccessLog(root / "probe-access.jsonl")
    try:
        metrics["serve.access_log_ms"], _ = timed_calls(
            recorder, "serve.access_log", access_log.write,
            5 * PROBE_REPEATS, record)
    finally:
        access_log.close()
    return metrics
