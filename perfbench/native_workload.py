"""``native``: generated-code speed, LaminarIR against the FIFO baseline.

Set-up builds the LaminarIR and FIFO binaries of the 12 paper programs
(one thread per backend, each into its own empty cache) and calibrates
each binary's iteration count once so that one run lasts about
``TARGET_SECONDS``.  Both binaries of every program are then checked
against the FIFO interpreter at the reference iteration count.

The timed part runs every binary through
``repro.backend.runner.run_binary`` in rounds until ``--seconds`` have
passed (at least ``MIN_ROUNDS``).  The seed shuffles the program order
of each round and which binary of a pair runs first, so LaminarIR and
FIFO runs interleave.  Nanoseconds per steady iteration come from the
binary's own clock (its ``seconds`` line), which excludes process
start-up; every run's checksum must equal that binary's first one.
The host reference loop runs between rounds, and each round's samples
are scaled by the loops on either side of it (``harness.HostReference``),
which gives ``adj_op_us`` and ``speedup``.  ``setup_s`` is scaled the
same way by spawn yardsticks on either side of the set-up.
"""
from __future__ import annotations

import contextlib
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from perfbench import harness

BACKENDS = ("laminar-c", "fifo-c")
TARGET_SECONDS = 0.03
MIN_ROUNDS = 3
# Spawn yardsticks on either side of the set-up.
SETUP_YARDSTICKS = 3


def _build_all(root, sources: dict[str, str], recorder: harness.Recorder,
               parent, counts: dict) -> dict:
    """``{(program, backend): CacheEntry}``, two builds at a time; traced,
    each LaminarIR build's opt counts go into ``counts``.

    Each backend builds into its own empty cache from its own thread:
    ``ArtifactCache.publish`` clears every staging directory of its
    cache, so two publishers sharing a cache can tear each other's
    entries (see the README's known limits).
    """
    from repro.api import compile_source
    from repro.cache import ArtifactCache, service

    def build_backend(backend):
        cache = ArtifactCache(root / backend)
        entries = {}
        for name, source in sources.items():
            if recorder.enabled:
                with recorder.span(f"bench.build.{name}.{backend}",
                                   parent=parent):
                    build = harness.traced_build(recorder, source, name,
                                                 backend, cache)
                entries[name, backend] = build.entry
                if build.opt_stats is not None:
                    counts[name] = harness.opt_counts(build.opt_stats)
                continue
            stream = compile_source(source, name)
            entries[name, backend], _hit = service.ensure_native(
                stream, backend=backend, cache=cache)
        return entries

    with ThreadPoolExecutor(max_workers=len(BACKENDS)) as pool:
        built = list(pool.map(build_backend, BACKENDS))
    return {job: entry for entries in built for job, entry in entries.items()}


def _calibrate(binary) -> int:
    """Iterations for one run of about ``TARGET_SECONDS``."""
    from repro.backend import runner

    iterations = 64
    while True:
        seconds = runner.run_binary(binary, iterations).seconds
        if seconds >= TARGET_SECONDS / 8:
            return max(1, round(iterations * TARGET_SECONDS / seconds))
        iterations *= 8


def run(root, seed: int, seconds: float,
        recorder: harness.Recorder) -> harness.WorkloadResult:
    from repro.api import compile_source
    from repro.backend import runner
    from repro.cache import ArtifactCache, service
    from repro.suite import benchmark_names, benchmark_source

    tally = harness.Tally()
    names = benchmark_names()
    host = harness.HostReference(root, "native")
    setup_host = harness.HostReference(root, "spawn")
    with recorder.span("bench.native") as top:
        # One set-up per run: it builds 24 binaries (over 10 s), so the
        # median over runs stands in for repeating it within one.
        def set_up():
            sources.update((name, benchmark_source(name)) for name in names)
            entries.update(_build_all(root, sources, recorder, top, counts))
            iterations.update((job, _calibrate(entry.binary))
                              for job, entry in entries.items())

        sources, entries, counts, iterations = {}, {}, {}, {}
        raw_setup_s, setup_s, _ = setup_host.timed(
            set_up, setup_host.sample(SETUP_YARDSTICKS), SETUP_YARDSTICKS)
        expected = {}
        for name in names:
            expected[name] = harness.reference_checksum(
                compile_source(sources[name], name))
            for backend in BACKENDS:
                got = runner.run_binary(
                    entries[name, backend].binary,
                    harness.REFERENCE_ITERATIONS).checksum
                tally.check(got == expected[name],
                            f"{name} {backend}: checksum {got:016x} != "
                            f"FIFO interpreter {expected[name]:016x}")

        yardstick = host.sample(2)
        rng = random.Random(seed)
        ops = harness.Operations()
        checksums: dict[tuple[str, str], int] = {}
        round_walls: dict[bool, list[float]] = {False: [], True: []}
        laminar_by_mode: dict[bool, list[float]] = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            # The traced run alternates untraced and traced rounds, so
            # the difference is the tracing overhead.
            traced = recorder.enabled and rounds % 2 == 1
            round_started = time.perf_counter()
            order = list(names)
            rng.shuffle(order)
            for name in order:
                pair = list(BACKENDS)
                if rng.random() < 0.5:
                    pair.reverse()
                for backend in pair:
                    job = (name, backend)
                    span_name = f"backend.run_binary.{name}"
                    started = time.perf_counter()
                    with recorder.span(span_name) if traced \
                            else contextlib.nullcontext():
                        result = runner.run_binary(entries[job].binary,
                                                   iterations[job])
                    if not traced:
                        recorder.add(span_name, started,
                                     time.perf_counter(), parent=top)
                    first = checksums.setdefault(job, result.checksum)
                    tally.check(result.checksum == first,
                                f"{name} {backend}: checksum changed "
                                f"between rounds")
                    per_iter = result.seconds / iterations[job]
                    if backend == "laminar-c":
                        ops.laminar.append((name, per_iter))
                        laminar_by_mode[traced].append(per_iter)
                    else:
                        ops.fifo.append((name, per_iter))
            round_walls[traced].append(time.perf_counter() - round_started)
            rounds += 1
            # Scale the round's samples by the loops on either side.
            after = host.sample()
            factor = host.factor(yardstick, after)
            yardstick = after
            ops.laminar_adj += [(name, seconds * factor) for name, seconds
                                in ops.laminar[len(ops.laminar_adj):]]
            ops.fifo_adj += [(name, seconds * factor) for name, seconds
                             in ops.fifo[len(ops.fifo_adj):]]

        end_to_end, op_layer = harness.operation_metrics(ops, host,
                                                         pooled=False)
        laminar = {name: entries[name, "laminar-c"] for name in names}
        c_bytes = sum(harness.c_size(entry.artifact(service.CODE_NAME)
                                     .read_text())
                      for entry in laminar.values())
        report = [f"native: {rounds} rounds of {len(entries)} binaries; "
                  f"geomeans: laminar {op_layer['op_us'] * 1e3:.1f} ns "
                  f"(adjusted {end_to_end['adj_op_us'] * 1e3:.1f}), fifo "
                  f"{op_layer['fifo_op_us'] * 1e3:.1f} ns, speedup "
                  f"{end_to_end['speedup']:.2f}x; reference loop "
                  f"{host.seconds:.4f} s",
                  f"  setup {raw_setup_s:.4f} s raw, {setup_s:.4f} s adjusted "
                  f"(yardstick {setup_host.seconds:.4f} s)"]
        report += harness.per_program_report(ops, "ns", 1e9)
        if not recorder.enabled:
            return harness.WorkloadResult(metrics={
                "setup_s": setup_s,
                "c_bytes": c_bytes,
                "peak_rss_mb": harness.high_water_rss_mb(),
                **end_to_end,
            }, tally=tally, report=report)

        body, record = harness.serve_records(
            names[0], laminar[names[0]], expected[names[0]],
            harness.REFERENCE_ITERATIONS)
        metrics = harness.probe_layers(
            root, recorder, ArtifactCache(root / "laminar-c"), laminar,
            expected, harness.REFERENCE_ITERATIONS, tally, body, record)

    metrics.update(op_layer)
    metrics.update(harness.layer_timings(recorder))
    metrics.update(harness.count_metrics(list(counts.values())))
    report += harness.layer_report(recorder, [top])
    untraced_wall = statistics.fmean(round_walls[False])
    traced_wall = statistics.fmean(round_walls[True])
    report.append(
        f"  tracing overhead: round wall {traced_wall:.4f} s traced - "
        f"{untraced_wall:.4f} s untraced = "
        f"{traced_wall - untraced_wall:+.4f} s; laminar ns/iter median "
        f"{harness.median(laminar_by_mode[True]) * 1e9:.1f} traced vs "
        f"{harness.median(laminar_by_mode[False]) * 1e9:.1f} untraced")
    return harness.WorkloadResult(metrics=metrics, tally=tally,
                                  report=report)
