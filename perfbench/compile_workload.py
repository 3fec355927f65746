"""``compile``: cold builds of the paper's programs, then compile speed.

The 12 paper programs at scale 1 go from source to a published native
binary, one after another in this process: ``repro.api.compile_source``
then ``repro.cache.service.ensure_native``, into an empty cache;
``filterbank`` at scale 2 (``LARGE``) goes to C.  Every binary is run
at the reference iteration count and must match the FIFO interpreter's
checksum.

The timed operation is source to C with the repo's own compiler:
``compile_source(...).laminar_c()`` against the FIFO baseline's
``compile_source(...).fifo_c()``, interleaved, on the 12 programs, in
rounds until ``--seconds`` have passed (at least ``MIN_ROUNDS``).  The
seed shuffles the program order of every round and which backend of a
pair goes first.  One sample is the mean of enough back-to-back compiles
to last ``SAMPLE_SECONDS``, so the fast programs are not lost in timer
noise.  The CPython yardstick (:class:`harness.HostReference`) runs
between samples and between set-ups; each sample of the operation and
of the set-up is scaled by the yardsticks on either side of it, which
gives ``adj_op_us``, ``speedup`` and ``setup_s``.

Every LaminarIR compile must give the cold build's steady op counts,
per-pass change counts and C; every FIFO compile the first one's C.
"The same C" is compared up to temp names (:func:`harness.canonical_c`):
the compiler numbers temps from a process-wide counter, so a second
compile in one process renames them.  The traced run rebuilds everything
through :func:`harness.traced_build` into a second empty cache and must
emit the same C again.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

from perfbench import harness

SETUP_REPEATS = 9
MIN_ROUNDS = 4
SAMPLE_SECONDS = 0.05
BACKENDS = ("laminar-c", "fifo-c")


def programs() -> list[tuple[str, str, int]]:
    """(label, suite program, scale) for every program compiled."""
    from repro.suite import benchmark_names

    return [(name, name, 1) for name in benchmark_names()] \
        + [LARGE]


# Compiled to C (and counted) but neither built with cc nor timed: its
# cc alone takes longer than the other twelve builds, and one compile of
# it longer than a round of the others.
LARGE = ("filterbank_x2", "filterbank", 2)


def _setup(root, index: int):
    """What a compile process pays before its first build: a fresh
    interpreter importing the compiler, an empty artifact cache and the
    program sources."""
    from repro.cache import ArtifactCache
    from repro.suite import benchmark_source

    subprocess.run([sys.executable, "-c", "import repro.api, "
                    "repro.cache.service, repro.suite"], check=True)
    cache = ArtifactCache(root / f"cache-{index}")
    sources = {label: benchmark_source(name, scale=scale)
               for label, name, scale in programs()}
    return cache, sources


def _to_c(source: str, label: str, backend: str):
    from repro.api import compile_source

    stream = compile_source(source, label)
    code = stream.laminar_c() if backend == "laminar-c" else stream.fifo_c()
    return stream, code


def run(root, seed: int, seconds: float,
        recorder: harness.Recorder) -> harness.WorkloadResult:
    from repro.api import compile_source
    from repro.backend import runner
    from repro.cache import ArtifactCache, service

    tally = harness.Tally()
    made = []
    setups, adjusted_setups = [], []
    setup_host = harness.HostReference(root, "spawn")
    yardstick = setup_host.sample()
    for index in range(SETUP_REPEATS):
        raw, adjusted, yardstick = setup_host.timed(
            lambda: made.append(_setup(root, index)), yardstick)
        setups.append(raw)
        adjusted_setups.append(adjusted)
    cache, sources = made[-1]
    rng = random.Random(seed)
    order = [label for label, _name, _scale in programs()]
    rng.shuffle(order)

    # The cold build, one program after another.
    entries, counts, codes = {}, {}, {}
    cold_s = 0.0
    for label in order:
        started = time.perf_counter()
        stream = compile_source(sources[label], label)
        if label == LARGE[0]:
            codes[label] = stream.laminar_c()
        else:
            entries[label], hit = service.ensure_native(stream, cache=cache)
            tally.check(not hit, f"{label}: cold build hit the cache")
            codes[label] = entries[label].artifact(
                service.CODE_NAME).read_text()
        cold_s += time.perf_counter() - started
        counts[label] = harness.opt_counts(stream.lower().opt_stats)
        del stream
    canonical = {label: harness.canonical_c(code)
                 for label, code in codes.items()}
    fifo_codes: dict[str, str] = {}
    renamed: set[str] = set()

    def check(label, backend, what, stream, code) -> None:
        if backend == "fifo-c":
            first = fifo_codes.setdefault(label, code)
            tally.check(code == first,
                        f"{label}: {what} FIFO C differs from the first")
            return
        tally.check(harness.canonical_c(code) == canonical[label]
                    and harness.opt_counts(stream.lower().opt_stats)
                    == counts[label],
                    f"{label}: {what} differs from the cold build")
        if code != codes[label]:
            renamed.add(label)

    # A second compile of each program with each backend: the
    # determinism check, the FIFO interpreter reference, and how many
    # compiles make one sample.
    expected, repeats = {}, {}
    for label in order:
        for backend in BACKENDS:
            started = time.perf_counter()
            stream, code = _to_c(sources[label], label, backend)
            elapsed = time.perf_counter() - started
            repeats[label, backend] = max(1, math.ceil(SAMPLE_SECONDS
                                                       / elapsed))
            check(label, backend, "second compile", stream, code)
        if label in entries:
            expected[label] = harness.reference_checksum(stream)
        del stream
    for label in entries:
        got = runner.run_binary(entries[label].binary,
                                harness.REFERENCE_ITERATIONS).checksum
        tally.check(got == expected[label],
                    f"{label}: binary checksum {got:016x} != FIFO "
                    f"interpreter {expected[label]:016x}")

    # Timed: source to C, LaminarIR and FIFO interleaved, the yardstick
    # before every sample.
    host = harness.HostReference(root, "python")
    yardstick = host.sample()
    ops = harness.Operations()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        round_order = list(entries)
        rng.shuffle(round_order)
        for label in round_order:
            pair = list(BACKENDS)
            if rng.random() < 0.5:
                pair.reverse()
            for backend in pair:
                count = repeats[label, backend]
                outputs = []

                def compile_repeatedly():
                    for _ in range(count):
                        outputs[:] = _to_c(sources[label], label, backend)

                elapsed, adjusted, yardstick = host.timed(
                    compile_repeatedly, yardstick)
                if backend == "laminar-c":
                    ops.laminar.append((label, elapsed / count))
                    ops.laminar_adj.append((label, adjusted / count))
                else:
                    ops.fifo.append((label, elapsed / count))
                    ops.fifo_adj.append((label, adjusted / count))
                check(label, backend, "timed compile", *outputs)
                del outputs
        rounds += 1
    end_to_end, op_layer = harness.operation_metrics(ops, host,
                                                     pooled=False)
    c_bytes = {label: harness.c_size(code) for label, code in codes.items()}

    report = [f"compile: {len(order)} programs, cold build {cold_s:.3f} s "
              f"({len(entries)} with cc); "
              f"{rounds} rounds of source-to-C: laminar "
              f"{op_layer['op_us'] / 1e3:.3f} ms, fifo "
              f"{op_layer['fifo_op_us'] / 1e3:.3f} ms (geomeans), "
              f"speedup {end_to_end['speedup']:.4f}; yardstick "
              f"{host.seconds:.4f} s",
              f"  setup {harness.median(setups):.4f} s raw, "
              f"{harness.median(adjusted_setups):.4f} s adjusted "
              f"(yardstick {setup_host.seconds:.4f} s)",
              f"  later compiles emitted other C bytes (same C up to temp "
              f"names) for {len(renamed)} of {len(order)} programs: "
              f"{', '.join(sorted(renamed)) or '-'}"]
    report += harness.per_program_report(ops, "ms", 1e3)
    if not recorder.enabled:
        return harness.WorkloadResult(metrics={
            "setup_s": harness.median(adjusted_setups),
            "c_bytes": sum(c_bytes.values()),
            "peak_rss_mb": harness.high_water_rss_mb(),
            **end_to_end,
        }, tally=tally, report=report)

    # Traced: the same builds, one span per layer call, into a second
    # empty cache; they must emit the same C and the same counts.  Each
    # is paired with an untraced rebuild into a third cache, the pair's
    # order alternating, so the difference is the tracing overhead.
    traced_cache = ArtifactCache(root / "cache-traced")
    untraced_cache = ArtifactCache(root / "cache-untraced")
    untraced_s = 0.0
    with recorder.span("bench.compile"):
        for index, label in enumerate(entries):
            for traced in ((True, False) if index % 2 else (False, True)):
                if not traced:
                    started = time.perf_counter()
                    stream = compile_source(sources[label], label)
                    service.ensure_native(stream, cache=untraced_cache)
                    untraced_s += time.perf_counter() - started
                    continue
                with recorder.span(f"bench.build.{label}"):
                    build = harness.traced_build(
                        recorder, sources[label], label, "laminar-c",
                        traced_cache)
                tally.check(harness.canonical_c(build.code)
                            == canonical[label]
                            and harness.opt_counts(build.opt_stats)
                            == counts[label],
                            f"{label}: traced build differs from the cold "
                            f"build")
    first = next(iter(entries))
    body, record = harness.serve_records(
        first, entries[first], expected[first],
        harness.REFERENCE_ITERATIONS)
    metrics = harness.probe_layers(root, recorder, cache, entries, expected,
                                   harness.REFERENCE_ITERATIONS, tally,
                                   body, record)
    metrics.update(op_layer)
    metrics.update(harness.layer_timings(recorder))
    metrics.update(harness.count_metrics(list(counts.values())))

    build_roots = [span for span in recorder.spans
                   if span.name.startswith("bench.build.")]
    traced_s = sum(span.seconds for span in build_roots)
    report += harness.layer_report(recorder, build_roots + [
        span for span in recorder.spans if span.name == "bench.probes"])
    report.append(f"  tracing overhead: cold build {traced_s:.3f} s traced "
                  f"- {untraced_s:.3f} s untraced (interleaved rebuilds) = "
                  f"{traced_s - untraced_s:+.3f} s")
    return harness.WorkloadResult(metrics=metrics, tally=tally,
                                  report=report)
