"""``serve-hot``: cached programs answered by the serve daemon.

``python -m repro serve --socket`` runs as a child process with its
default worker pool and a fresh cache, ledger and access log.  The run
has ``ROUNDS`` rounds, each on a fresh daemon.  Set-up starts the daemon
and warms 12 cache keys, six programs with each backend, with one
native ``/run`` each.  The timed part is a closed loop: ``CLIENTS``
client connections in this process each send their share of
``REQUESTS`` ``/run`` requests, the next only after the previous answer,
half on LaminarIR keys and half on FIFO keys.  The seed fixes each
client's request order.  The daemon's high-water RSS is read, then it
is stopped with SIGTERM; any exit status but 0 (a clean drain) is a
failure.  Latency figures pool the requests of all rounds; each round
starts with an empty ledger, so every request sees a ledger of the same
sizes from round to round.

Every answer must be a 200 whose checksum equals the FIFO interpreter's
at the same iteration count.  A round runs in ``SEGMENTS`` parts with
the host reference loop between them; each part's latencies are scaled
by the loops on either side of it, and each set-up by the spawn
yardsticks on either side of it (``harness.HostReference``).

The traced run also times each layer's public call on the inputs the
requests use (:func:`harness.probe_layers` on the daemon's cache, ledger
record and access record), rebuilds the 12 keys through
:func:`harness.traced_build` for the build layers' timings, and reports
a ``/healthz`` round trip.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from perfbench import harness

KEYS = ("autocor", "fft", "lattice", "rate_convert", "matrixmult",
        "bitonic_sort")
ITERATIONS = 32
CLIENTS = 2
REQUESTS = 1000
ROUNDS = 2
# Parts of a round with a host reference loop between them.
SEGMENTS = 5
BACKENDS = ("laminar-c", "fifo-c")
STOP_TIMEOUT = 60.0
HEALTHZ_REPEATS = 50
# Spawn yardsticks on either side of each set-up.
SETUP_YARDSTICKS = 3


class Daemon:
    """One ``repro serve`` child process with its own state directory."""

    def __init__(self, directory):
        self.dir = directory
        self.dir.mkdir()
        # A relative path keeps the socket under the AF_UNIX length limit
        # wherever the checkout lives; both processes share the cwd.
        self.socket = os.path.relpath(self.dir / "serve.sock")
        self.ledger = self.dir / "ledger"
        self.cache = self.dir / "cache"
        self.access_log = self.dir / "access.jsonl"
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket, "--cache-dir", str(self.cache),
             "--access-log", str(self.access_log)],
            stdout=self._log, stderr=subprocess.STDOUT,
            env={**os.environ, "REPRO_LEDGER_DIR": str(self.ledger)},
            start_new_session=True)

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(socket_path=self.socket)

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.returncode
        self._log.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        self._log.close()

    def log_tail(self) -> str:
        try:
            return (self.dir / "daemon.log").read_text()[-2000:]
        except OSError:
            return ""


def _request_body(key: str, backend: str) -> dict:
    return {"benchmark": key, "iterations": ITERATIONS, "route": "native",
            "backend": backend}


def _check_answer(tally: harness.Tally, status, raw: bytes, key: str,
                  backend: str, expected: dict[str, int], *,
                  hit: bool) -> dict | None:
    """One operation: a 200 whose checksum equals the reference."""
    body = json.loads(raw) if status == 200 else {}
    want = f"{expected[key]:016x}"
    tally.check(body.get("checksum") == want
                and body.get("route") == "native"
                and body.get("cache_hit") is hit,
                f"{key} {backend}: status {status}, checksum "
                f"{body.get('checksum')} (want {want}), route "
                f"{body.get('route')}, cache_hit {body.get('cache_hit')} "
                f"(want {hit}): {raw[:200]!r}")
    return body or None


def _setup(directory, tally, expected) -> tuple[Daemon, dict]:
    """Start a daemon and warm every key with each backend; returns it
    and the cache keys by ``(program, backend)``."""
    daemon = Daemon(directory)
    try:
        if not daemon.client().wait_ready(timeout=60):
            raise RuntimeError("daemon did not answer /healthz:\n"
                               + daemon.log_tail())
        cache_keys = {}
        for key in KEYS:
            for backend in BACKENDS:
                response = daemon.client().run(**_request_body(key, backend))
                body = _check_answer(tally, response.status, response.raw,
                                     key, backend, expected, hit=False)
                if body is not None:
                    cache_keys[key, backend] = body["key"]
    except BaseException:
        daemon.kill()
        raise
    return daemon, cache_keys


def _client_loop(socket_path: str, jobs: list[tuple[str, str]],
                 traced_every: int, recorder: harness.Recorder, parent,
                 out: list) -> None:
    """One closed-loop client on a persistent connection.

    Appends ``(start, end, key, backend, status, raw, traced)`` per
    request.  In the traced run every ``traced_every``-th request is
    spanned as it runs; the others are recorded afterwards from the times
    taken anyway.
    """
    from repro.serve import UnixHTTPConnection

    connection = UnixHTTPConnection(socket_path, timeout=60)
    try:
        for index, (key, backend) in enumerate(jobs):
            body = json.dumps(_request_body(key, backend)).encode("utf-8")
            traced = recorder.enabled and index % traced_every == 0
            started = time.perf_counter()
            with recorder.span("serve.request", parent=parent) if traced \
                    else contextlib.nullcontext():
                try:
                    connection.request(
                        "POST", "/run", body=body,
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    status, raw = response.status, response.read()
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    status, raw = None, repr(error).encode()
            ended = time.perf_counter()
            if recorder.enabled and not traced:
                recorder.add("serve.request", started, ended, parent=parent)
            out.append((started, ended, key, backend, status, raw, traced))
    finally:
        connection.close()


def _plans(rng: random.Random) -> list[list[tuple[str, str]]]:
    """Each client's share of ``REQUESTS``, in a seeded order."""
    jobs = [(key, backend) for key in KEYS for backend in BACKENDS]
    plans = []
    for _ in range(CLIENTS):
        mine = [jobs[i % len(jobs)] for i in range(REQUESTS // CLIENTS)]
        rng.shuffle(mine)
        plans.append(mine)
    return plans


def _closed_loop(daemon: Daemon, plans: list[list[tuple[str, str]]],
                 recorder: harness.Recorder, parent) -> list[tuple]:
    """One client connection per plan, all at once; sorted by start."""
    outs: list[list] = [[] for _ in plans]
    threads = [threading.Thread(
        target=_client_loop,
        args=(daemon.socket, plan, 2, recorder, parent, out))
        for plan, out in zip(plans, outs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(item for out in outs for item in out)


def _ms(requests: list[tuple]) -> list[float]:
    return [(end - start) * 1e3 for start, end, *_rest in requests]


def _c_bytes(daemon: Daemon, cache_keys: dict) -> int:
    """LaminarIR C of the six keys, from the daemon's cache."""
    from repro.cache import ArtifactCache, service

    cache = ArtifactCache(daemon.cache)
    return sum(harness.c_size(cache.lookup(cache_keys[key, "laminar-c"])
                              .artifact(service.CODE_NAME).read_text())
               for key in KEYS)


def run(root, seed: int, seconds: float,
        recorder: harness.Recorder) -> harness.WorkloadResult:
    from repro.suite import load_benchmark

    tally = harness.Tally()
    expected = {key: harness.reference_checksum(load_benchmark(key),
                                                ITERATIONS) for key in KEYS}
    rng = random.Random(seed)
    host = harness.HostReference(root, "native")
    setup_host = harness.HostReference(root, "spawn")
    setups, raw_setups, rounds, factors, rss, c_bytes = [], [], [], [], \
        [], []
    loop_s = 0.0
    shed = 0
    daemon = None
    try:
        with recorder.span("bench.serve-hot") as top:
            for index in range(ROUNDS):
                started = time.perf_counter()
                before = setup_host.sample(SETUP_YARDSTICKS)
                with recorder.span("serve.setup"):
                    daemon, cache_keys = _setup(root / f"daemon-{index}",
                                                tally, expected)
                raw_setups.append(time.perf_counter() - started)
                setups.append(raw_setups[-1] * setup_host.factor(
                    before, setup_host.sample(SETUP_YARDSTICKS)))
                # The round runs in segments with the reference loop
                # between them; each segment's latencies are scaled by the
                # loops on either side of it.
                plans = _plans(rng)
                requests = []
                before = host.sample(2)
                for segment in range(SEGMENTS):
                    part = _closed_loop(daemon, [
                        plan[segment::SEGMENTS] for plan in plans],
                        recorder, top)
                    after = host.sample()
                    factors += [host.factor(before, after)] * len(part)
                    before = after
                    loop_s += max(end for _s, end, *_ in part) - part[0][0]
                    requests += part
                for _start, _end, key, backend, status, raw, _traced \
                        in requests:
                    _check_answer(tally, status, raw, key, backend,
                                  expected, hit=True)
                rounds.append(requests)
                shed += _scrape_shed(daemon.client().metrics())
                c_bytes.append(_c_bytes(daemon, cache_keys))
                tally.check(c_bytes[-1] == c_bytes[0],
                            f"round {index}: C of the keys changed size")
                if recorder.enabled and index == ROUNDS - 1:
                    transport_ms, _ = harness.timed_calls(
                        recorder, "serve.healthz", daemon.client().healthz,
                        HEALTHZ_REPEATS)
                rss.append(harness.high_water_rss_mb(daemon.proc.pid))
                code = daemon.stop()
                tally.check(code == 0, f"daemon exit status {code} after "
                            f"SIGTERM (not a clean drain):\n"
                            f"{daemon.log_tail()}")
            ledger_records = len(list(daemon.ledger.glob("*.json")))

            pooled = [item for requests in rounds for item in requests]
            ops = harness.Operations()
            for (start, end, key, backend, *_rest), factor in zip(
                    pooled, factors):
                if backend == "laminar-c":
                    ops.laminar.append((key, end - start))
                    ops.laminar_adj.append((key, (end - start) * factor))
                else:
                    ops.fifo.append((key, end - start))
                    ops.fifo_adj.append((key, (end - start) * factor))
            end_to_end, op_layer = harness.operation_metrics(ops, host,
                                                             pooled=True)
            latencies = _ms(pooled)
            report = [f"serve-hot: {ROUNDS} rounds of {REQUESTS} requests "
                      f"over {CLIENTS} clients, {len(latencies) / loop_s:.1f}"
                      f" req/s; all requests p50 "
                      f"{harness.median(latencies):.3f} ms, p99 "
                      f"{harness.percentile(latencies, 99):.3f} ms; "
                      f"laminar p50 {op_layer['op_us'] / 1e3:.3f} ms "
                      f"(adjusted {end_to_end['adj_op_us'] / 1e3:.3f}), fifo "
                      f"p50 {op_layer['fifo_op_us'] / 1e3:.3f} ms; reference "
                      f"loop {host.seconds:.4f} s; {ledger_records} ledger "
                      f"records in the last round, {shed} shed",
                      f"  setup {harness.median(raw_setups):.4f} s raw, "
                      f"{harness.median(setups):.4f} s adjusted (yardstick "
                      f"{setup_host.seconds:.4f} s)"]
            report += harness.per_program_report(ops, "ms", 1e3)
            if not recorder.enabled:
                return harness.WorkloadResult(metrics={
                    "setup_s": harness.median(setups),
                    "c_bytes": c_bytes[0],
                    "peak_rss_mb": harness.median(rss),
                    **end_to_end,
                }, tally=tally, report=report)

            metrics = _layer_probes(root, recorder, daemon, cache_keys,
                                    expected, tally)
    finally:
        if daemon is not None:
            daemon.kill()

    metrics.update(op_layer)
    traced_p50 = harness.median(_ms([r for r in pooled if r[-1]]))
    untraced_p50 = harness.median(_ms([r for r in pooled if not r[-1]]))
    report += harness.layer_report(recorder, [top])
    report.append(f"  /healthz round trip {transport_ms:.4f} ms")
    report.append(f"  tracing overhead: request p50 {traced_p50:.4f} ms "
                  f"traced - {untraced_p50:.4f} ms untraced = "
                  f"{traced_p50 - untraced_p50:+.4f} ms (alternate requests)")
    return harness.WorkloadResult(metrics=metrics, tally=tally,
                                  report=report)


def _scrape_shed(text: str) -> int:
    """Requests shed by admission control, from the OpenMetrics text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("repro_serve_shed_total"):
            total += float(line.rsplit(" ", 1)[1])
    return int(total)


def _layer_probes(root, recorder, daemon, cache_keys, expected,
                  tally) -> dict[str, float]:
    """The per-request layers on the daemon's own cache, ledger record and
    access record (after the daemon has stopped, so nothing else runs),
    and the build layers on the keys the daemon built in set-up."""
    from repro.cache import ArtifactCache
    from repro.suite import benchmark_source

    cache = ArtifactCache(daemon.cache)
    entries = {key: cache.lookup(cache_keys[key, "laminar-c"])
               for key in KEYS}
    body = json.loads(max(daemon.ledger.glob("*.json")).read_text())["body"]
    record = json.loads(daemon.access_log.read_text().splitlines()[-1])
    metrics = harness.probe_layers(root, recorder, cache, entries, expected,
                                   ITERATIONS, tally, body, record)

    builds = ArtifactCache(root / "probe-builds")
    counts = []
    with recorder.span("bench.builds"):
        for key in KEYS:
            for backend in BACKENDS:
                build = harness.traced_build(recorder, benchmark_source(key),
                                             key, backend, builds)
                tally.check(build.entry.key == cache_keys[key, backend],
                            f"{key} {backend}: traced build has another "
                            f"cache key than the daemon's")
                if build.opt_stats is not None:
                    counts.append(harness.opt_counts(build.opt_stats))
    metrics.update(harness.layer_timings(recorder))
    metrics.update(harness.count_metrics(counts))
    return metrics
