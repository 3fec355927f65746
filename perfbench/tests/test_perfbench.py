"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``.

They check the benchmark's definition (``BENCHMARK.json`` against
``metric_map.json``), its span arithmetic, that it refuses to run
without the program sources, and the determinism it relies on: compiling
a program twice, and building it through the traced layer-by-layer path,
gives the same counts and the same C.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, run

BENCHMARK = json.loads((harness.CHECKOUT / "BENCHMARK.json").read_text())
METRIC_MAP = harness.load_metric_map()


def test_benchmark_json_matches_metric_map():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {key: entry[key] for key in ("name", "unit", "better", "bound")}
        for entry in METRIC_MAP["end_to_end"]]
    assert BENCHMARK["per_layer"] == [
        {key: entry[key] for key in ("name", "unit", "better")}
        for entry in METRIC_MAP["per_layer"]]
    names = [entry["name"] for entry in
             BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert len(BENCHMARK["per_layer"]) <= 128
    assert all(entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    assert max(BENCHMARK["end_to_end"], key=lambda e: e["bound"])[
        "bound"] == next(entry["bound"] for entry in BENCHMARK["end_to_end"]
                         if entry["name"] == "setup_s")


def test_every_end_to_end_metric_is_defined_on_every_workload():
    assert set(METRIC_MAP["operation"]) == set(run.WORKLOADS)
    for entry in METRIC_MAP["end_to_end"]:
        for workload in run.WORKLOADS:
            assert entry.get(workload) or entry.get("all"), \
                (entry["name"], workload)


def test_every_per_layer_metric_names_what_it_moves():
    end_to_end = {entry["name"] for entry in METRIC_MAP["end_to_end"]}
    for entry in METRIC_MAP["per_layer"]:
        assert entry["what"] and entry["moves"], entry["name"]
        for move in entry["moves"]:
            assert move["metric"] in end_to_end, entry
            assert move["workload"] in run.WORKLOADS, entry


def test_operation_metrics():
    class Host:
        seconds = 0.2

        def adjust(self, value):
            return value / 2

    ops = harness.Operations(
        laminar=[("a", 1.0), ("b", 4.0), ("a", 1.0), ("b", 4.0)],
        fifo=[("a", 2.0), ("b", 8.0), ("a", 2.0), ("b", 8.0)])
    end_to_end, per_layer = harness.operation_metrics(ops, Host(),
                                                      pooled=False)
    # Geomean of per-program medians: sqrt(1 * 4) = 2 s.
    assert end_to_end == {"adj_op_us": pytest.approx(1e6),
                          "speedup": pytest.approx(2.0)}
    assert per_layer["op_us"] == pytest.approx(2e6)
    assert per_layer["fifo_op_us"] == pytest.approx(4e6)
    assert per_layer["op_drift"] == pytest.approx(1.0)
    pooled, _ = harness.operation_metrics(ops, Host(), pooled=True)
    assert pooled["adj_op_us"] == pytest.approx(1.25e6)


def test_drift_compares_the_last_tenth_with_the_first():
    samples = [("a", 1.0)] * 10 + [("b", 2.0)] * 5 + [("a", 2.0)] * 10
    # a's median is 1.5: the first tenth sits at 2/3, the last at 4/3.
    assert harness.drift(samples) == pytest.approx(2.0)


def test_self_time_and_uncovered_share():
    recorder = harness.Recorder(enabled=True)
    root = harness.Span("bench.root", 0.0, None, index=0, end=10.0)
    recorder.spans.append(root)
    recorder.add("lir.lower", 1.0, 5.0, parent=root)
    lower = recorder.spans[-1]
    recorder.add("opt.optimize", 2.0, 3.0, parent=lower)
    recorder.add("backend.cc", 4.0, 6.0, parent=root)
    recorder.add("bench.other", 8.0, 9.0, parent=root)
    assert recorder.self_times() == {"repro.lir": 3.0, "repro.opt": 1.0,
                                     "repro.backend": 2.0}
    # Layer spans cover [1, 6]; the rest of the 10 s is uncovered.
    assert recorder.uncovered_share([root]) == pytest.approx(0.5)
    assert recorder.total("lir.lower") == 4.0
    assert recorder.total("opt.optimize", under="lir.lower") == 1.0


def test_disabled_recorder_records_nothing():
    recorder = harness.Recorder(enabled=False)
    with recorder.span("lir.lower") as span:
        assert span is None
    recorder.add("lir.lower", 0.0, 1.0)
    assert recorder.spans == []


def test_canonical_c_renumbers_temps_only():
    first = "static f64 t53; t53 = t54 + t53; int tx; t54;"
    second = "static f64 t116; t116 = t117 + t116; int tx; t117;"
    assert harness.canonical_c(first) == harness.canonical_c(second) \
        == "static f64 t0; t0 = t1 + t0; int tx; t1;"
    assert harness.canonical_c("t1 = t2;") != harness.canonical_c("t1 = t1;")


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert harness.percentile(values, 99) == 990
    assert harness.percentile(values, 50) == 500
    assert harness.geomean([1.0, 4.0]) == pytest.approx(2.0)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(harness.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


@pytest.fixture
def root():
    with harness.hermetic_root() as path:
        yield path


needs_cc = pytest.mark.skipif(shutil.which("cc") is None
                              and shutil.which("gcc") is None,
                              reason="no C compiler")


@needs_cc
@pytest.mark.parametrize("name", ["lattice", "fft"])
def test_recompile_and_traced_build_match_the_first_compile(root, name):
    from repro.api import compile_source
    from repro.cache import ArtifactCache, service
    from repro.suite import benchmark_source

    source = benchmark_source(name)
    stream = compile_source(source, name)
    entry, hit = service.ensure_native(stream,
                                       cache=ArtifactCache(root / "a"))
    assert not hit
    first = entry.artifact(service.CODE_NAME).read_text()
    counts = harness.opt_counts(stream.lower().opt_stats)

    again = compile_source(source, name)
    assert harness.canonical_c(again.laminar_c()) \
        == harness.canonical_c(first)
    assert harness.opt_counts(again.lower().opt_stats) == counts

    build = harness.traced_build(harness.Recorder(enabled=True), source,
                                 name, "laminar-c", ArtifactCache(root / "b"))
    assert harness.canonical_c(build.code) == harness.canonical_c(first)
    assert harness.opt_counts(build.opt_stats) == counts
    assert build.entry.key == entry.key


@pytest.mark.xfail(strict=True, reason="temps are numbered from a "
                   "process-wide counter (repro.lir.ops), so a second "
                   "compile in one process renames them")
def test_recompile_in_one_process_emits_identical_bytes():
    from repro.api import compile_source
    from repro.suite import benchmark_source

    source = benchmark_source("lattice")
    assert compile_source(source).laminar_c() \
        == compile_source(source).laminar_c()


@pytest.mark.xfail(strict=True, reason="ArtifactCache.publish runs gc, "
                   "which deletes every staging directory under tmp/, "
                   "including one another publisher is still filling")
def test_publish_leaves_other_publishers_staging_alone(root):
    from repro.cache import ArtifactCache

    cache = ArtifactCache(root / "cache")
    in_flight = cache.tmp_dir / "in-flight"
    in_flight.mkdir(parents=True)
    (in_flight / "prog").write_text("half-written")
    cache.publish("0" * 64, {"backend": "laminar-c"},
                  artifacts={"prog.c": "int main(void) { return 0; }\n"})
    assert (in_flight / "prog").exists()
