"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile|native|serve-hot \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  A report goes to
standard error; the traced run also writes its spans to
``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

WORKLOADS = ("compile", "native", "serve-hot")


def _workload_module(name: str):
    if name == "compile":
        from perfbench import compile_workload as module
    elif name == "native":
        from perfbench import native_workload as module
    else:
        from perfbench import serve_workload as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not harness.have_sources():
        print(f"perfbench: no program sources at {harness.SRC / 'repro'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))

    metric_map = harness.load_metric_map()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in
                harness.declared_metrics(metric_map, kind)}

    # A terminated run still stops its daemon and deletes its root:
    # SystemExit unwinds through the workload's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    recorder = harness.Recorder(enabled=bool(args.trace))
    with harness.hermetic_root() as root:
        result = _workload_module(args.workload).run(
            root, args.seed, args.seconds, recorder)
    if recorder.spans:
        recorder.dump(harness.WORK_DIR
                      / f"trace-{args.workload}-seed{args.seed}.json",
                      recorder.spans[0])

    for line in result.report:
        print(line, file=sys.stderr)
    tally = result.tally
    print(f"{args.workload}: {tally.attempted} operations, "
          f"{tally.failed} failed (error rate "
          f"{tally.failed / max(1, tally.attempted):.4f})", file=sys.stderr)
    for problem in tally.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)

    missing = sorted(set(declared) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(declared))
    if missing or extra:
        print(f"perfbench: metrics disagree with metric_map.json: "
              f"missing {missing}, undeclared {extra}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
