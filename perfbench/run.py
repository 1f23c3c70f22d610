"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload wire_fresh --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` lists ``wire_fresh`` and ``surge``; ``wire_replay``
runs the same way but is not in it (see ``perfbench/README.md``).

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any correctness failure
exits non-zero.  Full reports land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("wire_replay", "wire_fresh", "surge")
#: The correctness floor of the int8 serve path (``INT8_AGREEMENT_FLOOR``).
AGREEMENT_FLOOR = 0.98


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    from perfbench import report as reporting
    from perfbench.wire import BenchError

    started = time.perf_counter()
    try:
        if args.workload == "surge":
            from perfbench.surge import SurgeWorkload

            raw = SurgeWorkload(out_dir, args.seed, args.seconds,
                                bool(args.trace)).run()
        else:
            from perfbench.wire import SPECS, WireWorkload

            raw = WireWorkload(SPECS[args.workload], ROOT, out_dir, args.seed,
                               args.seconds, bool(args.trace)).run()
    except (BenchError, AssertionError) as exc:  # cannot measure at all
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        result = reporting.per_layer(raw, AGREEMENT_FLOOR)
        wanted = spec["per_layer"]
    else:
        result = reporting.end_to_end(raw, AGREEMENT_FLOOR)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(
        {"raw": raw, "result": result, "wall_s": time.perf_counter() - started},
        indent=1, default=str,
    ))
    for line in result["lines"]:
        print(line)
    for metric_name, metric in metrics.items():
        print(f"{metric_name} = {metric['value']:.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
