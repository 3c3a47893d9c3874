"""Print every benchmark metric of every workload by name, with its unit.

Usage (from the repository root):

    python3 perfbench/report.py

Runs each workload untraced (end-to-end metrics) and traced (per-layer
metrics and the one-step probe) with seed 0 and the ``run_seconds`` window
of BENCHMARK.json, checks every run's output, prints one line per metric
and writes everything to perfbench/_work/report.json. Takes about
2 x (run_seconds + 15 s) per workload.
"""

from __future__ import annotations

import json

import run
import workloads as wl


# Every seed gives the same work and the same verdict; see workloads.py.
SEED = 0


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = []
    correct = True
    for name in wl.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, SEED, seconds, trace)
            records.append(record)
            result = record["result"]
            correct = correct and result["correct"]
            print(f"# {name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for problem in record["problems"]:
                print(f"#   problem: {problem}")
            for metric, value in result["metrics"].items():
                print(f"{name:<14} {metric:<34} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps({"environment": records[0]["environment"]}))
    (run.WORK / "report.json").write_text(json.dumps(records, indent=2))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
