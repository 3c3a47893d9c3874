"""Self-test of the benchmark's output checks and seeded mirror images.

Usage (from the repository root):

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload, every distinct mirror image the seeds can pick is run
once. The test passes when every run passes its check, every corrupted
copy of a passing verdict fails the check, and all mirror images give the
same verdict. It also checks that BENCHMARK.json names the same
workloads and metrics, with the same units, as the benchmark reports.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl

SEEDS_SCANNED = 64


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs: {sorted(set(listed.items()) ^ set(units.items()))}")
    return problems


def mirror_images(workload: wl.Workload) -> dict[str, int]:
    """Distinct generated configs (as JSON text) and the first seed giving each."""
    images: dict[str, int] = {}
    for seed in range(SEEDS_SCANNED):
        images.setdefault(json.dumps(workload.config(seed), sort_keys=True), seed)
    return images


def test_workload(workload: wl.Workload) -> list[str]:
    problems = []
    keys = {}
    work = run.WORK / f"selftest-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for text, seed in mirror_images(workload).items():
        cfg = json.loads(text)
        cfg_path = work / f"config-seed{seed}.json"
        cfg_path.write_text(text)
        out = work / f"seed{seed}"
        sample = run.run_sample(workload, cfg, cfg_path, out, trace=False, spans=None)
        print(f"{workload.name} seed {seed} {cfg['preset']}: ok={sample['ok']} {sample.get('detail', '')}")
        if not sample["ok"]:
            problems.append(f"{workload.name} seed {seed}: {sample.get('detail')}")
            continue
        results = out / "results"
        can_fail, detail = wl.check_can_fail(workload, cfg, results)
        if not can_fail:
            problems.append(f"{workload.name} seed {seed}: check self-test: {detail}")
        verdict = json.loads((wl.output_dir(results, workload) / "verdict.json").read_text())
        keys[seed] = workload.verdict_key(verdict)
        shutil.rmtree(results, ignore_errors=True)
    if len(set(keys.values())) > 1:
        problems.append(f"{workload.name}: mirror images disagree: {keys}")
    else:
        print(f"{workload.name}: {len(keys)} mirror images, one verdict {next(iter(keys.values()), None)}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or sorted(wl.WORKLOADS)
    problems = check_manifest()
    for name in names:
        problems += test_workload(wl.WORKLOADS[name])
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
