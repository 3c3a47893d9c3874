"""kuzlab benchmark: one workload, one seed, a fixed measuring window.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 30 --trace 0

The load is a closed loop from one process: each run is a fresh
``python3`` process executing one ``kuzlab`` subcommand on the generated
config, and the next run starts only after the previous one has ended.
Runs start while another one still fits in the window. With ``--trace 0`` every run is
untraced and the end-to-end metrics are medians over the runs. With
``--trace 1`` untraced and traced runs alternate; the per-layer metrics
come from the traced runs, ``trace.overhead_s`` is the difference of the
two medians, and the one-step probe table is added.

Every run's verdict is checked against its acceptance band; a run fails on
a nonzero exit code or a verdict outside the band. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Raw results, the environment block and the spans of the last traced run go
to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SAMPLE_TIMEOUT_S = 100.0
# The parent reads the step rule from the kuzlab sources it benchmarks.
sys.path.insert(0, str(SRC))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

LAYER_UNITS = {
    "fields.fft_calls": "count",
    "fields.fft_per_step": "count",
    "fields.fft_s": "s",
    "fields.op_calls": "count",
    "fields.op_self_s": "s",
    "fields.fft_bytes_computed": "B",
    "fields.fft_flops_computed": "flop",
    "dynamics.steps": "count",
    "dynamics.accel_evals": "count",
    "dynamics.step_self_s": "s",
    "dynamics.monitor_s": "s",
    "jets.build_calls": "count",
    "jets.build_s": "s",
    "gamma.apply_calls": "count",
    "gamma.apply_s": "s",
    "gamma.expand_hit_ratio": "ratio",
    "energies.report_calls": "count",
    "energies.report_s": "s",
    "energies.tower_s": "s",
    "energies.word_sweeps": "count",
    "experiments.runs": "count",
    "experiments.self_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "config.parse_s": "s",
    "config.initial_data_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
PROBE_CASES = [(s, n) for s in ("rk4", "imex") for n in (1, 2, 3)]
for _scheme, _n in PROBE_CASES:
    LAYER_UNITS[f"dynamics.step_fft_calls.{_scheme}_{_n}d"] = "count"
    LAYER_UNITS[f"dynamics.step_ms.{_scheme}_{_n}d"] = "ms"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # numpy's FFT is single-threaded; keep BLAS (used by the slope fit) so too.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # A fixed hash seed gives every run the same dict and set layouts.
    env["PYTHONHASHSEED"] = "0"
    return env


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_sample(workload: wl.Workload, cfg: dict, cfg_path: Path, out: Path, trace: bool, spans: Path | None) -> dict:
    """One run in a fresh process; returns its timings, check and step count."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec = {
        "src": str(SRC),
        "command": workload.command,
        "config": str(cfg_path),
        "out": str(out / "results"),
        "trace": trace,
        "spans": str(spans) if spans else None,
    }
    spec_path.write_text(json.dumps(spec))
    sample = {"trace": trace, "ok": False}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "sample.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample["detail"] = f"timed out after {SAMPLE_TIMEOUT_S} s"
        return sample
    if proc.returncode != 0 or not result_path.exists():
        sample["detail"] = f"sample process exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return sample
    sample.update(json.loads(result_path.read_text()))
    if sample["exit_code"] != 0:
        sample["detail"] = f"kuzlab exit {sample['exit_code']}: {proc.stderr.strip()[-500:]}"
        return sample
    ok, detail = wl.check_output(workload, cfg, out / "results")
    sample["ok"], sample["detail"] = ok, detail
    if ok:
        sample["steps"] = wl.accepted_steps(workload, cfg, out / "results")
        sample["steps_per_s"] = sample["steps"] / sample["wall_s"]
        sample["bytes_written"] = bytes_under(out / "results")
    return sample


def run_probe() -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), "--json"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    llc_level, llc_bytes = 0, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(str(index / "level")).strip(), _read(str(index / "size")).strip()
        if level.isdigit() and size[:-1].isdigit() and int(level) >= llc_level:
            scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
            llc_level, llc_bytes = int(level), int(size[:-1]) * scale
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc_level": llc_level,
        "llc_mib": llc_bytes / 2**20,
    }


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the window and return the result object plus the raw record."""
    workload = wl.WORKLOADS[workload_name]
    cfg = workload.config(seed)
    run_dir = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))

    # Untimed warm-up: compiles the package's bytecode and fills the file cache.
    subprocess.run(
        [sys.executable, "-c", "import kuzlab.cli"],
        cwd=ROOT, env=dict(child_env(), PYTHONPATH=str(SRC)), check=True, capture_output=True,
    )
    samples: list[dict] = []
    rounds: list[float] = []
    started = time.perf_counter()
    # A round is one run, or an untraced and a traced run in alternating
    # order, so that neither kind always follows the other. Another round
    # starts only if a round of median length still fits in the window.
    while not rounds or time.perf_counter() - started + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        order = ((False, True) if len(rounds) % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            index = len(samples)
            spans = run_dir / "spans.npz" if traced else None
            samples.append(run_sample(workload, cfg, cfg_path, run_dir / f"run{index}", traced, spans))
        rounds.append(time.perf_counter() - round_start)

    ok_runs = [s for s in samples if s["ok"]]
    failed = len(samples) - len(ok_runs)
    problems = [f"run {i}: {s['detail']}" for i, s in enumerate(samples) if not s["ok"]]
    self_test = (False, "no passing run to corrupt")
    if ok_runs:
        first = samples.index(ok_runs[0])
        self_test = wl.check_can_fail(workload, cfg, run_dir / f"run{first}" / "results")
    if not self_test[0]:
        problems.append(f"check self-test: {self_test[1]}")
    for i in range(len(samples)):
        shutil.rmtree(run_dir / f"run{i}" / "results", ignore_errors=True)

    plain = [s for s in ok_runs if not s["trace"]]
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "wall_s": median_of(plain, "wall_s") if plain else 0.0,
            "setup_s": median_of(plain, "setup_s") if plain else 0.0,
            "steps_per_s": median_of(ok_runs, "steps_per_s") if ok_runs else 0.0,
            "peak_rss_mb": median_of(plain, "peak_rss_mb") if plain else 0.0,
            "ok_frac": (len(samples) - failed) / len(samples),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        traced = [s for s in ok_runs if s["trace"]]
        values = {name: 0.0 for name in LAYER_UNITS}
        if traced:
            for name in traced[0]["layers"]:
                values[name] = statistics.median(s["layers"][name] for s in traced)
                # A deterministic program repeats every count exactly.
                seen = {s["layers"][name] for s in traced}
                if LAYER_UNITS[name] == "count" and len(seen) != 1:
                    problems.append(f"{name} differs across traced runs: {sorted(seen)}")
            values["io.bytes_written"] = median_of(traced, "bytes_written")
            if plain:
                values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        else:
            problems.append("no passing traced run")
        try:
            for row in run_probe():
                case = f"{row['scheme']}_{row['n']}d"
                values[f"dynamics.step_fft_calls.{case}"] = row["fft_calls"]
                values[f"dynamics.step_ms.{case}"] = row["ms"]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"one-step probe: {exc}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}

    env = environment()
    if samples and "numpy" in samples[0]:
        env["numpy"] = samples[0]["numpy"]
    field = wl.field_bytes(cfg)
    growth = [s["peak_rss_mb"] - s["rss_before_main_mb"] for s in plain]
    env["working_set"] = {
        "field_mib": field / 2**20,
        "field_vs_llc": field / (env["llc_mib"] * 2**20) if env["llc_mib"] else None,
        "rss_growth_in_run_mib": statistics.median(growth) if growth else None,
    }
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": cfg,
        "environment": env,
        "problems": problems,
        "self_test": self_test[1],
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kuzlab" / "__init__.py").is_file():
        print(f"kuzlab sources not found under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
