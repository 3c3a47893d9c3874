"""Workload configs, output checks and step counts for the kuzlab benchmark.

Each workload is one ``kuzlab`` subcommand on a generated JSON config. The
seed only picks a mirror image of the data (the signs of a Fourier mode,
or a reflection of a Gaussian centre offset), so every seed has the same
physics, the same step count and the same checked verdict.

Generated configs name only the keys a workload needs. They leave out
``sweep.workers`` and the envelope constants ``D_m``, ``C1_stab``,
``C2_stab`` and ``C_n_klainerman``, which are due to be retired, so that
the benchmark runs unchanged once they are gone.

The checks use the acceptance bands of criteria 07, 09 and 11 as they
stand in the test suite; they add no tolerance of their own.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _sweep_config(rng: random.Random) -> dict:
    sign = rng.choice((1, -1))
    return {
        "model": "kuznetsov",
        "params": {"c": 1.0, "nu": 0.0, "eps": 0.1},
        "grid": {"n": 1, "points": 256},
        "preset": {"kind": "sine_mode", "mode": [sign], "amplitude": 0.5},
        "scheme": "rk4",
        "horizon": 400.0,
        "sweep": {"eps_list": [0.2, 0.1, 0.05, 0.025]},
    }


# Criterion 09-3d runs to t = 50 (about 109 s). The cut horizon keeps two
# report intervals of 20 steps, so the monotonicity check sees two steps
# of the theorem energy and a run takes a few seconds.
DECAY_HORIZON = 2.0


def _decay_config(rng: random.Random) -> dict:
    mode = [rng.choice((1, -1)) for _ in range(3)]
    return {
        "model": "kuznetsov",
        "params": {"c": 1.0, "nu": 1.0, "eps": 0.1},
        "grid": {"n": 3, "points": 64},
        "preset": {"kind": "sine_mode", "mode": mode, "amplitude": 0.5},
        "relative_to_threshold": True,
        "decay": {"m": 2},
        "scheme": "imex",
        "dt": 0.05,
        "horizon": DECAY_HORIZON,
        "report_every": 20,
    }


# Offset of the Gaussian centre from the origin. At t = 20 the support
# radius reaches 28.1 for a centred bump and 29.06 for this offset, against
# the monitor limit 0.4 * 80 = 32.
KLAINERMAN_OFFSET = (1.0, 0.5)


def _klainerman_config(rng: random.Random) -> dict:
    a, b = KLAINERMAN_OFFSET
    if rng.random() < 0.5:
        a, b = b, a
    center = [rng.choice((1, -1)) * a, rng.choice((1, -1)) * b]
    return {
        "model": "kuznetsov",
        "params": {"c": 1.0, "nu": 0.0, "eps": 0.1},
        "grid": {"n": 2, "points": 256, "lengths": 80.0, "origin_centered": True},
        "preset": {"kind": "zero_velocity_gaussian", "center": center, "width": 1.25, "amplitude": 0.01},
        "scheme": "rk4",
        "horizon": 20.0,
        "report_every": 8,
        "klainerman": {"m": 0},
    }


def _clean_rows(verdict: dict) -> list[dict]:
    return [r for r in verdict["rows"] if r["cause"] != "horizon_reached" and r["t_star"] is not None]


def _check_sweep(verdict: dict, cfg: dict) -> tuple[bool, str]:
    """Criterion 07: four clean rows and a log-log slope of -1 +/- 0.2."""
    clean = len(_clean_rows(verdict))
    slope = verdict.get("slope")
    ok = clean == 4 and slope is not None and abs(slope + 1.0) <= 0.2
    return ok, f"{clean}/4 clean rows, slope {slope}"


def _check_decay(verdict: dict, cfg: dict) -> tuple[bool, str]:
    """Criterion 09: the theorem energy is monotone and E_half stays bounded."""
    ok = verdict.get("monotone_ok") is True and verdict.get("bound_ok") is True
    return ok, f"monotone_ok {verdict.get('monotone_ok')}, bound_ok {verdict.get('bound_ok')}"


def _check_klainerman(verdict: dict, cfg: dict) -> tuple[bool, str]:
    """Criterion 11: horizon reached, every ratio > 0, quotient at t = 1 <= 10."""
    times, ratios = verdict["times"], verdict["ratios"]
    reached = bool(times) and math.isclose(times[-1], cfg["horizon"], rel_tol=1e-6)
    positive = bool(ratios) and all(r > 0.0 for r in ratios)
    quotient = verdict.get("boundedness_quotient_t1", math.inf)
    ok = reached and positive and quotient <= 10.0
    return ok, f"t_end {times[-1] if times else None}, all ratios > 0: {positive}, quotient {quotient:.6g}"


def _sweep_key(verdict: dict) -> tuple:
    return tuple((r["eps"], r["t_star"], r["cause"]) for r in verdict["rows"])


def _decay_key(verdict: dict) -> tuple:
    return verdict["monotone_ok"], verdict["bound_ok"]


def _klainerman_key(verdict: dict) -> tuple:
    times, ratios = verdict["times"], verdict["ratios"]
    return len(times), all(r > 0.0 for r in ratios), verdict.get("boundedness_quotient_t1", math.inf) <= 10.0


def _corrupt_sweep(verdict: dict) -> list[dict]:
    tainted = copy.deepcopy(verdict)
    tainted["rows"][0].update(cause="horizon_reached", t_star=None, scaled=None)
    flat = copy.deepcopy(verdict)
    flat["slope"] = -0.5
    return [tainted, flat]


def _corrupt_decay(verdict: dict) -> list[dict]:
    return [dict(verdict, monotone_ok=False), dict(verdict, bound_ok=False)]


def _corrupt_klainerman(verdict: dict) -> list[dict]:
    short = copy.deepcopy(verdict)
    short["times"][-1] = short["times"][-1] / 2.0
    zero = copy.deepcopy(verdict)
    zero["ratios"][-1] = 0.0
    spike = dict(verdict, boundedness_quotient_t1=11.0)
    return [short, zero, spike]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[random.Random], dict]
    check: Callable[[dict, dict], tuple[bool, str]]
    corruptions: Callable[[dict], list[dict]]
    verdict_key: Callable[[dict], tuple]

    def config(self, seed: int) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-1d",
            "sweep",
            _sweep_config,
            _check_sweep,
            _corrupt_sweep,
            _sweep_key,
        ),
        Workload(
            "decay-3d",
            "decay",
            _decay_config,
            _check_decay,
            _corrupt_decay,
            _decay_key,
        ),
        Workload(
            "klainerman-2d",
            "klainerman",
            _klainerman_config,
            _check_klainerman,
            _corrupt_klainerman,
            _klainerman_key,
        ),
    )
}


def output_dir(out_root: Path, workload: Workload) -> Path:
    return out_root / workload.command


def check_output(workload: Workload, cfg: dict, out_root: Path) -> tuple[bool, str]:
    """Check a finished run's verdict.json against the workload's band."""
    path = output_dir(out_root, workload) / "verdict.json"
    try:
        verdict = json.loads(path.read_text())
        return workload.check(verdict, cfg)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable verdict: {exc!r}"


def check_can_fail(workload: Workload, cfg: dict, out_root: Path) -> tuple[bool, str]:
    """Self-test: every corrupted copy of a passing verdict must fail the check."""
    verdict = json.loads((output_dir(out_root, workload) / "verdict.json").read_text())
    if not workload.check(verdict, cfg)[0]:
        return False, "the uncorrupted verdict does not pass"
    passed = [i for i, bad in enumerate(workload.corruptions(verdict)) if workload.check(bad, cfg)[0]]
    if passed:
        return False, f"corruptions {passed} passed the check"
    return True, f"{len(workload.corruptions(verdict))} corruptions rejected"


def step_size(out_root: Path, workload: Workload) -> float:
    """The uniform step kuzlab took, from the config it recorded with its outputs.

    The step is CFL-limited for RK4 and lands exactly on the horizon.
    """
    from kuzlab.config import parse_config
    from kuzlab.dynamics import Scheme, cfl_dt

    cfg = parse_config((output_dir(out_root, workload) / "config.json").read_text())
    dt = cfg.dt
    limit = cfl_dt(cfg.grid, cfg.params.c, cfg.cfl)
    if dt is None:
        dt = limit
    elif cfg.scheme is Scheme.EXPLICIT_RK4:
        dt = min(dt, limit)
    return cfg.horizon / max(1, math.ceil(cfg.horizon / dt - 1e-12))


def accepted_steps(workload: Workload, cfg: dict, out_root: Path) -> int:
    """Accepted steps from the outputs: final time of each run over the step size."""
    verdict = json.loads((output_dir(out_root, workload) / "verdict.json").read_text())
    dt = step_size(out_root, workload)
    if workload.command == "sweep":
        finals = [cfg["horizon"] if r["t_star"] is None else r["t_star"] for r in verdict["rows"]]
    else:
        finals = [verdict["times"][-1]]
    return sum(round(t / dt) for t in finals)


def field_bytes(cfg: dict) -> int:
    """Bytes of one real float64 field on the workload's grid."""
    points = cfg["grid"]["points"]
    return 8 * (math.prod(points) if isinstance(points, list) else points ** cfg["grid"]["n"])
