"""One-step probe: time and FFT calls of one ``step`` per scheme and grid.

Usage (from the repository root):

    python3 perfbench/probe.py [--json]

Kuznetsov, eps = 0.1, sine data of amplitude 0.01 on modes (1, ..., 1);
nu = 0 under RK4 and nu = 0.5 under IMEX, at the CFL step. The ms column is
the median of repeated untraced steps; the FFT column counts numpy FFT
calls in one traced step, so it is exact and the same on every machine.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

GRIDS = ((1, 256), (2, 128), (3, 64))
SCHEMES = (("rk4", 0.0), ("imex", 0.5))

# FFT calls per step at the baseline this benchmark was written against.
BASELINE_FFTS = {
    ("rk4", 1): 44, ("rk4", 2): 56, ("rk4", 3): 68,
    ("imex", 1): 46, ("imex", 2): 54, ("imex", 3): 62,
}

MIN_REPEATS = 5
MIN_SECONDS = 0.4


def probe(src: Path) -> list[dict]:
    sys.path.insert(0, str(src))
    from kuzlab import Grid, ModelKind, PhysicalParams, Scheme, SimState, SineMode, cfl_dt, materialize_preset
    from kuzlab import dynamics

    rows = []
    for n, points in GRIDS:
        grid = Grid.cube(n, points)
        state = SimState(*materialize_preset(SineMode(mode=(1,) * n, amplitude=0.01), grid))
        dt = cfl_dt(grid, 1.0)
        for scheme_name, nu in SCHEMES:
            scheme = Scheme(scheme_name)
            p = PhysicalParams(nu=nu, eps=0.1)

            def one_step():
                return dynamics.step(state, dt, p, ModelKind.KUZNETSOV, scheme)

            one_step()
            times = []
            started = time.perf_counter()
            while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
                t0 = time.perf_counter()
                one_step()
                times.append(time.perf_counter() - t0)
            tracer = Tracer().install("kuzlab")
            try:
                one_step()
            finally:
                tracer.uninstall()
            ffts = tracer.summary()["fields.fft_calls"]
            rows.append({
                "scheme": scheme_name,
                "n": n,
                "grid": "x".join([str(points)] * n),
                "ms": 1e3 * statistics.median(times),
                "repeats": len(times),
                "fft_calls": ffts,
                "baseline_fft_calls": BASELINE_FFTS[(scheme_name, n)],
            })
    return rows


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    rows = probe(root / "src")
    if "--json" in argv:
        print(json.dumps(rows))
        return 0
    print(f"{'scheme':<6} {'grid':<10} {'ms':>9} {'FFTs':>5} {'baseline':>8}")
    for r in rows:
        print(f"{r['scheme']:<6} {r['grid']:<10} {r['ms']:9.3f} {r['fft_calls']:5d} {r['baseline_fft_calls']:8d}")
    same = all(r["fft_calls"] == r["baseline_fft_calls"] for r in rows)
    print(f"FFT counts match the baseline: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
