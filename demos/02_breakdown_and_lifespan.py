"""Finite-time breakdown and how its onset scales with the nonlinearity.

Quasilinear steepening drives Kuznetsov solutions toward gradient blowup;
the lab proxies the lifespan by the first tripped breakdown monitor (loss
of hyperbolicity, spectral tail pileup, or the divergence integral). A
single run shows the monitors in action; an epsilon sweep then fits the
log-log slope of the breakdown time, which should be near -1 in one space
dimension: halving the nonlinearity doubles the lifespan.

Run it directly: python demos/02_breakdown_and_lifespan.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from kuzlab import (
    Field,
    Grid,
    PhysicalParams,
    lifespan_sweep,
    read_reports_csv,
    run_until_breakdown,
    write_reports_csv,
)


def shape(grid: Grid) -> tuple[Field, Field]:
    x = grid.coordinate_mesh(0)
    return Field(grid, 0.5 * np.sin(x)), Field(grid, 0.5 * np.cos(x))


def main() -> None:
    grid = Grid.cube(1, 256)

    # 1. One run at a fairly strong nonlinearity, watching the report rows.
    p = PhysicalParams(nu=0.0, eps=0.2)
    reports, verdict = run_until_breakdown(
        shape(grid), p, horizon=50.0, report_every=100, e_m_orders=(1,)
    )
    print(f"single run at eps = {p.eps}:")
    print(f"  {'t':>7} {'E_wave':>10} {'E_1':>10} {'min hyp':>9}")
    for r in reports[:: max(1, len(reports) // 8)]:
        print(f"  {r.t:7.3f} {r.e_wave:10.6f} {r.e_m_value(1):10.6f} {r.min_hyp:9.5f}")
    print(f"  breakdown cause: {verdict.cause.value}, t* = {verdict.t_star:.3f}")

    # 2. The report rows serialize losslessly; round-trip them through CSV.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reports.csv"
        write_reports_csv(path, reports)
        again = read_reports_csv(path)
    print(f"  {len(again)} rows survive a CSV round trip bit-exactly: "
          f"{repr(again) == repr(tuple(reports))}")

    # 3. Sweep epsilon with the data shape held fixed and fit the slope.
    result = lifespan_sweep(shape(grid), [0.2, 0.1, 0.05], p, horizon=400.0)
    print("\nepsilon sweep:")
    print(f"  {'eps':>6} {'t*':>9} {'eps * t*':>9}  cause")
    for row in result.rows:
        print(f"  {row.eps:6.3f} {row.t_star:9.3f} {row.scaled:9.4f}  {row.cause.value}")
    print(f"  fitted log-log slope = {result.slope:.4f} (1/eps scaling -> -1)")


if __name__ == "__main__":
    main()
