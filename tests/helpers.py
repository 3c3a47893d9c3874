"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from kuzlab import Field, Grid, dealias, fields


def band_limited_field(
    grid: Grid, rng: np.random.Generator, amplitude: float = 0.1
) -> Field:
    """Random smooth field: white noise pushed through the dealias filter.

    The spectrum is confined to |j_i| <= N_i/3, so spectral derivatives stay
    well scaled and quadratic products remain alias-free after one filter.
    """
    raw = Field(grid, rng.standard_normal(grid.shape))
    smooth = dealias(raw)
    peak = float(np.max(np.abs(smooth.values)))
    if peak == 0.0:
        return smooth
    return Field(grid, (amplitude / peak) * smooth.values)


def single_mode(grid: Grid, mode: tuple[int, ...], amplitude: float = 1.0) -> Field:
    """amplitude * sin(sum_i 2 pi mode_i x_i / L_i) sampled on the grid."""
    phase = np.zeros(grid.shape)
    for axis in range(grid.n):
        k = 2.0 * np.pi * mode[axis] / grid.lengths[axis]
        phase = phase + k * grid.coordinate_mesh(axis)
    return Field(grid, amplitude * np.sin(phase))


def count_ffts(monkeypatch) -> dict[str, int]:
    """From here on, count the library's real transforms: forward and inverse.

    Puts a fresh dict in place of the transform pair's own counters, which
    count one per transform, and returns it; after monkeypatch.undo() it
    keeps what it counted and the library counts into its running totals
    again.
    """
    counts = {"forward": 0, "inverse": 0}
    monkeypatch.setattr(fields, "transform_counts", counts)
    return counts
