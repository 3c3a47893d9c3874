"""Shared construction helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from kuzlab import Field, Grid, dealias, fields, l2_norm, spatial_derivative


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


def mean_zero_project(f: Field, axis: int = 0) -> Field:
    """Remove the per-line mean along one axis.

    The output integrates to zero along every line in the given periodic
    direction, the class in which the Poincare inequality restores L^2
    control.
    """
    if not 0 <= axis < f.grid.n:
        raise IndexError(f"axis {axis} out of range for dimension {f.grid.n}")
    return Field(f.grid, f.values - f.values.mean(axis=axis, keepdims=True))


def poincare_check(
    f: Field, axis: int = 0, mean_tol: float = 1e-10
) -> tuple[float, float, float]:
    """Evaluate both sides of the Poincare inequality along one axis.

    Returns
    -------
    (lhs, rhs, constant) : tuple of float
        lhs = ||f||_{L^2}, rhs = ||d f/d x_axis||_{L^2}, and the sharp
        periodic constant L_axis/(2 pi); asserts lhs <= constant * rhs.

    Raises
    ------
    ValueError
        If f is not mean-zero along the axis (relative to its amplitude).
    """
    scale = float(np.max(np.abs(f.values), initial=0.0))
    mean = float(np.max(np.abs(f.values.mean(axis=axis))))
    if mean > mean_tol * max(scale, 1.0):
        raise ValueError(
            f"per-line mean {mean:.3e} along axis {axis} exceeds tolerance; "
            "apply mean_zero_project first"
        )
    lhs = l2_norm(f)
    rhs = l2_norm(spatial_derivative(f, axis, 1))
    constant = f.grid.lengths[axis] / (2.0 * math.pi)
    if lhs > constant * rhs * (1.0 + 1e-9) + 1e-300:
        raise AssertionError(
            f"Poincare inequality violated: {lhs:.12e} > {constant:.6g} * {rhs:.12e}"
        )
    return lhs, rhs, constant
