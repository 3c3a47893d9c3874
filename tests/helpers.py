"""Shared construction helpers and reference evaluations for the test suite.

spatial_derivative and shift_space differentiate on numpy.fft, not on the
library's transform pair, so that they stay independent of what they check.
apply_gamma and shift_time reuse the library's term loop and held transforms,
which the Klainerman sweep's bitwise checks need.
"""

from __future__ import annotations

import math

import numpy as np

from kuzlab import Field, Grid, fields
from kuzlab.gamma import GammaIndex, _term_factors, _word_values, expand_gamma
from kuzlab.jets import Jet, MultiIndex, apply_multi_derivative


def band_limited_field(
    grid: Grid, rng: np.random.Generator, amplitude: float = 0.1
) -> Field:
    """Random smooth field: white noise pushed through the dealias filter.

    The spectrum is confined to |j_i| <= N_i/3, so spectral derivatives stay
    well scaled and quadratic products remain alias-free after one filter.
    """
    smooth = fields.dealias_values(grid, rng.standard_normal(grid.shape))
    peak = float(np.max(np.abs(smooth)))
    if peak == 0.0:
        return Field(grid, smooth)
    return Field(grid, (amplitude / peak) * smooth)


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
    lhs = math.sqrt(fields._l2_sq(f.grid, f.values))
    rhs = math.sqrt(fields._l2_sq(f.grid, spatial_derivative(f, axis, 1).values))
    constant = f.grid.lengths[axis] / (2.0 * math.pi)
    if lhs > constant * rhs * (1.0 + 1e-9) + 1e-300:
        raise AssertionError(
            f"Poincare inequality violated: {lhs:.12e} > {constant:.6g} * {rhs:.12e}"
        )
    return lhs, rhs, constant


def spatial_derivative(f: Field, axis: int, order: int = 1) -> Field:
    """d^order/dx_axis^order of f by numpy.fft's complex transform along the axis.

    The coefficients are multiplied by (i k_axis)^order; odd orders zero the
    axis Nyquist mode, so that the result is real, and even orders keep it.
    """
    grid = f.grid
    points = grid.points[axis]
    mult = (2j * math.pi / grid.lengths[axis] * np.fft.fftfreq(points, 1.0 / points)) ** order
    if order % 2 == 1:
        mult[points // 2] = 0.0
    shape = [1] * grid.n
    shape[axis] = points
    spec = np.fft.fft(f.values, axis=axis) * mult.reshape(shape)
    return Field(grid, np.fft.ifft(spec, axis=axis).real)


def shift_time(jet: Jet) -> Jet:
    """Jet of w = d_t u: drops the lowest layer, keeping the transforms and
    gradients the jet holds for the others."""
    jet.require(1, "a shift in time")
    shifted = Jet(jet.grid, jet.layers[1:])
    shifted._spectra.update((i - 1, s) for i, s in jet._spectra.items() if i >= 1)
    shifted._gradients.update((i - 1, g) for i, g in jet._gradients.items() if i >= 1)
    return shifted


def shift_space(jet: Jet, axis: int) -> Jet:
    """Jet of w = d_{x_axis} u: differentiates every layer."""
    return Jet(jet.grid, tuple(spatial_derivative(layer, axis) for layer in jet.layers))


def apply_gamma(jet: Jet, t: float, index: GammaIndex) -> Field:
    """Gamma^word u on the jet at time t, as a checked Field: the word's
    expansion through the term loop the Klainerman sweep runs, each distinct
    D^A u formed once by apply_multi_derivative.

    Needs an origin-centered grid (the coordinate weights x_i mean something
    only there) and a jet that reaches every d_t power of the expansion.
    """
    grid = jet.grid
    if index.n != grid.n:
        raise ValueError(f"word dimension {index.n} != grid dimension {grid.n}")
    terms = expand_gamma(index)
    needed = max((term.derivative.time_order for term in terms), default=0)
    if needed > jet.order:
        raise ValueError(f"word {index} needs jet order {needed}, jet has {jet.order}")
    plan = _term_factors(grid, t, terms)
    keys = {key for key, _ in plan}
    memo = {key: apply_multi_derivative(jet, MultiIndex(key)).values for key in keys}
    return Field(grid, _word_values(plan, memo, np.empty(grid.shape), np.empty(grid.shape)))
