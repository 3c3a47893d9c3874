"""Spectral calculus on periodic grids: exactness, Parseval, projections."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzlab import Field, Grid, NonFiniteFieldError, linf_norm
from kuzlab.dynamics import (
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    cfl_dt,
    solve_linear_forced,
    step,
)
from kuzlab.energies import klainerman_record, make_report
from kuzlab.fields import (
    _l2_sq,
    _quadrature,
    _to_physical,
    _to_spectral,
    dealias_values,
    gradient_values,
    laplacian_values,
)
from kuzlab.jets import Jet, MultiIndex, apply_multi_derivative, build_jet
from helpers import (
    band_limited_field,
    mean_zero_project,
    poincare_check,
    single_mode,
    spatial_derivative,
)


def _sobolev_norm(grid: Grid, values: np.ndarray, s: float) -> float:
    """The discrete H^s norm: the square root of the box-measure quadrature."""
    return math.sqrt(_quadrature(grid, _to_spectral(grid, values), s))


def _l2_norm(grid: Grid, values: np.ndarray) -> float:
    return math.sqrt(_l2_sq(grid, values))


class TestGrid:
    def test_cube_geometry(self) -> None:
        grid = Grid.cube(2, 32, length=4.0)
        assert grid.n == 2
        assert grid.shape == (32, 32)
        assert grid.spectral_shape == (32, 17)
        assert grid.box_volume == pytest.approx(16.0)
        assert grid.cell_volume == pytest.approx(16.0 / 1024)
        assert grid.spacings == (0.125, 0.125)

    def test_origin_centered_coordinates(self) -> None:
        grid = Grid.cube(1, 16, length=8.0, origin_centered=True)
        x = grid.axis_coordinates(0)
        assert x[0] == pytest.approx(-4.0)
        assert np.all(x < 4.0)
        assert 0.0 in x

    def test_rejects_non_power_of_two(self) -> None:
        with pytest.raises(ValueError):
            Grid(lengths=(1.0,), points=(48,), origin_centered=False)

    def test_rejects_mismatched_lengths(self) -> None:
        with pytest.raises(ValueError):
            Grid(lengths=(1.0, 2.0), points=(16,), origin_centered=False)

    def test_wavenumbers_match_mode_indices(self) -> None:
        grid = Grid.cube(1, 16, length=4.0)
        np.testing.assert_allclose(
            grid.wavenumbers(0), 2.0 * np.pi * grid.mode_indices(0) / 4.0
        )

    def test_hermitian_weight_counts_conjugate_pairs(self) -> None:
        grid = Grid.cube(1, 8)
        w = grid.hermitian_weight
        assert w[0] == 1.0
        assert w[-1] == 1.0
        assert np.all(w[1:-1] == 2.0)

    def test_dealias_mask_keeps_lower_third(self) -> None:
        grid = Grid.cube(1, 32)
        j = np.abs(grid.mode_indices(0))
        np.testing.assert_array_equal(grid.dealias_mask, j <= 32 / 3)

    def test_resolved_tail_mask_is_outer_third_of_kept_band(self) -> None:
        grid = Grid.cube(1, 32)
        j = np.abs(grid.mode_indices(0))
        expected = (j <= 32 / 3) & (j > 2 * 32 / 9)
        np.testing.assert_array_equal(grid.resolved_tail_mask, expected)


class TestField:
    def test_rejects_non_finite(self) -> None:
        grid = Grid.cube(1, 8)
        bad = np.zeros(8)
        bad[3] = np.inf
        with pytest.raises(NonFiniteFieldError):
            Field(grid, bad)

    def test_values_immutable(self) -> None:
        f = Field.zeros(Grid.cube(1, 8))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestDerivatives:
    def test_sine_derivative_exact(self) -> None:
        """Single Fourier modes differentiate to machine precision."""
        grid = Grid.cube(1, 64, length=2.0 * math.pi)
        df = gradient_values(grid, np.sin(grid.coordinate_mesh(0)))[0]
        np.testing.assert_allclose(df, np.cos(grid.coordinate_mesh(0)), atol=1e-13)

    def test_high_order_sine_derivative(self) -> None:
        grid = Grid.cube(1, 64)
        f = single_mode(grid, (3,), 1.0)
        d2 = apply_multi_derivative(Jet(grid, (f,)), MultiIndex((0, 2)))
        np.testing.assert_allclose(d2.values, -9.0 * f.values, atol=1e-11)

    def test_laplacian_matches_second_derivatives(self) -> None:
        grid = Grid.cube(2, 32, length=3.0)
        rng = np.random.default_rng(11)
        f = band_limited_field(grid, rng)
        direct = laplacian_values(grid, f.values)
        summed = (
            spatial_derivative(f, 0, 2).values + spatial_derivative(f, 1, 2).values
        )
        np.testing.assert_allclose(direct, summed, atol=1e-12)

    def test_gradient_components(self) -> None:
        grid = Grid.cube(2, 32)
        rng = np.random.default_rng(12)
        f = band_limited_field(grid, rng)
        g = gradient_values(grid, f.values)
        assert len(g) == 2
        np.testing.assert_allclose(g[0], spatial_derivative(f, 0).values)
        np.testing.assert_allclose(g[1], spatial_derivative(f, 1).values)

    def test_derivative_axis_out_of_range(self) -> None:
        """A derivative along an axis the grid lacks is refused: the multi-index
        of a mixed derivative must have one spatial slot per axis."""
        f = Field.zeros(Grid.cube(1, 8))
        with pytest.raises(ValueError, match="spatial slots"):
            apply_multi_derivative(Jet(f.grid, (f,)), MultiIndex((0, 0, 1)))


class TestNorms:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_parseval_identity(self, seed: int) -> None:
        """H^0 norm equals the quadrature L^2 norm for arbitrary data."""
        grid = Grid.cube(2, 16, length=5.0)
        rng = np.random.default_rng(seed)
        f = Field(grid, rng.standard_normal(grid.shape))
        assert _sobolev_norm(grid, f.values, 0.0) == pytest.approx(_l2_norm(grid, f.values), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        s1=st.floats(0.0, 6.0),
        s2=st.floats(0.0, 6.0),
    )
    def test_sobolev_monotone_in_order(self, seed: int, s1: float, s2: float) -> None:
        grid = Grid.cube(1, 32)
        rng = np.random.default_rng(seed)
        f = band_limited_field(grid, rng)
        lo, hi = sorted((s1, s2))
        assert _sobolev_norm(grid, f.values, lo) <= _sobolev_norm(grid, f.values, hi) * (1.0 + 1e-12)

    def test_sobolev_norm_single_mode_closed_form(self) -> None:
        """||sin(kx)||_{H^s}^2 = (L/2) (1 + k^2)^s on the 2 pi box."""
        grid = Grid.cube(1, 64)
        for mode, s in [(1, 0.0), (2, 1.0), (3, 2.5)]:
            f = single_mode(grid, (mode,), 1.0)
            expected = math.sqrt(math.pi * (1.0 + mode**2) ** s)
            assert _sobolev_norm(grid, f.values, s) == pytest.approx(expected, rel=1e-12)

    def test_linf_norm(self) -> None:
        grid = Grid.cube(1, 32)
        f = single_mode(grid, (1,), 0.7)
        assert linf_norm(f) == pytest.approx(0.7, rel=1e-12)


class TestDealias:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent_and_contractive(self, seed: int) -> None:
        """A second filter pass changes nothing beyond FFT roundoff.

        Exact idempotence lives on the spectral side: after one pass, every
        coefficient outside the kept band is identically zero.
        """
        grid = Grid.cube(2, 16)
        rng = np.random.default_rng(seed)
        f = Field(grid, rng.standard_normal(grid.shape))
        once = dealias_values(grid, f.values)
        twice = dealias_values(grid, once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-13)
        spec = np.fft.rfftn(once) / grid.total_points
        assert np.max(np.abs(spec[~grid.dealias_mask])) < 1e-15
        assert _l2_norm(grid, once) <= _l2_norm(grid, f.values) * (1.0 + 1e-12)

    def test_kills_high_modes_keeps_low(self) -> None:
        grid = Grid.cube(1, 32)
        low = single_mode(grid, (3,))
        high = single_mode(grid, (14,))
        both = Field(grid, low.values + high.values)
        filtered = dealias_values(grid, both.values)
        np.testing.assert_allclose(filtered, low.values, atol=1e-12)


class TestMeanZeroAndPoincare:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), axis=st.integers(0, 1))
    def test_projection_idempotent_and_kills_mean(self, seed: int, axis: int) -> None:
        grid = Grid.cube(2, 16, length=3.0)
        rng = np.random.default_rng(seed)
        f = Field(grid, rng.standard_normal(grid.shape))
        proj = mean_zero_project(f, axis)
        assert np.max(np.abs(proj.values.mean(axis=axis))) < 1e-14
        again = mean_zero_project(proj, axis)
        np.testing.assert_allclose(again.values, proj.values, atol=1e-15)

    def test_poincare_saturates_on_lowest_mode(self) -> None:
        """The sharp constant L/(2 pi) is attained by the first harmonic."""
        grid = Grid.cube(1, 64, length=5.0)
        f = single_mode(grid, (1,))
        lhs, rhs, constant = poincare_check(f)
        assert constant == pytest.approx(5.0 / (2.0 * math.pi), rel=1e-14)
        assert lhs == pytest.approx(constant * rhs, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_poincare_holds_for_projected_noise(self, seed: int) -> None:
        grid = Grid.cube(1, 64, length=7.0)
        rng = np.random.default_rng(seed)
        f = mean_zero_project(Field(grid, rng.standard_normal(grid.shape)))
        lhs, rhs, constant = poincare_check(f)
        assert lhs <= constant * rhs * (1.0 + 1e-9)

    def test_poincare_rejects_nonzero_mean(self) -> None:
        grid = Grid.cube(1, 32)
        f = Field(grid, np.ones(32))
        with pytest.raises(ValueError):
            poincare_check(f)


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_gradient_weight_matches_grid_gradients(self, n: int, s: float) -> None:
        """m = gradient_weight gives sum_i ||d_i f||_{H^s}^2 of the grid gradients,
        which drop each axis's Nyquist mode."""
        grid = Grid((5.0, 3.0, 7.0)[:n], (16, 8, 16)[:n])
        # Noise plus a sign flip from point to point along each axis: its Nyquist mode.
        flips = sum((-1.0) ** j for j in np.indices(grid.shape))
        values = np.random.default_rng(3).standard_normal(grid.shape) + flips
        spec = _to_spectral(grid, values)
        expected = sum(_sobolev_norm(grid, g, s) ** 2 for g in gradient_values(grid, values))
        assert _quadrature(grid, spec, s, grid.gradient_weight) == pytest.approx(expected, rel=1e-13)
        # The Nyquist modes matter: keeping them misses by far more than roundoff.
        assert _quadrature(grid, spec, s, grid.k_squared) > expected * (1.0 + 1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k_fourth_weight_is_laplacian_norm(self, n: int) -> None:
        grid = Grid.cube(n, 8, length=3.0)
        f = Field(grid, np.random.default_rng(5).standard_normal(grid.shape))
        got = _quadrature(grid, _to_spectral(grid, f.values), weight=grid.k_squared**2)
        assert got == pytest.approx(_l2_norm(grid, laplacian_values(grid, f.values)) ** 2, rel=1e-13)


class TestTransformPair:
    @pytest.mark.parametrize("members", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_is_bitwise_numpy_nd_pair(self, n: int, members: tuple[int, ...]) -> None:
        """The pair gives rfftn's and irfftn's bits, unstacked and stacked, on raw
        noise: a spectrum that is not Hermitian and carries Nyquist content."""
        grid = Grid.cube(n, 16)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(members + grid.shape)
        np.testing.assert_array_equal(_to_spectral(grid, x), np.fft.rfftn(x, axes=grid.axes))
        shape = members + grid.spectral_shape
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.fft.irfftn(spec, s=grid.shape, axes=grid.axes)
        np.testing.assert_array_equal(_to_physical(grid, spec), expected)
        np.testing.assert_array_equal(_to_physical(grid, spec.copy(), consume=True), expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverse_leaves_its_argument(self, n: int) -> None:
        grid = Grid.cube(n, 16)
        rng = np.random.default_rng(5)
        spec = _to_spectral(grid, rng.standard_normal((3,) + grid.shape))
        kept = spec.copy()
        _to_physical(grid, spec)
        np.testing.assert_array_equal(spec, kept)

    def test_forward_allocates_only_the_spectrum(self) -> None:
        """rfftn allocates one array per axis pass (2.01x the spectrum's bytes
        at peak on 32^3); the pair writes its complex passes in place."""
        grid = Grid.cube(3, 32)
        x = np.random.default_rng(6).standard_normal(grid.shape)
        tracemalloc.start()
        try:
            spec = _to_spectral(grid, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * spec.nbytes

    def test_consuming_inverse_allocates_only_the_field(self) -> None:
        grid = Grid.cube(3, 32)
        spec = _to_spectral(grid, np.random.default_rng(7).standard_normal(grid.shape))
        tracemalloc.start()
        try:
            values = _to_physical(grid, spec, consume=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * values.nbytes

    @staticmethod
    def _every_transform_path(monkeypatch, names: tuple[str, ...]) -> None:
        """With the named numpy.fft functions refusing, run in every dimension
        steps, reports with towers, jets, Klainerman records, the forced solver
        and the array-level operations."""

        def refuse(*args, **kwargs):
            raise RuntimeError("numpy.fft wrapper called from the library")

        for name in names:
            monkeypatch.setattr(np.fft, name, refuse)
        for n in (1, 2, 3):
            grid = Grid.cube(n, 32 if n == 1 else 8, length=8.0, origin_centered=True)
            rng = np.random.default_rng(9)
            state = SimState(band_limited_field(grid, rng, 0.1), band_limited_field(grid, rng, 0.1))
            p = PhysicalParams(nu=0.5)
            f = state.u
            for scheme in Scheme:
                step(state, 0.5 * cfl_dt(grid, p.c), p, ModelKind.KUZNETSOV, scheme)
            make_report(state, p, e_m_orders=(0, 2), half_m=2)
            klainerman_record(build_jet(state, p, 4), state.t, 0)
            solve_linear_forced(f, state.v, lambda t: Field(grid, math.cos(t) * f.values), 0.5, p)
            for order in (1, 2):
                apply_multi_derivative(Jet(grid, (f,)), MultiIndex((0, order) + (0,) * (n - 1)))
            laplacian_values(grid, f.values)
            gradient_values(grid, f.values)
            dealias_values(grid, f.values)
            _sobolev_norm(grid, f.values, 1.5)

    def test_one_dimensional_paths_skip_nd_transforms(self, monkeypatch) -> None:
        """In every dimension the library makes its transforms from one real
        pass and complex passes, never rfftn/irfftn."""
        self._every_transform_path(monkeypatch, ("rfftn", "irfftn"))

    def test_pair_skips_numpy_fft_wrappers(self, monkeypatch) -> None:
        """The pair calls pocketfft's kernels itself: no path of the library
        reaches numpy.fft's Python wrappers."""
        self._every_transform_path(monkeypatch, ("rfft", "irfft", "fft", "ifft"))
