"""Model kinds, acceleration, steppers, monitors, and the forced solver."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from kuzlab import dynamics
from kuzlab import (
    Field,
    Grid,
    GuardViolation,
    HyperbolicityBreakdown,
    LinearForcedResult,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    build_jet,
    cfl_dt,
    effective_coefficients,
    energy_wave,
    hyperbolicity_factor,
    solve_linear_forced,
    step,
    support_radius,
)
from kuzlab.dynamics import (
    DEFAULT_CFL,
    _Accel,
    _accel_kernel,
    _advance,
    _evaluate,
    _propagator,
    _resolve_step,
    _rk4_amplification,
    _spectra,
    _state,
    _tail_fraction,
    hyperbolicity_guard,
)
from kuzlab.fields import _gradient_from_spectrum, _quadrature, _to_physical, _to_spectral, laplacian_values
from helpers import band_limited_field, count_ffts, single_mode


def _tail(state: SimState, p: PhysicalParams) -> float:
    """The tail monitor's fraction for a state, from its transforms: the carried
    ones where it has them."""
    return float(_tail_fraction(state.grid, p.c, *_spectra(state)))


class TestPhysicalParams:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            PhysicalParams(c=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(nu=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(alpha=0.0)

    @pytest.mark.parametrize(
        "kind, expected",
        [
            (ModelKind.KUZNETSOV, 1.0 / (2.0 * 2.0 * 0.25)),
            # Westervelt's alpha_eff is alpha + 2/c^2 = 2 + 2/4.
            (ModelKind.WESTERVELT, 1.0 / (2.0 * 2.5 * 0.25)),
            (ModelKind.WAVE, math.inf),
            (ModelKind.DAMPED_WAVE, math.inf),
        ],
        ids=lambda v: v.value if isinstance(v, ModelKind) else None,
    )
    def test_hyperbolicity_guard_value(self, kind: ModelKind, expected: float) -> None:
        p = PhysicalParams(c=2.0, alpha=2.0, eps=0.25)
        assert hyperbolicity_guard(p, kind) == pytest.approx(expected)


class TestEffectiveCoefficients:
    def test_table(self) -> None:
        p = PhysicalParams(c=2.0, nu=0.7, alpha=1.5, beta=2.5)
        assert effective_coefficients(p, ModelKind.WAVE) == (0.0, 0.0, 0.0)
        assert effective_coefficients(p, ModelKind.DAMPED_WAVE) == (0.0, 0.0, 0.7)
        alpha_w, beta_w, nu_w = effective_coefficients(p, ModelKind.WESTERVELT)
        assert alpha_w == pytest.approx(1.5 + 2.0 / 4.0)
        assert beta_w == 0.0
        assert nu_w == 0.7
        assert effective_coefficients(p, ModelKind.KUZNETSOV) == (1.5, 2.5, 0.7)


class TestAcceleration:
    def test_linear_wave_acceleration_is_c2_laplacian(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(c=2.0)
        u = single_mode(grid, (3,), 0.5)
        state = SimState(u, Field.zeros(grid))
        acc = build_jet(state, p, 2, ModelKind.WAVE).layers[2]
        np.testing.assert_allclose(acc.values, 4.0 * laplacian_values(grid, u.values), atol=1e-12)

    def test_kuznetsov_denominator(self) -> None:
        """Constant u_t shifts the acceleration by exactly 1/(1 - alpha eps v)."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.1)
        u = single_mode(grid, (2,), 0.3)
        v = Field(grid, np.full(grid.shape, 0.5))
        acc = build_jet(SimState(u, v), p, 2, ModelKind.KUZNETSOV).layers[2]
        # grad v = 0, so only the denominator acts on c^2 Lap u.
        expected = laplacian_values(grid, u.values) / (1.0 - 0.1 * 0.5)
        np.testing.assert_allclose(acc.values, expected, atol=1e-12)

    def test_breakdown_raises_at_floor(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, eps=0.1, hyp_floor=0.1)
        u = Field.zeros(grid)
        v = Field(grid, np.full(grid.shape, 9.5))  # factor = 1 - 0.95 = 0.05
        with pytest.raises(HyperbolicityBreakdown):
            build_jet(SimState(u, v), p, 2, ModelKind.KUZNETSOV)

    def test_hyperbolicity_factor_min(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=2.0, eps=0.1)
        v = single_mode(grid, (1,), 1.0)
        assert hyperbolicity_factor(v, p, ModelKind.KUZNETSOV) == pytest.approx(1.0 - 0.2, rel=1e-12)
        assert hyperbolicity_factor(v, p, ModelKind.WAVE) == 1.0


def _dense_blocks(grid: Grid, dt: float, c: float, nu_eps: float) -> list[np.ndarray]:
    """The four propagator blocks formed on every mode of the transform layout,
    by the formula the tables are evaluated with (outside its stiff modes)."""
    k2 = grid.k_squared
    a = nu_eps * k2
    b = c**2 * k2
    s = np.sqrt((a * a - 4.0 * b).astype(complex))
    h = 0.5 * dt * s
    cosh_h = np.cosh(h)
    small = np.abs(h) < 1e-8
    h_safe = np.where(small, 1.0, h)
    sinhc = np.where(small, 1.0 + h * h / 6.0, np.sinh(h_safe) / h_safe)
    pref = np.exp(-0.5 * a * dt)
    return [
        (pref * (cosh_h + 0.5 * a * dt * sinhc)).real,
        (pref * dt * sinhc).real,
        (pref * (-b) * dt * sinhc).real,
        (pref * (cosh_h - 0.5 * a * dt * sinhc)).real,
    ]


def _gathered(grid: Grid, dt: float, c: float, nu_eps) -> list[np.ndarray]:
    """The propagator's tables gathered onto the transform layout."""
    index, *tables = _propagator(grid, dt, c, nu_eps)
    return [t[..., index] for t in tables]


class TestPropagatorOracle:
    @pytest.mark.parametrize("c,nu_eps", [(1.0, 0.0), (1.0, 0.05), (0.5, 1.0), (2.0, 0.3)])
    def test_matches_matrix_exponential(self, c: float, nu_eps: float) -> None:
        """Gathered entries equal expm(dt * [[0, 1], [-c^2 k^2, -nu eps k^2]])."""
        grid = Grid.cube(1, 32, length=3.0)
        dt = 0.07
        e00, e01, e10, e11 = _gathered(grid, dt, c, nu_eps)
        k2 = grid.k_squared
        for idx in [0, 1, 5, 16]:
            a = np.array([[0.0, 1.0], [-(c**2) * k2[idx], -nu_eps * k2[idx]]])
            exact = expm(dt * a)
            got = np.array([[e00[idx], e01[idx]], [e10[idx], e11[idx]]])
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize(
        "grid",
        [
            Grid.cube(3, 64),
            Grid.cube(1, 256),
            Grid.cube(2, 256, length=80.0, origin_centered=True),
            Grid.cube(2, 128, length=3.0),
            Grid((3.0, 5.0, 7.0), (16, 32, 8)),
        ],
        ids=["64^3", "1d-256", "256^2-L80-centred", "128^2-L3", "16x32x8"],
    )
    def test_tables_gather_to_the_dense_blocks(self, grid: Grid, members: int) -> None:
        """Gathered table entries are the dense formula's bit for bit, one row
        per member when stacked."""
        # None of these reaches the stiff modes, where the formula breaks down.
        for dt, c, nu_eps in [(0.05, 1.0, 0.0), (0.05, 1.0, 0.05), (0.0123, 0.5, 1.0), (0.1, 2.0, 0.1)]:
            if members == 1:
                got = _gathered(grid, dt, c, nu_eps)
                want = _dense_blocks(grid, dt, c, nu_eps)
            else:
                scales = (nu_eps, 0.5 * nu_eps + 0.01, 2.0 * nu_eps)
                got = _gathered(grid, dt, c, scales)
                per_member = [_dense_blocks(grid, dt, c, x) for x in scales]
                want = [np.stack(rows) for rows in zip(*per_member)]
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_blocks_own_their_data(self, stacked: bool) -> None:
        """A cold call keeps the grid's index and distinct |k|^2 and the four
        real tables, each an array of its own: none of the complex arrays the
        tables were taken from, and nothing of the transform layout's size
        beyond the int32 index."""
        grid = Grid.cube(3, 32)
        grid.k_squared  # built and kept by the grid before tracing
        tracemalloc.start()
        try:
            # Arguments no other call uses, so that the cache misses.
            entry = _propagator(grid, 0.0123, 1.0, (0.41,) if stacked else 0.37)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        index, *tables = entry
        k2_values, grid_index = grid.k_squared_table
        assert index is grid_index and index.dtype == np.int32 and index.shape == grid.spectral_shape
        assert all(t.base is None and t.flags.c_contiguous for t in tables)
        assert all(t.shape == ((1,) if stacked else ()) + k2_values.shape for t in tables)
        kept = index.nbytes + k2_values.nbytes + sum(t.nbytes for t in tables)
        assert retained <= 1.05 * kept

    def test_stiff_modes_match_high_precision_expm(self) -> None:
        """Modes with nu eps |k|^2 dt / 2 far past exp's range keep finite,
        exact entries: those of a 50-digit matrix exponential."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        grid = Grid.cube(1, 256)
        dt, c, nu_eps = 0.5, 1.0, 1.0
        blocks = _gathered(grid, dt, c, nu_eps)
        k2 = grid.k_squared
        assert (0.5 * nu_eps * k2 * dt > 709.8).sum() > 0
        worst = 0.0
        for idx in range(k2.size):
            m = mpmath.matrix([[0, 1], [-(c**2) * mpmath.mpf(k2[idx]), -nu_eps * mpmath.mpf(k2[idx])]])
            exact = mpmath.expm(dt * m)
            for e, (i, j) in zip(blocks, [(0, 0), (0, 1), (1, 0), (1, 1)]):
                want = exact[i, j]
                # e11 vanishes exactly at the critically damped mode |k| = 2.
                if abs(want) <= 1e-30:
                    assert abs(e[idx]) <= 1e-30
                else:
                    worst = max(worst, float(abs((e[idx] - want) / want)))
        assert worst <= 1e-11

    def test_imex_exact_on_linear_wave(self) -> None:
        """The IMEX step integrates every linear kind exactly per mode."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(c=1.0)
        u0 = single_mode(grid, (2,), 0.4)
        state = SimState(u0, Field.zeros(grid))
        dt = 0.25
        for _ in range(8):
            state = step(state, dt, p, ModelKind.WAVE, Scheme.IMEX)
        t = state.t
        expected = 0.4 * np.sin(2.0 * grid.coordinate_mesh(0)) * math.cos(2.0 * t)
        np.testing.assert_allclose(state.u.values, expected, atol=1e-12)

    def test_imex_wave_ignores_viscosity(self) -> None:
        """The wave kind has no viscosity, whatever params.nu says: its IMEX
        run at nu = 1 is the nu = 0 run bit for bit and keeps its energy."""
        grid = Grid.cube(1, 64)
        x = grid.coordinate_mesh(0)
        data = Field(grid, 0.01 * np.sin(x)), Field(grid, 0.01 * np.cos(x))
        finals = []
        for nu in (0.0, 1.0):
            p = PhysicalParams(nu=nu, eps=0.5)
            state = SimState(*data)
            for _ in range(200):
                state = step(state, cfl_dt(grid, p.c), p, ModelKind.WAVE, Scheme.IMEX)
            ratio = energy_wave(state, p) / energy_wave(SimState(*data), p)
            assert abs(ratio - 1.0) <= 1e-12, ratio
            finals.append(state)
        for got, want in zip((finals[1].u, finals[1].v), (finals[0].u, finals[0].v)):
            np.testing.assert_array_equal(got.values, want.values)

    def test_imex_exact_on_damped_wave(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(c=1.0, nu=2.0, eps=0.1)
        rng = np.random.default_rng(5)
        state = SimState(band_limited_field(grid, rng), band_limited_field(grid, rng))
        coarse = step(state, 0.2, p, ModelKind.DAMPED_WAVE, Scheme.IMEX)
        fine = state
        for _ in range(4):
            fine = step(fine, 0.05, p, ModelKind.DAMPED_WAVE, Scheme.IMEX)
        np.testing.assert_allclose(coarse.u.values, fine.u.values, atol=1e-13)
        np.testing.assert_allclose(coarse.v.values, fine.v.values, atol=1e-13)


def _dense_amplification(grid: Grid, p: PhysicalParams, kind: ModelKind, dt: float) -> float:
    """The RK4 guard's scan as it was written over every mode of the layout."""
    _, _, nu_eff = effective_coefficients(p, kind)
    k2 = grid.k_squared
    a = nu_eff * p.eps * k2
    root = np.sqrt((a * a - 4.0 * p.c**2 * k2).astype(complex))
    worst = 0.0
    for lam in (0.5 * (-a + root), 0.5 * (-a - root)):
        z = dt * lam
        r = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


class TestStepRule:
    @pytest.mark.parametrize(
        "grid",
        [
            Grid.cube(1, 256),
            Grid.cube(2, 256, length=80.0, origin_centered=True),
            Grid.cube(3, 64),
            Grid((3.0, 5.0, 7.0), (16, 32, 8)),
        ],
        ids=["1d-256", "256^2-L80-centred", "64^3", "16x32x8"],
    )
    @pytest.mark.parametrize("kind", [ModelKind.KUZNETSOV, ModelKind.WESTERVELT])
    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_guard_on_distinct_k2_equals_dense_scan(self, grid: Grid, kind: ModelKind, nu: float) -> None:
        """The guard scans |k|^2's distinct values; its largest |R| is the
        dense scan's bit for bit, at, below and far past the CFL step."""
        p = PhysicalParams(c=1.3, nu=nu, eps=0.2)
        limit = cfl_dt(grid, p.c)
        for dt in (0.3 * limit, limit, 4.0 * limit):
            assert _rk4_amplification(grid, p, kind, dt) == _dense_amplification(grid, p, kind, dt)

    def test_step_lands_on_horizon(self) -> None:
        """horizon / steps, steps the fewest keeping the step at most dt."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams()
        limit = cfl_dt(grid, p.c)
        for scheme in Scheme:
            steps, dt = _resolve_step(grid, p, ModelKind.KUZNETSOV, 1.0, None, scheme, DEFAULT_CFL)
            assert steps == math.ceil(1.0 / limit - 1e-12) and dt == 1.0 / steps

    def test_rk4_shrunk_and_guarded_imex_neither(self) -> None:
        """RK4 shrinks a long step to the CFL step and refuses a stiff one with
        the guard's message; IMEX takes the step as asked, unguarded."""
        grid = Grid.cube(1, 256)
        p = PhysicalParams(nu=0.5, eps=0.1)
        kind = ModelKind.KUZNETSOV
        with pytest.raises(GuardViolation, match=r"^explicit RK4 amplifies a linear mode by 1\d\d\.\d* "
                           r"per step at dt = 0\.\d+; use scheme: \"imex\"$"):
            _resolve_step(grid, p, kind, 1.0, 0.5, Scheme.EXPLICIT_RK4, DEFAULT_CFL)
        soft = PhysicalParams(nu=0.0, eps=0.1)
        shrunk = _resolve_step(grid, soft, kind, 1.0, 0.5, Scheme.EXPLICIT_RK4, DEFAULT_CFL)
        assert shrunk == _resolve_step(grid, soft, kind, 1.0, None, Scheme.EXPLICIT_RK4, DEFAULT_CFL)
        assert _resolve_step(grid, p, kind, 1.0, 0.5, Scheme.IMEX, DEFAULT_CFL) == (2, 0.5)

    def test_horizon_must_be_positive(self) -> None:
        grid = Grid.cube(1, 16)
        with pytest.raises(ValueError, match="horizon must be positive"):
            _resolve_step(grid, PhysicalParams(), ModelKind.KUZNETSOV, 0.0, None, Scheme.IMEX, DEFAULT_CFL)


class TestStep:
    def test_rk4_step_takes_the_step_rule_guard(self) -> None:
        """A stiff RK4 step (nu = eps = 1 at the CFL step on 256 points) is
        refused by step as the step rule refuses it, not taken into a
        numerical instability that would read as a hyperbolicity breakdown."""
        grid = Grid.cube(1, 256)
        p = PhysicalParams(nu=1.0, eps=1.0)
        kind, rk4 = ModelKind.KUZNETSOV, Scheme.EXPLICIT_RK4
        dt = cfl_dt(grid, p.c)
        state = SimState(single_mode(grid, (1,), 0.01), Field.zeros(grid))
        with pytest.raises(GuardViolation, match="explicit RK4 amplifies") as by_rule:
            _resolve_step(grid, p, kind, dt, dt, rk4, DEFAULT_CFL)
        with pytest.raises(GuardViolation) as by_step:
            step(state, dt, p, kind, rk4)
        assert str(by_step.value) == str(by_rule.value)
        assert step(state, dt, p, kind, Scheme.IMEX).t == dt  # IMEX takes it

    def test_rk4_clamps_to_cfl(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams()
        state = SimState(single_mode(grid, (1,), 0.1), Field.zeros(grid))
        limit = cfl_dt(grid, p.c, 0.4)
        out = step(state, 10.0, p, ModelKind.WAVE, Scheme.EXPLICIT_RK4, cfl=0.4)
        assert out.t == pytest.approx(limit)

    def test_zero_dt_returns_state(self) -> None:
        grid = Grid.cube(1, 16)
        state = SimState(Field.zeros(grid), Field.zeros(grid))
        assert step(state, 0.0, PhysicalParams(), ModelKind.WAVE) is state

    def test_negative_dt_rejected(self) -> None:
        grid = Grid.cube(1, 16)
        state = SimState(Field.zeros(grid), Field.zeros(grid))
        with pytest.raises(ValueError):
            step(state, -0.1, PhysicalParams(), ModelKind.WAVE)

    def test_rk4_fourth_order_convergence(self) -> None:
        """Halving dt shrinks the Kuznetsov step error by about 2^4."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(eps=0.1)
        rng = np.random.default_rng(21)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))

        def advance(dt: float, steps: int) -> SimState:
            s = state
            for _ in range(steps):
                s = step(s, dt, p, ModelKind.KUZNETSOV, Scheme.EXPLICIT_RK4, cfl=10.0)
            return s

        ref = advance(0.0025, 32)
        err_coarse = np.max(np.abs(advance(0.02, 4).u.values - ref.u.values))
        err_fine = np.max(np.abs(advance(0.01, 8).u.values - ref.u.values))
        assert err_coarse / err_fine > 10.0

    def test_determinism(self) -> None:
        grid = Grid.cube(2, 16)
        p = PhysicalParams(nu=0.4, eps=0.1)
        rng = np.random.default_rng(7)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        a = b = state
        for _ in range(5):
            a = step(a, 0.01, p, ModelKind.KUZNETSOV, Scheme.IMEX)
            b = step(b, 0.01, p, ModelKind.KUZNETSOV, Scheme.IMEX)
        np.testing.assert_array_equal(a.u.values, b.u.values)
        np.testing.assert_array_equal(a.v.values, b.v.values)
        assert a.fnu_accum == b.fnu_accum and a.div_accum == b.div_accum

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_imex_step_returns_fields_of_its_carry(self, n: int) -> None:
        """step returns a whole state: under IMEX its u and v are bitwise the
        inverse transforms of the spectra it carries, step after step."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=0.4, eps=0.1)
        rng = np.random.default_rng(29)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        for _ in range(3):
            state = step(state, 0.01, p, ModelKind.KUZNETSOV, Scheme.IMEX)
            carry = state._fsal
            np.testing.assert_array_equal(state.u.values, _to_physical(grid, carry.u_hat))
            np.testing.assert_array_equal(state.v.values, _to_physical(grid, carry.v_hat))

    def test_div_accum_grows(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams()
        state = SimState(single_mode(grid, (1,), 0.2), Field.zeros(grid))
        out = step(state, 0.01, p, ModelKind.WAVE)
        assert out.div_accum > 0.0


class TestFsal:
    """The end-of-step evaluation carried into the next step (FSAL)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.5)]
    )
    def test_warm_step_fft_count(self, monkeypatch, n: int, scheme: Scheme, nu: float) -> None:
        """A warm step costs at most 5n+14 FFTs under RK4 and 4n+9 under IMEX,
        and the public step forms an IMEX state's u by one more inverse."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=nu, eps=0.1)
        rng = np.random.default_rng(11)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        dt = cfl_dt(grid, p.c)
        state = step(state, dt, p, ModelKind.KUZNETSOV, scheme)
        counts = count_ffts(monkeypatch)
        stepper = []
        real_advance = dynamics._advance

        def advance(*args):
            before = dict(counts)
            out = real_advance(*args)
            stepper.append({key: counts[key] - before[key] for key in counts})
            return out

        monkeypatch.setattr(dynamics, "_advance", advance)
        step(state, dt, p, ModelKind.KUZNETSOV, scheme)
        rk4 = scheme is Scheme.EXPLICIT_RK4
        (inner,) = stepper
        assert sum(inner.values()) <= (5 * n + 14 if rk4 else 4 * n + 9)
        assert counts == {"forward": inner["forward"], "inverse": inner["inverse"] + (0 if rk4 else 1)}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.5)]
    )
    def test_stacked_step_fft_count_and_rows(self, monkeypatch, n: int, scheme: Scheme, nu: float) -> None:
        """A warm step of B stacked members makes one member's FFT calls, 5n+14
        under RK4 and 4n+9 under IMEX, and each row, with its tail fraction
        and per-member scalars, is that member's own step."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=nu)
        kind = ModelKind.KUZNETSOV
        eps = np.array([0.2, 0.05, 0.15, 0.1])
        rng = np.random.default_rng(17)
        states = [
            SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
            for _ in eps
        ]
        dt = cfl_dt(grid, p.c)
        expected = 5 * n + 14 if scheme is Scheme.EXPLICIT_RK4 else 4 * n + 9
        for members in (1, 4):
            u = np.stack([s.u.values for s in states[:members]])
            v = np.stack([s.v.values for s in states[:members]])
            start = _evaluate(
                grid, _to_spectral(grid, u), _to_spectral(grid, v), v, 0.0, p, kind, scheme, eps[:members]
            )
            u, v, start = _advance(grid, u, v, 0.0, start, dt, p, kind, scheme, eps[:members])
            counts = count_ffts(monkeypatch)
            u, v, end = _advance(grid, u, v, dt, start, dt, p, kind, scheme, eps[:members])
            monkeypatch.undo()
            assert sum(counts.values()) == expected
        if u is None:  # an IMEX step forms no physical u
            u = _to_physical(grid, end.u_hat)
        tails = _tail_fraction(grid, p.c, end.u_hat, end.v_hat)
        for b, state in enumerate(states):
            q = replace(p, eps=float(eps[b]))
            single = step(step(state, dt, q, kind, scheme), dt, q, kind, scheme)
            np.testing.assert_array_equal(single.u.values, u[b])
            np.testing.assert_array_equal(single.v.values, v[b])
            assert tails[b] == _tail(single, q)
            ev = single._fsal
            assert (end.fnu[b], end.acc_sup[b], end.lap_sup[b]) == (ev.fnu, ev.acc_sup, ev.lap_sup)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.5)])
    def test_warm_step_leaves_start_evaluation(self, n: int, members: int, scheme: Scheme, nu: float) -> None:
        """Inverse transforms that write into their argument never reach the
        evaluation a step starts from: its spectra, remainder and gradients
        keep their bits through the step. One member runs unstacked."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=nu)
        kind = ModelKind.KUZNETSOV
        rng = np.random.default_rng(23)
        u, v = (
            np.stack([band_limited_field(grid, rng, 0.2).values for _ in range(members)])
            for _ in range(2)
        )
        eps = np.linspace(0.05, 0.15, members)
        if members == 1:
            u, v, eps = u[0], v[0], float(eps[0])
        dt = cfl_dt(grid, p.c)
        start = _evaluate(grid, _to_spectral(grid, u), _to_spectral(grid, v), v, 0.0, p, kind, scheme, eps)
        u, v, start = _advance(grid, u, v, 0.0, start, dt, p, kind, scheme, eps)
        held = {
            name: getattr(start, name)
            for name in ("u_hat", "v_hat", "rem_hat", "grad_u", "grad_v")
            if getattr(start, name) is not None
        }
        assert len(held) == (3 if scheme is Scheme.IMEX else 4)
        kept = {name: np.array(value) for name, value in held.items()}
        _advance(grid, u, v, dt, start, dt, p, kind, scheme, eps)
        for name, value in held.items():
            np.testing.assert_array_equal(np.array(value), kept[name], err_msg=name)

    @staticmethod
    def _rebuilt(carried: SimState, scheme: Scheme) -> SimState:
        """A copy of carried that carries none of its evaluation but, under
        IMEX, its spectra: an IMEX state is its spectra, its physical fields
        their inverse transforms. An RK4 state's spectra are those of its fields."""
        grid, ev = carried.grid, carried._fsal
        u, v = (Field(grid, f.values.copy()) for f in (carried.u, carried.v))
        spectra = None
        if scheme is Scheme.IMEX:
            spectra = _Accel(ev.p, ev.kind, ev.u_hat.copy(), ev.v_hat.copy(), None)
        return _state(u, v, carried.t, carried.fnu_accum, carried.div_accum, spectra)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_warm_step_equals_cold_step_bitwise(self, kind: ModelKind, scheme: Scheme) -> None:
        """Stepping a carried state and a copy rebuilt from its spectra gives
        the same bits: the copy's fresh evaluation reproduces the carry."""
        grid = Grid.cube(2, 16)
        p = PhysicalParams(nu=0.3, eps=0.1)
        rng = np.random.default_rng(13)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        dt = 0.5 * cfl_dt(grid, p.c)
        carried = step(state, dt, p, kind, scheme)
        fresh = self._rebuilt(carried, scheme)
        ev = carried._fsal
        again = _evaluate(grid, *_spectra(fresh), fresh.v.values, fresh.t, p, kind, scheme, p.eps)
        for name in ("u_hat", "v_hat", "acc", "rem_hat", "acc_sup", "lap_sup", "fnu"):
            np.testing.assert_array_equal(getattr(again, name), getattr(ev, name), err_msg=name)
        warm = step(carried, dt, p, kind, scheme)
        cold = step(fresh, dt, p, kind, scheme)
        np.testing.assert_array_equal(warm.u.values, cold.u.values)
        np.testing.assert_array_equal(warm.v.values, cold.v.values)
        assert warm.fnu_accum == cold.fnu_accum
        assert warm.div_accum == cold.div_accum

    @classmethod
    def _carried_and_fresh(cls, kind: ModelKind, scheme: Scheme) -> tuple[SimState, SimState, PhysicalParams]:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(nu=0.3, eps=0.1)
        rng = np.random.default_rng(19)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        carried = step(state, 0.01, p, kind, scheme)
        return carried, cls._rebuilt(carried, scheme), p

    def test_carry_from_other_parameters_is_not_reused(self) -> None:
        carried, fresh, p = self._carried_and_fresh(ModelKind.WESTERVELT, Scheme.EXPLICIT_RK4)
        for q, kind in ((p, ModelKind.KUZNETSOV), (PhysicalParams(nu=0.3, eps=0.2), ModelKind.WESTERVELT)):
            warm = step(carried, 0.01, q, kind, Scheme.EXPLICIT_RK4)
            cold = step(fresh, 0.01, q, kind, Scheme.EXPLICIT_RK4)
            np.testing.assert_array_equal(warm.v.values, cold.v.values)
        np.testing.assert_array_equal(
            build_jet(carried, p, 2, ModelKind.KUZNETSOV).layers[2].values,
            build_jet(fresh, p, 2, ModelKind.KUZNETSOV).layers[2].values,
        )

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_carry_from_other_parameters_is_not_reused_by_either_scheme(self, scheme: Scheme) -> None:
        """A carry made under another (p, kind) is read neither by a step nor
        for u_tt: each gives the bits of a carry-free copy."""
        carried, fresh, p = self._carried_and_fresh(ModelKind.WESTERVELT, scheme)
        for q, kind in ((p, ModelKind.KUZNETSOV), (PhysicalParams(nu=0.3, eps=0.2), ModelKind.WESTERVELT)):
            warm = step(carried, 0.01, q, kind, scheme)
            cold = step(fresh, 0.01, q, kind, scheme)
            np.testing.assert_array_equal(warm.v.values, cold.v.values)
            np.testing.assert_array_equal(
                build_jet(carried, q, 2, kind).layers[2].values,
                build_jet(fresh, q, 2, kind).layers[2].values,
            )

    def test_tail_fraction_reads_carried_spectra(self) -> None:
        carried, fresh, p = self._carried_and_fresh(ModelKind.KUZNETSOV, Scheme.IMEX)
        assert _tail(carried, p) == _tail(fresh, p)


class TestWorkingSet:
    """What one warm step allocates at its peak, in units of the spectrum's
    bytes, on a one-member 32^3 stack whose caches are already built."""

    @pytest.mark.parametrize(
        "scheme,full,budget",
        [(Scheme.IMEX, True, 9.5), (Scheme.IMEX, False, 8.5), (Scheme.EXPLICIT_RK4, True, 20.0)],
    )
    def test_warm_step_peak(self, scheme: Scheme, full: bool, budget: float) -> None:
        grid = Grid.cube(3, 32)
        p = PhysicalParams(nu=0.5 if scheme is Scheme.IMEX else 0.0)
        kind = ModelKind.KUZNETSOV
        rng = np.random.default_rng(3)
        u, v = (band_limited_field(grid, rng, 0.2).values[None] for _ in range(2))
        eps = np.array([0.1])
        dt = cfl_dt(grid, p.c)
        start = _evaluate(
            grid, _to_spectral(grid, u), _to_spectral(grid, v), v, 0.0, p, kind, scheme, eps, full
        )
        u, v, start = _advance(grid, u, v, 0.0, start, dt, p, kind, scheme, eps)
        tracemalloc.start()
        try:
            _advance(grid, u, v, dt, start, dt, p, kind, scheme, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * start.u_hat.nbytes

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.5)])
    def test_full_scalars_keep_their_formulas(self, n: int, members: int, scheme: Scheme, nu: float) -> None:
        """An end-of-step evaluation's F_nu integrand, sup |u_tt| and sup |Lap u|
        are bitwise those of the formulas written out, |grad u|^2 as a sum."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=nu)
        kind = ModelKind.KUZNETSOV
        rng = np.random.default_rng(31)
        u, v = (
            np.stack([band_limited_field(grid, rng, 0.2).values for _ in range(members)])
            for _ in range(2)
        )
        eps = np.linspace(0.05, 0.15, members)
        if members == 1:
            u, v, eps = u[0], v[0], float(eps[0])
        dt = cfl_dt(grid, p.c)
        start = _evaluate(grid, _to_spectral(grid, u), _to_spectral(grid, v), v, 0.0, p, kind, scheme, eps)
        u, v, end = _advance(grid, u, v, 0.0, start, dt, p, kind, scheme, eps)
        acc = _accel_kernel(grid, end.u_hat, end.v_hat, v, p, kind, eps=eps).acc
        grad_u = _gradient_from_spectrum(grid, end.u_hat)
        fnu = np.sum(acc * sum(g * g for g in grad_u), axis=grid.axes)
        fnu *= p.beta * np.asarray(eps) * grid.cell_volume
        lap = _to_physical(grid, -grid.k_squared * end.u_hat)
        np.testing.assert_array_equal(end.fnu, fnu)
        np.testing.assert_array_equal(end.acc_sup, np.max(np.abs(acc), axis=grid.axes))
        np.testing.assert_array_equal(end.lap_sup, np.max(np.abs(lap), axis=grid.axes))
        if scheme is Scheme.EXPLICIT_RK4:
            np.testing.assert_array_equal(end.acc, acc)
            for got, want in zip(end.grad_u, grad_u):
                np.testing.assert_array_equal(got, want)


class TestMonitors:
    def test_tail_fraction_near_zero_for_smooth_state(self) -> None:
        grid = Grid.cube(1, 128)
        p = PhysicalParams()
        state = SimState(single_mode(grid, (2,), 0.5), single_mode(grid, (3,), 0.5))
        assert _tail(state, p) < 1e-20

    def test_tail_fraction_detects_band_edge_energy(self) -> None:
        grid = Grid.cube(1, 128)
        p = PhysicalParams()
        # Mode 40 sits in the outer third of the kept band (28 < 40 <= 42).
        state = SimState(single_mode(grid, (40,), 1.0), Field.zeros(grid))
        assert _tail(state, p) > 0.99

    def test_tail_fraction_zero_state(self) -> None:
        grid = Grid.cube(1, 32)
        state = SimState(Field.zeros(grid), Field.zeros(grid))
        assert _tail(state, PhysicalParams()) == 0.0

    def test_support_radius_of_centered_bump(self) -> None:
        grid = Grid.cube(1, 256, length=20.0, origin_centered=True)
        x = grid.coordinate_mesh(0)
        bump = np.where(np.abs(x) <= 2.0, np.cos(np.pi * x / 4.0) ** 2, 0.0)
        state = SimState(Field(grid, bump), Field.zeros(grid))
        radius = support_radius(state)
        assert 1.8 <= radius <= 2.1

    def test_support_radius_zero_field(self) -> None:
        grid = Grid.cube(1, 32, origin_centered=True)
        state = SimState(Field.zeros(grid), Field.zeros(grid))
        assert support_radius(state) == 0.0


class TestSolveLinearForced:
    def test_requires_viscosity(self) -> None:
        grid = Grid.cube(1, 32)
        z = Field.zeros(grid)
        with pytest.raises(ValueError):
            solve_linear_forced(z, z, lambda t: z, 1.0, PhysicalParams(nu=0.0))

    @pytest.mark.parametrize("report_every", [0, -1])
    def test_refuses_a_record_cadence_below_one(self, report_every: int) -> None:
        """The solver checks its cadence as the run loop does: 0 would divide
        by zero, and -1 would record every step."""
        grid = Grid.cube(1, 64)
        z = Field.zeros(grid)
        with pytest.raises(ValueError, match="report_every must be >= 1"):
            solve_linear_forced(z, z, lambda t: z, 0.5, PhysicalParams(nu=0.5), report_every=report_every)

    def test_unforced_inequality_with_margins(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(nu=1.0, eps=0.1)
        u0 = single_mode(grid, (2,), 0.3)
        u1 = single_mode(grid, (1,), 0.2)
        zero = Field.zeros(grid)
        result = solve_linear_forced(u0, u1, lambda t: zero, 2.0, p, dt=0.01)
        assert result.times[0] == 0.0
        assert all(l <= r * 1.01 + 1e-30 for l, r in zip(result.lhs, result.rhs))
        assert result.holds(0.01)
        assert result.worst_margin >= -0.01

    def test_forced_run_margins(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(nu=0.5, eps=0.2)
        zero = Field.zeros(grid)
        profile = single_mode(grid, (1,), 1.0)

        def forcing(t: float) -> Field:
            return Field(grid, math.cos(t) * profile.values)

        result = solve_linear_forced(zero, zero, forcing, 3.0, p, dt=0.005)
        assert result.holds(0.01)
        assert result.worst_margin > 0.0

    def test_holds_compares_each_reported_time(self) -> None:
        """holds(tol) is lhs <= rhs * (1 + tol) at every time, with 1e-300 of
        absolute slack for a zero right-hand side."""
        result = LinearForcedResult((0.0, 1.0), (1.0, 2.02), (1.0, 2.0))
        assert result.holds(0.01) and not result.holds(0.009)
        assert LinearForcedResult((0.0,), (1e-301,), (0.0,)).holds(0.0)
        assert not LinearForcedResult((0.0,), (1e-299,), (0.0,)).holds(0.0)

    @pytest.mark.parametrize("dt", [None, 0.013])
    def test_step_and_series_as_the_loop_wrote_them(self, dt: float | None) -> None:
        """The solver's step is h / ceil(h / dt - 1e-12), dt the CFL step by
        default, and its series are those of the loop as first written, bit
        for bit."""
        grid = Grid.cube(2, 16, length=3.0)
        p = PhysicalParams(nu=0.7, eps=0.3)
        rng = np.random.default_rng(2)
        u0, u1, profile = (band_limited_field(grid, rng) for _ in range(3))

        def forcing(t: float) -> Field:
            return Field(grid, math.sin(2.0 * t) * profile.values)

        horizon, every = 0.5, 3
        result = solve_linear_forced(u0, u1, forcing, horizon, p, dt=dt, report_every=every)
        assert result.holds(1.0)
        steps = math.ceil(horizon / (cfl_dt(grid, p.c) if dt is None else dt) - 1e-12)
        h = horizon / steps
        assert result.times[1] == every * h

        nu_eps = p.nu * p.eps
        index, *tables = _propagator(grid, h, p.c, nu_eps)
        e00, e01, e10, e11 = (t[index] for t in tables)
        cell, k4 = grid.cell_volume, grid.k_squared**2
        grad_sq = lambda spec: _quadrature(grid, spec, weight=grid.gradient_weight)
        lap_sq = lambda spec: _quadrature(grid, spec, weight=k4)
        l2_sq = lambda values: cell * float(np.sum(values**2))
        u_hat, v_hat = _to_spectral(grid, u0.values), _to_spectral(grid, u1.values)
        diss = force = 0.0
        lap_prev, f_prev = lap_sq(u_hat), forcing(0.0)
        f_sq_prev, f1_hat = l2_sq(f_prev.values), _to_spectral(grid, f_prev.values)
        rhs0 = 0.5 * grad_sq(v_hat) + 0.5 * lap_prev
        lhs, rhs = [0.5 * (grad_sq(v_hat) + p.c**2 * lap_prev) + 0.5 * nu_eps * 0.0], [rhs0]
        half = 0.5 * h
        for i in range(steps):
            f_next = forcing((i + 1) * h)
            f2_hat = _to_spectral(grid, f_next.values)
            base_v = v_hat + half * f1_hat
            u_hat, v_hat = e00 * u_hat + e01 * base_v, e10 * u_hat + e11 * base_v + half * f2_hat
            lap_now, f_sq_now = lap_sq(u_hat), l2_sq(f_next.values)
            diss += half * (lap_prev + lap_now)
            force += half * (f_sq_prev + f_sq_now)
            lap_prev, f_sq_prev, f1_hat = lap_now, f_sq_now, f2_hat
            if (i + 1) % every == 0 or i == steps - 1:
                lhs.append(0.5 * (grad_sq(v_hat) + p.c**2 * lap_now) + 0.5 * nu_eps * diss)
                rhs.append(rhs0 + force / (2.0 * nu_eps))
        assert result.lhs == tuple(lhs) and result.rhs == tuple(rhs)
