"""Tests for the experiment drivers: breakdown runs, sweeps, stability pairs,
viscous decay and decay-ratio tracking.

The focus is the orchestration contract (guards, verdict invariants, report
cadence, determinism, worker independence); the quantitative theorems are
exercised at scale by the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from kuzlab import (
    BreakdownCause,
    Field,
    GuardViolation,
    HyperbolicityBreakdown,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    StepRejected,
    cfl_dt,
    make_report,
    step,
)
from kuzlab import dynamics, energies, experiments
from kuzlab.experiments import (
    BlowupVerdict,
    SweepResult,
    SweepRow,
    klainerman_experiment,
    lifespan_sweep,
    run_until_breakdown,
    stability_experiment,
    viscous_decay_experiment,
    _scaled_lifespan,
)
from kuzlab.fields import Grid, _grad_sq, _to_physical

from helpers import band_limited_field, count_ffts, single_mode


def _smooth_pair(grid: Grid, a: float = 0.1) -> tuple[Field, Field]:
    return single_mode(grid, (1,) * grid.n, a), single_mode(grid, (2,) + (1,) * (grid.n - 1), a / 2)


class TestBlowupVerdict:
    def test_invariant_holds(self) -> None:
        BlowupVerdict(None, BreakdownCause.HORIZON, 0.0)
        BlowupVerdict(1.5, BreakdownCause.HYPERBOLICITY, 2.0)

    def test_invariant_violations_raise(self) -> None:
        with pytest.raises(ValueError):
            BlowupVerdict(None, BreakdownCause.SPECTRAL, 0.0)
        with pytest.raises(ValueError):
            BlowupVerdict(3.0, BreakdownCause.HORIZON, 0.0)


class TestSweepRows:
    def test_tainted_and_clean_partition(self) -> None:
        rows = (
            SweepRow(0.1, 4.0, BreakdownCause.SPECTRAL, 0.4),
            SweepRow(0.2, None, BreakdownCause.HORIZON, None),
            SweepRow(0.4, 1.0, BreakdownCause.HYPERBOLICITY, 0.4),
        )
        result = SweepResult(1, rows, None, None)
        assert tuple(r.eps for r in result.rows if r.cause is BreakdownCause.HORIZON) == (0.2,)
        assert tuple(r.eps for r in result.rows if r.clean) == (0.1, 0.4)

    def test_scaled_lifespan_forms(self) -> None:
        assert _scaled_lifespan(1, 0.1, 5.0) == pytest.approx(0.5)
        assert _scaled_lifespan(2, 0.1, 5.0) == pytest.approx(0.05)
        assert _scaled_lifespan(3, 0.1, math.e) == pytest.approx(0.1)
        assert _scaled_lifespan(1, 0.1, None) is None
        assert _scaled_lifespan(3, 0.1, 0.0) is None


class TestRunUntilBreakdown:
    def test_wave_run_reaches_horizon(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams()
        reports, verdict = run_until_breakdown(
            _smooth_pair(grid), p, 1.0, report_every=5, kind=ModelKind.WAVE
        )
        assert verdict.cause is BreakdownCause.HORIZON
        assert verdict.t_star is None
        assert reports[0].t == 0.0
        assert reports[-1].t == pytest.approx(1.0, abs=1e-12)
        times = [r.t for r in reports]
        assert times == sorted(times)

    def test_report_cadence(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams()
        # dt = 0.01 sits below the RK4 CFL clamp of 0.4 * (2 pi / 32).
        reports, _ = run_until_breakdown(
            _smooth_pair(grid),
            p,
            1.0,
            report_every=20,
            kind=ModelKind.WAVE,
            dt=0.01,
        )
        # 100 steps at cadence 20: t = 0 plus steps 20, 40, 60, 80, 100.
        assert len(reports) == 6
        assert [round(r.t, 10) for r in reports] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_guard_violation_before_stepping(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, eps=0.5)  # guard: ||u1||_inf < 1
        u0 = Field.zeros(grid)
        u1 = single_mode(grid, (1,), 1.1)
        with pytest.raises(GuardViolation):
            run_until_breakdown((u0, u1), p, 1.0)

    def test_immediate_divergence_trip_keeps_single_report(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams()
        reports, verdict = run_until_breakdown(
            _smooth_pair(grid), p, 1.0, kind=ModelKind.WAVE, div_threshold=0.0
        )
        assert verdict.cause is BreakdownCause.DIVERGENCE
        assert verdict.t_star == 0.0
        assert len(reports) == 1

    def test_under_resolved_data_trips_spectral_monitor(self) -> None:
        grid = Grid.cube(1, 128)
        p = PhysicalParams()
        u0 = single_mode(grid, (40,), 0.01)  # far outside the resolved band
        reports, verdict = run_until_breakdown(
            (u0, Field.zeros(grid)), p, 1.0, kind=ModelKind.WAVE
        )
        assert verdict.cause is BreakdownCause.SPECTRAL
        assert verdict.t_star == 0.0
        assert len(reports) == 1

    def test_hyperbolicity_trip_mid_run(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=3.0, eps=0.5, hyp_floor=0.45)
        u0 = single_mode(grid, (1,), 0.5)
        u1 = single_mode(grid, (1,), 0.9)  # min factor 0.55 at t = 0
        reports, verdict = run_until_breakdown(
            (u0, u1), p, 50.0, kind=ModelKind.KUZNETSOV, tail_threshold=2.0
        )
        assert verdict.cause is BreakdownCause.HYPERBOLICITY
        assert verdict.t_star is not None and 0.0 < verdict.t_star < 50.0
        assert reports[-1].t == pytest.approx(verdict.t_star)

    def test_rejected_step_is_a_numerical_instability(self, monkeypatch) -> None:
        grid = Grid.cube(1, 32)
        real_advance = dynamics._advance
        calls = []

        def advance(grid, u0, v0, t0, *args):
            calls.append(t0)
            if len(calls) == 3:
                raise StepRejected("forced", np.ones(len(u0), dtype=bool))
            return real_advance(grid, u0, v0, t0, *args)

        monkeypatch.setattr(dynamics, "_advance", advance)
        _, verdict = run_until_breakdown(_smooth_pair(grid), PhysicalParams(), 1.0)
        assert verdict.cause is BreakdownCause.NUMERICAL
        assert verdict.cause.value == "numerical_instability"
        assert verdict.t_star == calls[-1] > 0.0

    @staticmethod
    def _stiff_case() -> tuple[tuple[Field, Field], PhysicalParams]:
        """nu*eps*dt*|k|^2_max is about 8 at the CFL step of this grid."""
        grid = Grid.cube(1, 256)
        x = grid.coordinate_mesh(0)
        data = Field(grid, 0.01 * np.sin(x)), Field(grid, 0.01 * np.cos(x))
        return data, PhysicalParams(nu=0.5, eps=0.1)

    @pytest.mark.parametrize("kind", [ModelKind.KUZNETSOV, ModelKind.DAMPED_WAVE])
    def test_stiff_explicit_run_is_refused(self, kind: ModelKind) -> None:
        data, p = self._stiff_case()
        with pytest.raises(GuardViolation, match=r"amplifies .* by 1\d\d\.\d* .*imex"):
            run_until_breakdown(data, p, 1.0, kind=kind, scheme=Scheme.EXPLICIT_RK4)

    @pytest.mark.parametrize("kind", [ModelKind.KUZNETSOV, ModelKind.DAMPED_WAVE])
    def test_stiff_imex_run_reaches_horizon(self, kind: ModelKind) -> None:
        data, p = self._stiff_case()
        _, verdict = run_until_breakdown(data, p, 1.0, kind=kind, scheme=Scheme.IMEX)
        assert verdict.cause is BreakdownCause.HORIZON

    def test_requested_energies_present(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(eps=0.05)
        reports, _ = run_until_breakdown(
            _smooth_pair(grid, 0.05), p, 0.2, e_m_orders=(0,), half_m=2
        )
        for r in reports:
            assert r.e_m_value(0) > 0
            assert r.e_half_m > 0

    def test_determinism(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(eps=0.2)
        first, v1 = run_until_breakdown(_smooth_pair(grid), p, 0.5, report_every=3)
        second, v2 = run_until_breakdown(_smooth_pair(grid), p, 0.5, report_every=3)
        assert v1 == v2
        assert [r.e_wave for r in first] == [r.e_wave for r in second]
        assert [r.f_nu for r in first] == [r.f_nu for r in second]

    def test_report_every_validation(self) -> None:
        grid = Grid.cube(1, 32)
        with pytest.raises(ValueError):
            run_until_breakdown(_smooth_pair(grid), PhysicalParams(), 1.0, report_every=0)


class TestLifespanSweep:
    def test_input_validation(self) -> None:
        p = PhysicalParams()
        data = _smooth_pair(Grid.cube(1, 32))
        with pytest.raises(ValueError, match="duplicates"):
            lifespan_sweep(data, [0.1, 0.1], p)
        with pytest.raises(ValueError, match="empty"):
            lifespan_sweep(data, [], p)

    def test_horizon_rows_are_tainted_and_skip_fit(self) -> None:
        grid = Grid.cube(1, 32)
        result = lifespan_sweep(_smooth_pair(grid), [0.05, 0.1], PhysicalParams(), horizon=0.5)
        assert all(r.cause is BreakdownCause.HORIZON for r in result.rows)
        assert result.slope is None and result.intercept is None
        assert not any(r.clean for r in result.rows)

    def test_single_point_has_no_fit(self) -> None:
        grid = Grid.cube(1, 64)
        result = lifespan_sweep(
            (single_mode(grid, (1,), 0.5), single_mode(grid, (1,), 0.5)),
            [0.5],
            PhysicalParams(alpha=1.0, beta=3.0),
            horizon=100.0,
        )
        assert len(result.rows) == 1
        assert result.rows[0].cause is not BreakdownCause.HORIZON
        assert result.slope is None

    @staticmethod
    def _travelling_sine(grid: Grid) -> tuple[Field, Field]:
        x = grid.coordinate_mesh(0)
        return Field(grid, 0.5 * np.sin(x)), Field(grid, 0.5 * np.cos(x))

    def test_row_ending_at_t0_is_not_clean(self) -> None:
        """Data on the hyperbolicity floor end their row at t* = 0. Such a row
        is neither fitted nor clean, so one clean row leaves the fit skipped."""
        p = PhysicalParams(alpha=1.0, beta=3.0, hyp_floor=0.9)
        result = lifespan_sweep(self._travelling_sine(Grid.cube(1, 64)), [0.3, 0.05], p, horizon=20.0)
        ends = {r.eps: (r.t_star, r.cause) for r in result.rows}
        assert ends[0.3] == (0.0, BreakdownCause.HYPERBOLICITY)
        assert ends[0.05][1] is BreakdownCause.SPECTRAL
        assert tuple(r.eps for r in result.rows if r.clean) == (0.05,)
        assert result.slope is None and result.intercept is None

    @pytest.mark.parametrize("scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.05)])
    def test_rows_equal_serial_runs(self, scheme: Scheme, nu: float) -> None:
        """Every batched row is its member's serial verdict, bit for bit.

        eps = 0.99 trips the hyperbolicity floor inside a step while the
        others go on, 0.6 and 0.3 trip the tail monitor, and 0.05 reaches
        the horizon; under IMEX each member has its own propagator.
        """
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=3.0, nu=nu, hyp_floor=0.45)
        eps = [0.3, 0.99, 0.05, 0.6]  # deliberately unsorted
        horizon = 4.0
        result = lifespan_sweep(self._travelling_sine(grid), eps, p, horizon=horizon, scheme=scheme)
        assert [r.eps for r in result.rows] == sorted(eps)
        for row in result.rows:
            _, verdict = run_until_breakdown(
                self._travelling_sine(grid), replace(p, eps=row.eps), horizon,
                report_every=10**6, scheme=scheme,
            )
            assert (row.t_star, row.cause) == (verdict.t_star, verdict.cause)
            assert row.scaled == _scaled_lifespan(1, row.eps, verdict.t_star)
        causes = {r.eps: r.cause for r in result.rows}
        assert causes == {
            0.05: BreakdownCause.HORIZON,
            0.3: BreakdownCause.SPECTRAL,
            0.6: BreakdownCause.SPECTRAL,
            0.99: BreakdownCause.HYPERBOLICITY,
        }
        clean = [r for r in result.rows if r.clean]
        slope, intercept = np.polyfit(np.log([r.eps for r in clean]), np.log([r.t_star for r in clean]), 1)
        assert (result.slope, result.intercept) == (float(slope), float(intercept))

    def test_rejected_step_ends_only_its_member(self, monkeypatch) -> None:
        """A non-finite member leaves the batch as a numerical instability."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=3.0)
        eps = [0.3, 0.6]
        clean = lifespan_sweep(self._travelling_sine(grid), eps, p, horizon=4.0)
        real_advance = dynamics._advance

        def advance(grid, u0, v0, t0, start, dt, p, kind, scheme, eps):
            out = real_advance(grid, u0, v0, t0, start, dt, p, kind, scheme, eps)
            if t0 >= 0.5 and 0.6 in eps:
                raise StepRejected("forced", eps == 0.6)
            return out

        monkeypatch.setattr(dynamics, "_advance", advance)
        result = lifespan_sweep(self._travelling_sine(grid), eps, p, horizon=4.0)
        assert result.rows[0] == clean.rows[0]
        row = result.rows[1]
        assert row.cause is BreakdownCause.NUMERICAL
        assert 0.5 <= row.t_star < 0.5 + cfl_dt(grid, p.c)


class TestStability:
    def test_identical_data_stay_identical(self) -> None:
        grid = Grid.cube(1, 64)
        data = _smooth_pair(grid)
        p = PhysicalParams(eps=0.1)
        result = stability_experiment(data, data, p, 1.0, report_every=4)
        assert result.c1 == pytest.approx(5.0)  # 3 + 2c^2 at c = 1
        assert result.c2 == 0.0
        assert not result.uniqueness_flag
        assert result.resolved
        assert result.envelope_ok()
        assert max(result.d) == 0.0
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert len(result.reports) == len(result.times)

    @pytest.mark.parametrize("c1", [None, 1.0])
    def test_fitted_exponent_bounds_distance(self, c1: float | None) -> None:
        """The fitted envelope bounds every record. At the default c1 = 3 + 2c^2
        the distance never leaves c1 * d0 and c2 is 0; at c1 = 1 it does, so c2
        is fitted, and the envelope meets the distance at the worst record."""
        grid = Grid.cube(1, 64)
        u = _smooth_pair(grid, 0.2)
        v = (
            Field(grid, u[0].values + single_mode(grid, (2,), 1e-4).values),
            u[1],
        )
        p = PhysicalParams(eps=0.2)
        result = stability_experiment(u, v, p, 2.0, report_every=5, c1=c1)
        assert result.c2 is not None and result.c2 >= 0.0
        d0 = result.d[0]
        assert d0 > 0
        for d_t, a_t in zip(result.d, result.a):
            envelope = result.c1 * math.exp(result.c2 * p.eps * a_t) * d0
            assert d_t <= envelope * (1 + 1e-9)
        if c1 is not None:
            assert result.c2 > 0.0
            slack = min(
                result.c1 * math.exp(result.c2 * p.eps * a_t) * d0 / d_t
                for d_t, a_t in zip(result.d[1:], result.a[1:])
            )
            assert slack == pytest.approx(1.0, abs=1e-12)

    def test_a_series_is_nondecreasing(self) -> None:
        grid = Grid.cube(1, 64)
        u = _smooth_pair(grid, 0.2)
        result = stability_experiment(u, u, PhysicalParams(eps=0.2), 1.0)
        assert all(b >= a for a, b in zip(result.a, result.a[1:]))
        assert result.a[0] == 0.0

    def test_grid_mismatch_raises(self) -> None:
        p = PhysicalParams()
        with pytest.raises(ValueError, match="grid"):
            stability_experiment(
                _smooth_pair(Grid.cube(1, 32)), _smooth_pair(Grid.cube(1, 64)), p, 1.0
            )

    def test_c1_validation(self) -> None:
        grid = Grid.cube(1, 32)
        data = _smooth_pair(grid)
        with pytest.raises(ValueError, match="c1"):
            stability_experiment(data, data, PhysicalParams(), 1.0, c1=0.5)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scheme", [Scheme.EXPLICIT_RK4, Scheme.IMEX])
    def test_pair_equals_two_serial_runs(self, scheme: Scheme, n: int) -> None:
        """The pair, one batch of two, equals two serial step loops bit for bit."""
        grid = Grid.cube(n, 32 if n == 1 else 16)
        p = PhysicalParams(nu=0.05 if scheme is Scheme.IMEX else 0.0, eps=0.2)
        u = _smooth_pair(grid, 0.2)
        v = (Field(grid, u[0].values + single_mode(grid, (2,) * n, 1e-3).values), u[1])
        horizon, report_every = 1.0, 3
        result = stability_experiment(u, v, p, horizon, scheme=scheme, report_every=report_every)

        steps = math.ceil(horizon / cfl_dt(grid, p.c) - 1e-12)
        dt = horizon / steps
        su, sv = SimState(*u), SimState(*v)

        def sup(s: SimState) -> float:
            # The kernel's u_tt and Lap u on the state's spectra, which the
            # driver's A(t) reads: an IMEX state is its carried spectra.
            ev = dynamics._accel_kernel(grid, *dynamics._spectra(s), s.v.values, p, ModelKind.KUZNETSOV)
            lap = dynamics._to_physical(grid, -grid.k_squared * ev.u_hat)
            return max(np.max(np.abs(ev.acc)), np.max(np.abs(lap)))

        def distance() -> float:
            dv = su.v.values - sv.v.values
            return grid.cell_volume * float(np.sum(dv * dv)) + _grad_sq(grid, su.u.values - sv.u.values)

        times, d, a, reports = [0.0], [distance()], [0.0], [make_report(su, p)]
        a_accum, g_prev = 0.0, sup(su)
        for k in range(1, steps + 1):
            su = step(su, dt, p, scheme=scheme)
            sv = step(sv, dt, p, scheme=scheme)
            g_now = sup(su)
            a_accum += 0.5 * dt * (g_prev + g_now)
            g_prev = g_now
            if k % report_every == 0 or k == steps:
                times.append(su.t)
                d.append(distance())
                a.append(a_accum)
                reports.append(make_report(su, p))
        c2 = 0.0
        for d_t, a_t in zip(d, a):
            if d_t > result.c1 * d[0]:
                c2 = max(c2, math.log(d_t / (result.c1 * d[0])) / (p.eps * a_t))

        assert result.cause is BreakdownCause.HORIZON
        assert (result.times, result.d, result.a, result.c2) == (tuple(times), tuple(d), tuple(a), c2)
        assert result.reports == tuple(reports)

    def test_a_floor_trip_in_either_run_ends_the_pair(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=3.0, eps=0.5, hyp_floor=0.45)
        calm = single_mode(grid, (1,), 0.05), single_mode(grid, (1,), 0.05)
        steep = single_mode(grid, (1,), 0.5), single_mode(grid, (1,), 0.9)
        _, verdict = run_until_breakdown(steep, p, 50.0, tail_threshold=2.0)
        assert verdict.cause is BreakdownCause.HYPERBOLICITY
        for pair in ((calm, steep), (steep, calm)):
            result = stability_experiment(*pair, p, 50.0, tail_threshold=2.0)
            assert result.cause is BreakdownCause.HYPERBOLICITY
            assert result.times[-1] == verdict.t_star

    def test_envelope_ok_respects_cap(self) -> None:
        grid = Grid.cube(1, 32)
        data = _smooth_pair(grid)
        result = stability_experiment(data, data, PhysicalParams(), 0.5)
        assert result.envelope_ok(cap=100.0)
        assert result.envelope_ok(cap=0.0)  # c2 = 0 sits on the cap


class TestViscousDecay:
    def test_m_validation(self) -> None:
        grid = Grid.cube(1, 32)
        u0, u1 = _smooth_pair(grid, 1e-3)
        p = PhysicalParams(nu=1.0)
        for bad_m in (0, 1, 3):
            with pytest.raises(ValueError):
                viscous_decay_experiment(u0, u1, p, bad_m, 0.1)

    def test_oversized_data_rejected(self) -> None:
        grid = Grid.cube(1, 64)
        u0, u1 = _smooth_pair(grid, 0.5)
        p = PhysicalParams(nu=0.1, eps=0.1)
        with pytest.raises(GuardViolation, match="threshold"):
            viscous_decay_experiment(u0, u1, p, 2, 0.1)

    def test_small_data_viscous_run(self) -> None:
        grid = Grid.cube(1, 64)
        u0, u1 = _smooth_pair(grid, 1e-3)
        p = PhysicalParams(nu=1.0, eps=0.1)
        result = viscous_decay_experiment(u0, u1, p, 2, 2.0, report_every=10)
        assert result.m == 2
        assert result.monotone_ok is True
        assert result.bound_ok is True
        assert math.isfinite(result.threshold_value)
        assert result.sqrt_e_half_initial <= result.threshold_value
        assert result.e_theorem[-1] < result.e_theorem[0]
        assert len(result.times) == len(result.e_theorem) == len(result.e_half)
        assert len(result.s_half) == len(result.reports) == len(result.times)
        assert result.e_half_bound == pytest.approx(5.0 * result.e_half[0])

    def test_one_half_m_evaluation_per_record(self, monkeypatch) -> None:
        """The towers come from the reports: one E_{m/2} and one S_{m/2} per record."""
        calls = {"energy_half_m": 0, "s_half_m": 0}
        for name in calls:
            original = getattr(energies, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(energies, name, counting)
            # Also count a call made through the drivers' or the run loop's own import.
            for module in (experiments, dynamics):
                monkeypatch.setattr(module, name, counting, raising=False)
        grid = Grid.cube(1, 64)
        u0, u1 = _smooth_pair(grid, 1e-3)
        result = viscous_decay_experiment(u0, u1, PhysicalParams(nu=1.0), 2, 1.0, report_every=10)
        records = len(result.times)
        assert calls == {"energy_half_m": records, "s_half_m": records}
        assert result.e_half == tuple(r.e_half_m for r in result.reports)
        assert result.s_half == tuple(r.s_half_m for r in result.reports)
        assert result.sqrt_e_half_initial == math.sqrt(result.reports[0].e_half_m)

    @pytest.mark.parametrize("m", [2, 4])
    def test_imex_carried_layer_two_keeps_the_reports(self, monkeypatch, m: int) -> None:
        """Reading layer 2 from the IMEX carry moves every record by roundoff
        only: within 1e-12 relative of the kernel's layer 2 on the carried
        spectra, which an IMEX state is."""
        grid = Grid.cube(2, 16)
        rng = np.random.default_rng(43)
        u0, u1 = band_limited_field(grid, rng, 1e-5), band_limited_field(grid, rng, 1e-5)
        p = PhysicalParams(nu=1.0, eps=0.1)

        def run() -> experiments.ViscousDecayResult:
            return viscous_decay_experiment(u0, u1, p, m, 1.0, report_every=2)

        carried = run()
        # Records of states carrying the kernel's evaluation take layer 2 from it.
        real_state = dynamics._state

        def kernel_state(u, v, t, fnu, div, carry):
            ev = dynamics._accel_kernel(grid, carry.u_hat, carry.v_hat, v.values, p, carry.kind, t)
            return real_state(u, v, t, fnu, div, ev)

        monkeypatch.setattr(dynamics, "_state", kernel_state)
        kernel = run()
        assert carried.times == kernel.times and len(carried.times) > 2
        for name in ("e_theorem", "e_half", "s_half"):
            np.testing.assert_allclose(getattr(carried, name), getattr(kernel, name), rtol=1e-12, atol=0.0)
        for a, b in zip(carried.reports, kernel.reports):
            assert (a.e_wave, a.f_nu, a.div_accum) == (b.e_wave, b.f_nu, b.div_accum)

    def test_data_at_the_floor_end_at_t0_with_nan_towers(self) -> None:
        """The t = 0 record drops the towers, so neither claim holds."""
        grid = Grid.cube(1, 64)
        x = grid.coordinate_mesh(0)
        p = PhysicalParams(nu=0.5, eps=0.5, hyp_floor=0.9)
        u0, u1 = Field(grid, 0.5 * np.sin(x)), Field(grid, 0.5 * np.cos(x))
        result = viscous_decay_experiment(u0, u1, p, 2, 1.0)
        assert result.cause is BreakdownCause.HYPERBOLICITY and result.times == (0.0,)
        assert math.isnan(result.e_theorem[0]) and math.isnan(result.e_half[0])
        assert result.monotone_ok is False and result.bound_ok is False

    def test_inviscid_control_withdraws_claims(self) -> None:
        grid = Grid.cube(1, 64)
        u0, u1 = _smooth_pair(grid, 1e-3)
        p = PhysicalParams(nu=0.0, eps=0.1)
        result = viscous_decay_experiment(u0, u1, p, 2, 0.5, scheme=Scheme.EXPLICIT_RK4)
        assert result.monotone_ok is None
        assert result.threshold_value == math.inf


class TestKlainerman:
    def _bump_data(self, grid: Grid, sigma: float = 0.4) -> tuple[Field, Field]:
        """Bump whose 1e-8-relative support stays well inside the monitor limit."""
        r2 = sum(grid.coordinate_mesh(a) ** 2 for a in range(grid.n))
        return Field(grid, 0.01 * np.exp(-r2 / (2 * sigma**2))), Field.zeros(grid)

    _BOX = 4.0 * math.pi  # roomy box: the support monitor limit is 0.4 * L

    def test_requires_inviscid_and_centered(self) -> None:
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        with pytest.raises(GuardViolation, match="inviscid"):
            klainerman_experiment(u0, u1, PhysicalParams(nu=0.5), 1.0)
        off_grid = Grid.cube(1, 128, length=self._BOX)
        u0_off, u1_off = self._bump_data(off_grid)  # coordinates are [0, L)
        with pytest.raises(GuardViolation, match="origin-centered"):
            klainerman_experiment(u0_off, u1_off, PhysicalParams(), 1.0)

    def test_short_run_series(self) -> None:
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        p = PhysicalParams(eps=0.05)
        result = klainerman_experiment(u0, u1, p, 1.0, m=0, report_every=8)
        assert result.m == 0
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(r > 0 for r in result.ratios)
        assert all(np.isfinite(result.support_radii))
        assert result.max_ratio == max(result.ratios)
        assert result.boundedness_quotient(1.0) == pytest.approx(
            result.max_ratio / result.ratio_at(1.0)
        )
        assert len(result.reports) == len(result.times)
        assert not math.isnan(result.reports[0].e_1m)

    def test_ratio_at_out_of_range(self) -> None:
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        result = klainerman_experiment(u0, u1, PhysicalParams(eps=0.05), 0.25, m=0)
        with pytest.raises(ValueError):
            result.ratio_at(5.0)

    def test_one_support_radius_per_record(self, monkeypatch) -> None:
        calls = []
        original = energies.support_radius

        def counting(state):
            calls.append(state.t)
            return original(state)

        monkeypatch.setattr(energies, "support_radius", counting)
        # Also count a call the run loop makes (dynamics defines support_radius)
        # or a driver makes through its own import.
        monkeypatch.setattr(dynamics, "support_radius", counting)
        monkeypatch.setattr(experiments, "support_radius", counting, raising=False)
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        result = klainerman_experiment(u0, u1, PhysicalParams(eps=0.05), 1.0, report_every=8)
        assert calls == list(result.times)
        assert result.support_radii == tuple(r.support_radius for r in result.reports)

    @pytest.mark.parametrize("fraction", [0.5, 0.6, 0.0])
    def test_support_fraction_must_lie_below_half(self, fraction: float) -> None:
        """The max-norm support radius never exceeds half the smallest side."""
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        with pytest.raises(ValueError, match="support_fraction"):
            klainerman_experiment(u0, u1, PhysicalParams(eps=0.05), 1.0, support_fraction=fraction)

    def test_data_at_the_floor_end_at_t0_with_a_nan_ratio(self) -> None:
        grid = Grid.cube(1, 64, length=4.0 * math.pi, origin_centered=True)
        x = grid.coordinate_mesh(0)
        p = PhysicalParams(eps=0.5, hyp_floor=0.9)
        result = klainerman_experiment(Field(grid, 0.5 * np.sin(x)), Field(grid, 0.5 * np.cos(x)), p, 1.0)
        assert result.cause is BreakdownCause.HYPERBOLICITY and result.times == (0.0,)
        assert math.isnan(result.ratios[0]) and math.isnan(result.reports[0].e_1m)

    def test_support_monitor_trips(self) -> None:
        grid = Grid.cube(1, 128, length=self._BOX, origin_centered=True)
        u0, u1 = self._bump_data(grid)
        result = klainerman_experiment(
            u0, u1, PhysicalParams(eps=0.05), 1.0, support_fraction=0.01
        )
        assert result.cause is BreakdownCause.SUPPORT
        assert result.times[-1] < 1.0


class TestOneStepper:
    def test_every_driver_steps_through_the_run_loop(self, monkeypatch) -> None:
        """No driver keeps a step loop of its own: all step through _advance."""

        def refuse(*args, **kwargs):
            raise AssertionError("stepped outside the run loop")

        # The run loop reads step from dynamics, which defines it; a driver
        # would read it through its own import.
        monkeypatch.setattr(dynamics, "step", refuse)
        monkeypatch.setattr(experiments, "step", refuse, raising=False)
        calls = []
        real_advance = dynamics._advance

        def advance(*args):
            calls.append(args[3])
            return real_advance(*args)

        monkeypatch.setattr(dynamics, "_advance", advance)
        grid = Grid.cube(1, 32)
        box = Grid.cube(1, 128, length=4.0 * math.pi, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        pair = _smooth_pair(grid)
        bump = Field(box, 0.01 * np.exp(-box.coordinate_mesh(0) ** 2 / 0.32)), Field.zeros(box)
        horizon = 0.5
        drivers = {
            "breakdown": (grid, lambda: run_until_breakdown(pair, p, horizon)),
            "sweep": (grid, lambda: lifespan_sweep(pair, [0.1, 0.2], p, horizon=horizon)),
            "stability": (grid, lambda: stability_experiment(pair, pair, p, horizon)),
            "decay": (grid, lambda: viscous_decay_experiment(
                *_smooth_pair(grid, 1e-3), replace(p, nu=1.0), 2, horizon)),
            "klainerman": (box, lambda: klainerman_experiment(*bump, p, horizon)),
        }
        for name, (g, run) in drivers.items():
            calls.clear()
            run()
            steps = math.ceil(horizon / cfl_dt(g, p.c) - 1e-12)
            assert calls == pytest.approx([k * horizon / steps for k in range(steps)]), name


class TestLeanRuns:
    """A run forms the report scalars and their integrals only when it records."""

    @staticmethod
    def _step_counts(monkeypatch, run) -> list[int]:
        """Transform calls of every step the run loop takes during run()."""
        counts = count_ffts(monkeypatch)
        per_step = []
        real_advance = dynamics._advance

        def advance(*args):
            before = sum(counts.values())
            out = real_advance(*args)
            per_step.append(sum(counts.values()) - before)
            return out

        monkeypatch.setattr(dynamics, "_advance", advance)
        run()
        monkeypatch.undo()
        return per_step

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scheme,nu", [(Scheme.EXPLICIT_RK4, 0.0), (Scheme.IMEX, 0.5)])
    def test_warm_step_transform_counts(self, monkeypatch, n: int, scheme: Scheme, nu: float) -> None:
        """A sweep, which keeps no records, steps in 5n+13 transforms under RK4
        and 4n+8 under IMEX; a run that records steps in 5n+14 and 4n+9."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(nu=nu, eps=0.1)
        horizon = 3.0 * cfl_dt(grid, p.c)
        lean = self._step_counts(monkeypatch, lambda: lifespan_sweep(
            _smooth_pair(grid), [0.1, 0.2], p, horizon=horizon, scheme=scheme))
        full = self._step_counts(monkeypatch, lambda: run_until_breakdown(
            _smooth_pair(grid), p, horizon, report_every=2, scheme=scheme))
        rk4 = scheme is Scheme.EXPLICIT_RK4
        assert lean == [5 * n + 13 if rk4 else 4 * n + 8] * 3
        assert full == [5 * n + 14 if rk4 else 4 * n + 9] * 3

    def test_monitor_of_a_lean_run_sees_nan_scalars(self, monkeypatch) -> None:
        """Without a record the run loop forms neither the scalars nor div_accum."""
        grid = Grid.cube(1, 32)
        p = PhysicalParams(eps=0.1)
        seen = []

        def monitor(fields, ev, div, dt):
            seen.append((ev.acc_sup, ev.lap_sup, ev.fnu, *div))
            return [None]

        dynamics._run(
            [_smooth_pair(grid)], [p.eps], p, ModelKind.KUZNETSOV, Scheme.EXPLICIT_RK4,
            3.0 * cfl_dt(grid, p.c), None, dynamics.DEFAULT_CFL, monitor,
        )
        assert len(seen) == 4 and all(math.isnan(x) for row in seen for x in row)



class TestSpectralState:
    """An IMEX run's state is its evaluation: its physical fields are formed
    on read, as the inverse transforms of the carried spectra."""

    @staticmethod
    def _data(grid: Grid) -> tuple[Field, Field]:
        """Data whose eps = 0.5 run trips a 0.603 floor at t = 0.2 (dt = 0.1) in
        the end-of-step evaluation, with the predictor still above it."""
        x = grid.coordinate_mesh(0)
        c = [[-0.676, -0.291, 0.493, 0.119], [-0.004, 0.176, 0.288, -0.283]]
        return tuple(
            Field(grid, sum(c[i][j] * f((j + 1) * x + (i + 1) * j) for j in range(4)))
            for i, f in enumerate((np.sin, np.cos))
        )

    @staticmethod
    def _run(members, eps, p) -> tuple[list, list[list[SimState]]]:
        calls: list[list[SimState]] = []
        ends = dynamics._run(
            members, eps, p, ModelKind.KUZNETSOV, Scheme.IMEX, 1.0, 0.1, dynamics.DEFAULT_CFL,
            record=calls.append, report_every=4,
        )
        return ends, calls

    @staticmethod
    def _assert_same(a: SimState, b: SimState) -> None:
        assert (a.t, a.fnu_accum, a.div_accum) == (b.t, b.fnu_accum, b.div_accum)
        for x, y in ((a.u, b.u), (a.v, b.v)):
            np.testing.assert_array_equal(x.values, y.values)
        for name in ("u_hat", "v_hat", "rem_hat", "acc_sup", "lap_sup", "fnu"):
            np.testing.assert_array_equal(getattr(a._fsal, name), getattr(b._fsal, name), err_msg=name)

    def _check_ending_member(self, p: PhysicalParams, cause: BreakdownCause, t_end: float) -> None:
        """Member 1 of three ends at t_end; its end record holds its last
        accepted state with fields rebuilt from its spectra, and the others
        equal their solo runs bit for bit."""
        grid = Grid.cube(1, 32)
        data, eps = self._data(grid), [0.1, 0.5, 0.2]
        ends, calls = self._run([data] * 3, eps, p)
        assert ends[1] == (pytest.approx(t_end), cause)
        assert ends[0] == ends[2] == (None, BreakdownCause.HORIZON)
        (last,) = next(call for call in calls if len(call) == 1)
        assert last.t == ends[1][0] and last.t not in (0.0, 0.4)  # not a report step
        np.testing.assert_array_equal(last.u.values, _to_physical(grid, last._fsal.u_hat))
        np.testing.assert_array_equal(last.v.values, _to_physical(grid, last._fsal.v_hat))
        solo_ends, solo_calls = self._run([data], [eps[1]], p)
        assert solo_ends == [ends[1]]
        self._assert_same(last, solo_calls[-1][0])
        survivors = [call for call in calls if len(call) != 1]
        for member, row in ((0, 0), (2, -1)):
            solo_ends, solo_calls = self._run([data], [eps[member]], p)
            assert solo_ends == [ends[member]] and len(solo_calls) == len(survivors)
            for call, (solo,) in zip(survivors, solo_calls):
                self._assert_same(call[row], solo)

    def test_floor_in_the_end_of_step_evaluation(self, monkeypatch) -> None:
        tripped = []
        real_evaluate = dynamics._evaluate

        def evaluate(*args):
            try:
                return real_evaluate(*args)
            except HyperbolicityBreakdown as exc:
                tripped.append(exc.members)
                raise

        monkeypatch.setattr(dynamics, "_evaluate", evaluate)
        self._check_ending_member(
            PhysicalParams(nu=0.5, hyp_floor=0.603), BreakdownCause.HYPERBOLICITY, 0.2
        )
        assert [m.tolist() for m in tripped[:1]] == [[False, True, False]]

    def test_non_finite_update(self, monkeypatch) -> None:
        """From its third step on, member 1's row of the propagator table e11
        is NaN: its update goes non-finite, which the end-of-step check catches."""
        p = PhysicalParams(nu=0.5)
        real_propagator = dynamics._propagator
        seen = {}

        def propagator(grid, dt, c, nu_eps):
            index, *tables = real_propagator(grid, dt, c, nu_eps)
            bad = p.nu * 0.5
            if isinstance(nu_eps, tuple) and bad in nu_eps:
                seen[nu_eps] = seen.get(nu_eps, 0) + 1
                if seen[nu_eps] >= 3:
                    tables[3] = tables[3].copy()
                    tables[3][nu_eps.index(bad)] = math.nan
            return (index, *tables)

        monkeypatch.setattr(dynamics, "_propagator", propagator)
        self._check_ending_member(p, BreakdownCause.NUMERICAL, 0.2)
