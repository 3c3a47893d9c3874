"""Tests for the energy functionals, envelopes, and closed-form thresholds.

Single-mode data give exact closed forms for every quadratic functional, the
cascade coefficients are recomputed symbolically, and the bookkeeping
identities (sandwich, envelope ODE, gain-function maximum) are checked as
properties on random admissible data.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzlab import (
    EnvelopeParams,
    Field,
    Grid,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    appendix_b_coefficients,
    appendix_densities,
    energy_half_m,
    energy_m,
    energy_nonl,
    energy_wave,
    f_nu,
    gronwall_envelope,
    initial_data_bound_check,
    klainerman_record,
    lifespan_T0,
    make_report,
    nonlinear_energy_alpha,
    proposition_b,
    s_half_m,
    step,
    theorem_45_energy,
    thresholds,
)
from kuzlab import energies
from kuzlab.dynamics import hyperbolicity_guard
from kuzlab.energies import _klainerman_sweep, _theorem_45_index_set
from kuzlab.errors import NonFiniteFieldError
from kuzlab.gamma import gamma_words
from kuzlab.jets import Jet, MultiIndex, build_jet

import helpers
from helpers import (
    apply_gamma,
    band_limited_field,
    count_ffts,
    shift_space,
    shift_time,
    single_mode,
    spatial_derivative,
)

PI = math.pi


def _wave_state(grid: Grid, k: int, a: float, d: float) -> SimState:
    """u = a sin(k x), u_t = d cos(k x) on the 2 pi box."""
    return SimState(single_mode(grid, (k,), a), Field(grid, d * np.cos(k * grid.axis_coordinates(0))))


def _stepped(grid: Grid, p: PhysicalParams, scheme: Scheme, seed: int) -> SimState:
    """A state one step past band-limited data, carrying the step's evaluation."""
    rng = np.random.default_rng(seed)
    state = SimState(band_limited_field(grid, rng, 0.05), band_limited_field(grid, rng, 0.05))
    return step(state, 0.01, p, ModelKind.KUZNETSOV, scheme)


class TestQuadraticFunctionals:
    def test_energy_wave_closed_form(self) -> None:
        grid = Grid.cube(1, 128)
        k, a, d, c = 3, 0.4, 0.7, 1.5
        state = _wave_state(grid, k, a, d)
        expected = d * d * PI + c * c * a * a * k * k * PI
        assert abs(energy_wave(state, PhysicalParams(c=c)) - expected) < 1e-12 * expected

    def test_nonlinear_energy_alpha_table(self) -> None:
        p = PhysicalParams(alpha=1.2, beta=3.0, c=2.0)
        assert nonlinear_energy_alpha(p, ModelKind.WAVE) == 0.0
        assert nonlinear_energy_alpha(p, ModelKind.DAMPED_WAVE) == 0.0
        assert nonlinear_energy_alpha(p, ModelKind.KUZNETSOV) == pytest.approx(0.8)
        assert nonlinear_energy_alpha(p, ModelKind.WESTERVELT) == pytest.approx(
            2.0 / 3.0 * (1.2 + 2.0 / 4.0)
        )

    def test_energy_nonl_cubic_term(self) -> None:
        """E_nonl - E = -(2/3) alpha_eff eps int u_t^3, evaluated directly."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, eps=0.2)
        state = _wave_state(grid, 2, 0.3, 0.5)
        cubic = grid.cell_volume * float(np.sum(state.v.values**3))
        expected = energy_wave(state, p) - (2.0 / 3.0) * p.eps * cubic
        assert energy_nonl(state, p, ModelKind.KUZNETSOV) == pytest.approx(
            expected, rel=1e-13
        )

    def test_energy_nonl_reduces_to_wave_energy(self) -> None:
        grid = Grid.cube(2, 32)
        rng = np.random.default_rng(0)
        state = SimState(band_limited_field(grid, rng, 0.5), band_limited_field(grid, rng, 0.5))
        p = PhysicalParams(alpha=2.0, eps=0.3)
        assert energy_nonl(state, p, ModelKind.WAVE) == energy_wave(state, p)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sandwich_under_guard(self, seed: int) -> None:
        """E/2 <= E_nonl <= 3E/2 whenever the sup-norm guard holds."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, eps=0.1)
        rng = np.random.default_rng(seed)
        guard = hyperbolicity_guard(p, ModelKind.KUZNETSOV)
        state = SimState(
            band_limited_field(grid, rng, 0.2),
            band_limited_field(grid, rng, 0.95 * guard),
        )
        e = energy_wave(state, p)
        e_nonl = energy_nonl(state, p, ModelKind.KUZNETSOV)
        assert 0.5 * e <= e_nonl <= 1.5 * e

    def test_f_nu_direct_formula(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.2, nu=0.5)
        state = _wave_state(grid, 2, 0.3, 0.4)
        from kuzlab.fields import gradient_values

        alpha_e = nonlinear_energy_alpha(p, ModelKind.KUZNETSOV)
        v = state.v.values
        grad_sq = sum(g**2 for g in gradient_values(grid, state.u.values))
        expected = (
            grid.cell_volume * float(np.sum(v * v))
            - alpha_e * p.eps * grid.cell_volume * float(np.sum(v**3))
            + grid.cell_volume * float(np.sum((p.c**2 - p.beta * p.eps * v) * grad_sq))
        )
        assert f_nu(state, p, ModelKind.KUZNETSOV) == pytest.approx(expected, rel=1e-13)

    def test_cubes_by_multiplication_match_pow(self) -> None:
        """E_nonl and F_nu cube u_t by multiplication, which on random data
        differs from pow's cube by an ulp at about a quarter of the points;
        the functionals agree with the pow forms to 1e-13."""
        grid = Grid.cube(2, 32)
        rng = np.random.default_rng(29)
        state = SimState(band_limited_field(grid, rng, 0.5), band_limited_field(grid, rng, 2.0))
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.2)
        from kuzlab.fields import gradient_values

        v = state.v.values
        alpha_e = nonlinear_energy_alpha(p, ModelKind.KUZNETSOV)
        vt_term = grid.cell_volume * (
            float(np.sum(v**2)) - alpha_e * p.eps * float(np.sum(v**3))
        )
        grad_sq = sum(g**2 for g in gradient_values(grid, state.u.values))
        grad_int = grid.cell_volume * float(np.sum(grad_sq))
        coupled = grid.cell_volume * float(np.sum((p.c**2 - p.beta * p.eps * v) * grad_sq))
        assert energy_nonl(state, p) == pytest.approx(vt_term + p.c**2 * grad_int, rel=1e-13)
        assert f_nu(state, p) == pytest.approx(vt_term + coupled, rel=1e-13)

    def test_f_nu_includes_running_accumulator(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams()
        state = _wave_state(grid, 1, 0.1, 0.1)
        shifted = SimState(state.u, state.v, t=state.t, fnu_accum=2.5)
        assert f_nu(shifted, p) == pytest.approx(f_nu(state, p) + 2.5, rel=1e-13)

    def test_f_nu_equals_wave_energy_for_linear_kind(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.3)
        state = _wave_state(grid, 2, 0.2, 0.3)
        assert f_nu(state, p, ModelKind.WAVE) == pytest.approx(
            energy_wave(state, p), rel=1e-13
        )

    def test_f_nu_peak_on_imex_state(self) -> None:
        """An IMEX carry holds no gradient, so F_nu forms grad u itself, one
        component at a time: its peak stays under 3.5 spectrum sizes on 32^3."""
        grid = Grid.cube(3, 32)
        p = PhysicalParams(nu=0.5)
        state = _stepped(grid, p, Scheme.IMEX, 3)
        assert state._fsal.grad_u is None
        expected = f_nu(state, p)  # builds the grid's caches before tracing
        tracemalloc.start()
        try:
            value = f_nu(state, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak <= 3.5 * state._fsal.u_hat.nbytes


class TestTowerEnergies:
    def _wave_jet(self, grid: Grid, k: int, a: float, d: float, c: float, order: int) -> Jet:
        p = PhysicalParams(c=c)
        return build_jet(_wave_state(grid, k, a, d), p, order, ModelKind.WAVE)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_energy_m_closed_form(self, m: int) -> None:
        """Wave-jet E_m on a single mode: every layer is an explicit trig field."""
        grid = Grid.cube(1, 128)
        k, a, d, c = 2, 0.4, 0.6, 1.5
        jet = self._wave_jet(grid, k, a, d, c, m + 1)
        w = 1.0 + k * k
        # layer i amplitude: |d_t^i u| alternates (ck)^i times a or d.
        amp = [a, d]
        for i in range(2, m + 2):
            amp.append((c * k) ** 2 * amp[i - 2])
        expected = a * a * k * k * PI * w**m
        for i in range(1, m + 2):
            expected += amp[i] ** 2 * PI * w ** (m + 1 - i)
        assert energy_m(jet, m) == pytest.approx(expected, rel=1e-11)

    def test_energy_m_validation(self) -> None:
        grid = Grid.cube(1, 32)
        jet = self._wave_jet(grid, 1, 0.1, 0.1, 1.0, 2)
        with pytest.raises(ValueError):
            energy_m(jet, -1)
        with pytest.raises(ValueError):
            energy_m(jet, 2)  # needs order 3

    def test_energy_half_m_closed_form(self) -> None:
        """E_{m/2} at m = 2: ||grad u||_{H^2}^2 + ||u_t||_{H^2}^2 + ||u_tt||^2."""
        grid = Grid.cube(1, 128)
        k, a, d, c = 2, 0.4, 0.6, 1.5
        jet = self._wave_jet(grid, k, a, d, c, 2)
        w = 1.0 + k * k
        expected = (
            a * a * k * k * PI * w**2
            + d * d * PI * w**2
            + ((c * k) ** 2 * a) ** 2 * PI
        )
        assert energy_half_m(jet, 2) == pytest.approx(expected, rel=1e-11)

    def test_s_half_m_closed_form(self) -> None:
        """S_{m/2} at m = 2: ||grad u_t||_{H^2}^2 + ||grad u_tt||^2."""
        grid = Grid.cube(1, 128)
        k, a, d, c = 2, 0.4, 0.6, 1.5
        jet = self._wave_jet(grid, k, a, d, c, 2)
        w = 1.0 + k * k
        expected = d * d * k * k * PI * w**2 + ((c * k) ** 2 * a * k) ** 2 * PI
        assert s_half_m(jet, 2) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("func", [energy_half_m, s_half_m])
    def test_half_m_parity_validation(self, func) -> None:
        grid = Grid.cube(1, 32)
        jet = self._wave_jet(grid, 1, 0.1, 0.1, 1.0, 3)
        with pytest.raises(ValueError):
            func(jet, 1)
        with pytest.raises(ValueError):
            func(jet, 6)  # needs order 4

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "func,m,terms",
        [(energy_m, 0, 2), (energy_m, 2, 4), (energy_half_m, 2, 3), (energy_half_m, 4, 4),
         (s_half_m, 0, 1), (s_half_m, 4, 3)],
    )
    def test_one_forward_transform_per_term(self, monkeypatch, n: int, func, m: int, terms: int) -> None:
        """On a jet that holds no spectra, a tower transforms each term once."""
        grid = Grid.cube(n, 16)
        rng = np.random.default_rng(4)
        state = SimState(band_limited_field(grid, rng, 0.1), band_limited_field(grid, rng, 0.1))
        jet = Jet(grid, build_jet(state, PhysicalParams(nu=0.5), 3).layers)
        counts = count_ffts(monkeypatch)
        func(jet, m)
        assert counts == {"forward": terms, "inverse": 0}

    def test_energy_m0_is_plain_wave_pair(self) -> None:
        """E_0 = ||grad u||^2 + ||u_t||^2, both in L^2."""
        grid = Grid.cube(1, 64)
        jet = self._wave_jet(grid, 3, 0.2, 0.5, 1.0, 1)
        expected = 0.2**2 * 9 * PI + 0.5**2 * PI
        assert energy_m(jet, 0) == pytest.approx(expected, rel=1e-11)


def _swept_word_fields(monkeypatch, jet: Jet, t: float, m_sum: int, m_sup: int):
    """Run the sweep, recording each word field it forms and the memo it read.

    Returns the recorded fields and apply_gamma's fields on a jet of the same
    memo, reading the memo's derivatives in place of its own, both indexed
    [source][word]; the sources come one at a time, each with a memo of its own.
    """
    recorded: list[tuple[dict, np.ndarray]] = []
    word_values = energies._word_values

    def recording(plan, memo, buf, total):
        values = word_values(plan, memo, buf, total)
        recorded.append((memo, values.copy()))
        return values

    monkeypatch.setattr(energies, "_word_values", recording)
    _klainerman_sweep(jet, t, m_sum, m_sup)
    monkeypatch.undo()
    grid, n = jet.grid, jet.grid.n
    words = gamma_words(n, m_sum)
    assert len(recorded) == (n + 1) * len(words)
    swept, applied = [], []
    for s in range(n + 1):
        block = recorded[s * len(words) : (s + 1) * len(words)]
        memo = block[0][0]
        assert all(entry[0] is memo for entry in block)
        assert all(memo is not other[0] for other in recorded[: s * len(words)])
        source = Jet(grid, tuple(Field(grid, memo[(k,) + (0,) * n]) for k in range(m_sum + 1)))
        swept.append([values for _, values in block])
        monkeypatch.setattr(helpers, "apply_multi_derivative", lambda _, index: Field(grid, memo[index.orders]))
        applied.append([apply_gamma(source, t, word).values for word in words])
        monkeypatch.undo()
    return swept, applied


class TestKlainerman:
    def test_m0_equals_unit_speed_wave_energy(self) -> None:
        """The record's jet is of order 2, as the ratio also sweeps words of length m + n* = 1."""
        grid = Grid.cube(1, 64, origin_centered=True)
        p = PhysicalParams(c=1.0)
        state = _wave_state(grid, 2, 0.3, 0.4)
        jet = build_jet(state, p, 2, ModelKind.WAVE)
        _, e1, einf = klainerman_record(jet, 0.0, 0)
        assert e1 == pytest.approx(energy_wave(state, p), rel=1e-12)
        from kuzlab.fields import gradient_values

        density = state.v.values**2 + sum(
            g**2 for g in gradient_values(grid, state.u.values)
        )
        assert einf == pytest.approx(float(np.max(density)), rel=1e-12)

    def test_m1_against_manual_word_sum(self) -> None:
        """Independent n = 1 recomputation of E_{1,1} and E_{inf,1} at t > 0."""
        grid = Grid.cube(1, 64, origin_centered=True)
        p = PhysicalParams(eps=0.05)
        state = SimState(single_mode(grid, (1,), 0.1), single_mode(grid, (2,), 0.05))
        jet = build_jet(state, p, 3, ModelKind.KUZNETSOV)
        t = 0.7
        x = grid.coordinate_mesh(0)

        def words_applied(w: Jet) -> list[np.ndarray]:
            f = w.layer(0).values
            ft = w.layer(1).values
            fx = spatial_derivative(w.layer(0), 0).values
            return [
                f,                # Id
                t * ft + x * fx,  # L0
                x * ft + t * fx,  # L1
                ft,               # d_t
                fx,               # d_x
            ]

        pieces_t = words_applied(shift_time(jet))
        pieces_x = words_applied(shift_space(jet, 0))
        density_total = np.zeros(grid.shape)
        density_sup = np.zeros(grid.shape)
        for gt, gx in zip(pieces_t, pieces_x):
            density = gt**2 + gx**2
            density_total += density
            np.maximum(density_sup, density, out=density_sup)
        e1_manual = grid.cell_volume * float(np.sum(density_total))
        einf_manual = float(np.max(density_sup))

        _, e1, einf = klainerman_record(jet, t, 1)
        assert e1 == pytest.approx(e1_manual, rel=1e-12)
        assert einf == pytest.approx(einf_manual, rel=1e-12)

    def test_ratio_zero_for_zero_jet(self) -> None:
        grid = Grid.cube(1, 16, origin_centered=True)
        jet = Jet(grid, (Field.zeros(grid),) * 4)
        assert klainerman_record(jet, 1.0, 0)[0] == 0.0

    def test_ratio_weight_dimension_dependence(self) -> None:
        """For n = 1 the weight is (1+t)^0, so the ratio is sqrt(Einf/E1) with E1
        summed over words one longer than the sup."""
        grid = Grid.cube(1, 64, origin_centered=True)
        p = PhysicalParams(eps=0.05)
        state = SimState(single_mode(grid, (1,), 0.1), single_mode(grid, (2,), 0.05))
        jet = build_jet(state, p, 3, ModelKind.KUZNETSOV)
        t = 0.5
        from kuzlab.energies import _klainerman_sweep

        e1, _, einf = _klainerman_sweep(jet, t, 1, 0)
        assert klainerman_record(jet, t, 0)[0] == pytest.approx(
            math.sqrt(einf) / math.sqrt(e1), rel=1e-12
        )

    def test_record_matches_ratio_and_energies_bitwise(self) -> None:
        """One sweep yields the ratio and the report's E_{1,m}, E_{inf,m} exactly:
        those of a sweep over words of length <= m, and the ratio's formula on
        a sweep over words of length <= m + n*."""
        grid = Grid.cube(2, 32, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        rng = np.random.default_rng(17)
        state = SimState(band_limited_field(grid, rng, 0.1), band_limited_field(grid, rng, 0.1))
        jet = build_jet(state, p, 3, ModelKind.KUZNETSOV)
        t = 0.7
        ratio, e_1m, e_inf_m = klainerman_record(jet, t, 0)
        assert (e_1m, e_inf_m) == _klainerman_sweep(jet, t, 0, 0)[1:]
        e_1, _, e_inf = _klainerman_sweep(jet, t, 2, 0)
        assert ratio == math.sqrt(e_inf) / ((1.0 + t) ** -0.5 * math.sqrt(e_1))

    @pytest.mark.parametrize("n,points", [(1, 64), (2, 32), (3, 16)])
    def test_sweep_matches_independent_word_sum(self, n: int, points: int) -> None:
        """Words of length <= 2 at t > 0: the sweep equals a per-word sum over
        shift_time/shift_space jets with a memo-less apply_gamma."""
        grid = Grid.cube(n, points, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 37)
        jet = build_jet(state, p, 3)
        t = state.t
        plain = Jet(grid, jet.layers)
        sources = [shift_time(plain)]
        sources += [shift_space(Jet(grid, plain.layers[:3]), axis) for axis in range(n)]
        e_1 = e_1_sup = 0.0
        density_sup = np.zeros(grid.shape)
        for word in gamma_words(n, 2):
            density = sum(apply_gamma(source, t, word).values ** 2 for source in sources)
            energy = grid.cell_volume * float(np.sum(density))
            e_1 += energy
            if len(word.word) <= 1:
                e_1_sup += energy
                density_sup = np.maximum(density_sup, density)
        swept = _klainerman_sweep(jet, t, 2, 1)
        expected = (e_1, e_1_sup, float(np.max(density_sup)))
        assert swept == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_record_transform_count(self, monkeypatch) -> None:
        """In 2-d, m = 0 sweeps words of length <= 2, which need D^A with
        |A| <= 2 (10 multi-indices), over u_t and each d_i u. For u_t, the 3
        time layers and the 4 held gradients of u_t and u_tt are free; for
        d_i u, the 3 time layers are held gradients. Each other D^A is one
        inverse transform: 3 + 7 + 7."""
        grid = Grid.cube(2, 32, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 41)
        jet = build_jet(state, p, 3)
        counts = count_ffts(monkeypatch)
        klainerman_record(jet, state.t, 0)
        assert counts == {"forward": 0, "inverse": 17}

    @pytest.mark.parametrize("n,points", [(1, 64), (2, 32), (3, 16)])
    def test_word_fields_are_apply_gamma_bitwise(self, monkeypatch, n: int, points: int) -> None:
        """For every word and source, the sweep's word field is bitwise
        apply_gamma's on the same derivatives: one evaluator serves both. For
        u_t those derivatives are the ones its shifted jet gives apply_gamma."""
        grid = Grid.cube(n, points, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 43)
        jet = build_jet(state, p, 3)
        t = 0.3 + state.t
        swept, applied = _swept_word_fields(monkeypatch, jet, t, 2, 1)
        for swept_fields, applied_fields in zip(swept, applied):
            for values, expected in zip(swept_fields, applied_fields):
                assert np.array_equal(values, expected)
        shifted = shift_time(jet)
        for values, word in zip(swept[0], gamma_words(n, 2)):
            assert np.array_equal(values, apply_gamma(shifted, t, word).values)

    @pytest.mark.parametrize("n,points,m", [(1, 64, 0), (1, 64, 1), (2, 32, 0), (3, 16, 0)])
    def test_record_matches_pointwise_reference(self, monkeypatch, n: int, points: int, m: int) -> None:
        """E_{1,m} and E_{inf,m} are bitwise a pointwise density summed over
        the sources in order (u_t, then each d_i u); the ratio agrees with
        the same formula over all words of length <= m + n* to 1e-14."""
        grid = Grid.cube(n, points, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 47)
        jet = build_jet(state, p, 3)
        t = 1.5
        m_sum = m + n // 2 + 1
        _, applied = _swept_word_fields(monkeypatch, jet, t, m_sum, m)
        e_1 = e_1m = 0.0
        density_sup = np.zeros(grid.shape)
        for w, word in enumerate(gamma_words(n, m_sum)):
            density = np.square(applied[0][w])
            for fields in applied[1:]:
                density += np.square(fields[w])
            energy = grid.cell_volume * float(np.sum(density))
            e_1 += energy
            if len(word.word) <= m:
                e_1m += energy
                np.maximum(density_sup, density, out=density_sup)
        e_inf = float(np.max(density_sup))
        ratio, record_e_1m, record_e_inf = klainerman_record(jet, t, m)
        assert (record_e_1m, record_e_inf) == (e_1m, e_inf)
        expected = math.sqrt(e_inf) / ((1.0 + t) ** ((1 - n) / 2.0) * math.sqrt(e_1))
        assert ratio == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n,points,budget", [(2, 128, 14.0), (3, 32, 19.5)])
    def test_sweep_peak(self, n: int, points: int, budget: float) -> None:
        """What a record's sweep allocates at its peak, in full-grid field
        sizes, on a jet whose caches are already built: one source's memo
        at a time plus the word buffers, not every source's memo at once."""
        grid = Grid.cube(n, points, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 53)
        jet = build_jet(state, p, 3)
        klainerman_record(jet, state.t, 0)
        tracemalloc.start()
        try:
            klainerman_record(jet, state.t, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * state.u.values.nbytes

    @pytest.mark.parametrize("plant", ["gradient", "spectrum"])
    def test_non_finite_word_raises(self, plant: str) -> None:
        """A NaN in what the jet holds reaches a word field and must raise:
        a held gradient through its checked Field, a held spectrum through
        the square-sum of the words that differentiate it."""
        grid = Grid.cube(2, 16, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 59)
        jet = build_jet(state, p, 3)
        if plant == "gradient":
            bad = jet._gradients[0][1].copy()
            bad[3, 5] = np.nan
            jet._gradients[0] = [jet._gradients[0][0], bad]
        else:
            bad = jet._spectra[0].copy()
            bad[2, 1] = np.nan
            jet._spectra[0] = bad
        with pytest.raises(NonFiniteFieldError):
            klainerman_record(jet, state.t, 0)

    def test_overflowing_squares_raise(self) -> None:
        """Finite word fields whose squares overflow make E_{1,m} infinite,
        which the square-sum check reports as non-finite."""
        grid = Grid.cube(2, 16, length=8.0, origin_centered=True)
        rng = np.random.default_rng(61)
        layers = tuple(Field(grid, 1e160 * band_limited_field(grid, rng, 1.0).values) for _ in range(4))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteFieldError):
            klainerman_record(Jet(grid, layers), 0.5, 0)

    def test_off_origin_grid_raises(self) -> None:
        """The coordinate weights x_i mean something only on an origin-centered
        grid; on any other the record refuses, as apply_gamma does."""
        grid = Grid.cube(2, 16)
        jet = Jet(grid, (Field.zeros(grid),) * 4)
        with pytest.raises(ValueError, match="origin-centered"):
            klainerman_record(jet, 0.5, 0)

    def test_ratio_validation(self) -> None:
        grid = Grid.cube(2, 16, origin_centered=True)
        jet = Jet(grid, (Field.zeros(grid),) * 4)
        with pytest.raises(ValueError):
            klainerman_record(jet, 0.0, 1)  # m + n* = 1 + 2 > 2
        with pytest.raises(ValueError):
            klainerman_record(jet, 0.0, 3)
        with pytest.raises(ValueError, match="must be >= 0"):
            klainerman_record(jet, 0.0, -1)


class TestAppendixDensities:
    @pytest.mark.parametrize("A", [(0, 0), (1, 0), (0, 1)])
    def test_exact_wave_jet_annihilates_j(self, A: tuple[int, int]) -> None:
        """L_u (D^A u) = 0 for a consistent linear jet, so int J vanishes."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(c=1.5)
        jet = build_jet(_wave_state(grid, 2, 0.3, 0.4), p, 3, ModelKind.WAVE)
        out = appendix_densities(jet, MultiIndex(A), p, ModelKind.WAVE)
        assert out.dissipation == 0.0
        assert abs(out.j_int) < 1e-10
        if A == (0, 0):
            state = _wave_state(grid, 2, 0.3, 0.4)
            assert out.i_int == pytest.approx(energy_wave(state, p), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_kuznetsov_matches_direct_recomputation(self, n: int) -> None:
        """Recompute I, J, and the dissipation for v = u_t from the jet layers
        with explicit numpy arithmetic and the formulas as written; in 2-d the
        coupling grad u . grad v_t sums over both axes."""
        from kuzlab.fields import gradient_values, laplacian_values

        grid = Grid.cube(n, 128 if n == 1 else 32)
        p = PhysicalParams(alpha=1.0, beta=2.0, nu=0.5, eps=0.1)
        state = SimState(single_mode(grid, (1,) * n, 0.1), single_mode(grid, (2,) + (1,) * (n - 1), 0.05))
        jet = build_jet(state, p, 3, ModelKind.KUZNETSOV)
        out = appendix_densities(jet, MultiIndex((1,) + (0,) * n), p, ModelKind.KUZNETSOV)

        u, u_t, u_tt = (jet.layer(i).values for i in range(3))
        v, vt, vtt = u_t, u_tt, jet.layer(3).values
        vol = grid.cell_volume
        e = p.eps
        grad_v = gradient_values(grid, v)
        i_manual = (
            vol * float(np.sum(vt**2))
            + p.c**2 * sum(vol * float(np.sum(g**2)) for g in grad_v)
            - p.alpha * e * vol * float(np.sum(u_t * vt**2))
        )
        grad_u = gradient_values(grid, u)
        grad_vt = gradient_values(grid, vt)
        lu_v = (
            vtt
            - p.c**2 * laplacian_values(grid, v)
            - p.nu * e * laplacian_values(grid, vt)
            - p.alpha * e * u_t * vtt
            - p.beta * e * sum(a * b for a, b in zip(grad_u, grad_vt))
        )
        bracket = p.alpha * e * u_tt + p.beta * e * laplacian_values(grid, u)
        j_manual = vol * float(np.sum(2.0 * lu_v * vt - bracket * vt**2))
        diss_manual = 2.0 * p.nu * e * sum(
            vol * float(np.sum(g**2)) for g in grad_vt
        )
        assert out.i_int == pytest.approx(i_manual, rel=1e-12)
        assert out.j_int == pytest.approx(j_manual, rel=1e-9, abs=1e-12)
        assert out.dissipation == pytest.approx(diss_manual, rel=1e-12)

    def test_dissipation_closed_form(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(nu=0.8, eps=0.2, c=1.0)
        jet = build_jet(_wave_state(grid, 3, 0.2, 0.5), p, 2, ModelKind.DAMPED_WAVE)
        out = appendix_densities(jet, MultiIndex((0, 0)), p, ModelKind.DAMPED_WAVE)
        vt = jet.layer(1)
        from kuzlab.fields import gradient_values

        expected = 2.0 * p.nu * p.eps * sum(
            grid.cell_volume * float(np.sum(g**2))
            for g in gradient_values(grid, vt.values)
        )
        assert out.dissipation == pytest.approx(expected, rel=1e-12)

    def test_jet_order_validation(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams()
        jet = build_jet(_wave_state(grid, 1, 0.1, 0.1), p, 2, ModelKind.WAVE)
        with pytest.raises(ValueError):
            appendix_densities(jet, MultiIndex((1, 0)), p, ModelKind.WAVE)


class TestEnvelopeAndLifespan:
    def test_proposition_b_values(self) -> None:
        assert proposition_b(1.0) == pytest.approx(10.0)
        assert proposition_b(0.5) == pytest.approx(14.0)
        assert proposition_b(2.0) == pytest.approx(22.0)

    def test_envelope_params_validation(self) -> None:
        with pytest.raises(ValueError):
            EnvelopeParams(C_m=0.0)
        with pytest.raises(ValueError):
            EnvelopeParams(B=-1.0)
        assert EnvelopeParams(B=None).resolve_b(PhysicalParams(c=1.0)) == pytest.approx(10.0)
        assert EnvelopeParams(B=7.0).resolve_b(PhysicalParams(c=1.0)) == 7.0

    def test_envelope_initial_value_and_zero(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.1)
        assert gronwall_envelope(3.0, 1.5, p, 0.0) == 3.0
        assert gronwall_envelope(0.0, 1.5, p, 10.0) == 0.0

    def test_envelope_validation(self) -> None:
        p = PhysicalParams()
        with pytest.raises(ValueError):
            gronwall_envelope(-1.0, 1.0, p, 0.0)
        with pytest.raises(ValueError):
            gronwall_envelope(1.0, 1.0, p, -0.5)

    def test_envelope_pole(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=0.5, eps=0.1)
        z0, C = 4.0, 2.0
        t_pole = 2.0 / (math.sqrt(z0) * C * max(p.alpha, p.beta) * p.eps)
        assert gronwall_envelope(z0, C, p, 0.999 * t_pole) > 1e5
        with pytest.raises(ValueError, match="pole"):
            gronwall_envelope(z0, C, p, t_pole)

    def test_envelope_satisfies_comparison_ode(self) -> None:
        """z' = C max(alpha, beta) eps z^{3/2}, checked by central differences."""
        p = PhysicalParams(alpha=2.0, beta=1.0, eps=0.05)
        z0, C, t, h = 1.7, 1.3, 2.0, 1e-5
        zp = (gronwall_envelope(z0, C, p, t + h) - gronwall_envelope(z0, C, p, t - h)) / (2 * h)
        z = gronwall_envelope(z0, C, p, t)
        assert zp == pytest.approx(C * max(p.alpha, p.beta) * p.eps * z**1.5, rel=1e-8)

    def test_lifespan_closed_form_and_scaling(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.1, c=1.0)
        env = EnvelopeParams(C_m0=2.0)
        e0 = 0.3
        expected = 1.0 / (2.0 * 2.0 * 0.1 * math.sqrt(10.0) * 0.3)
        assert lifespan_T0(e0, p, env) == pytest.approx(expected, rel=1e-13)
        assert lifespan_T0(2 * e0, p, env) == pytest.approx(expected / 2, rel=1e-13)
        half_eps = PhysicalParams(alpha=1.0, beta=2.0, eps=0.05, c=1.0)
        assert lifespan_T0(e0, half_eps, env) == pytest.approx(2 * expected, rel=1e-13)
        assert lifespan_T0(0.0, p, env) == math.inf
        assert lifespan_T0(-1.0, p, env) == math.inf


class TestThresholds:
    def test_closed_forms(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=1.0, nu=1.0, eps=0.1, c=1.0)
        rec = thresholds(p, EnvelopeParams())
        assert rec.b == pytest.approx(10.0)
        assert rec.sqrt_e_m0_max == pytest.approx(1.0 / (4.0 * math.sqrt(10.0) * 0.1))
        assert rec.sqrt_e_half_max == pytest.approx(math.sqrt(2.0) / math.sqrt(2.5))
        assert rec.e_theorem_max == pytest.approx(2.0)
        assert rec.r_star == pytest.approx(0.125)

    def test_gain_function_peak(self) -> None:
        """w attains its maximum w(r*) = r*/2 exactly at the fixed-point radius."""
        p = PhysicalParams(alpha=1.0, beta=2.0, nu=0.7, eps=0.1)
        rec = thresholds(p, EnvelopeParams(c0=1.3, c_embed=0.9))
        r = rec.r_star
        assert rec.w(r) == pytest.approx(r / 2.0, rel=1e-13)
        assert rec.w(0.9 * r) < rec.w(r)
        assert rec.w(1.1 * r) < rec.w(r)

    def test_inviscid_limits(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=1.0, nu=0.0, eps=0.1)
        rec = thresholds(p, EnvelopeParams())
        assert rec.sqrt_e_half_max == 0.0
        assert rec.e_theorem_max == 0.0
        assert rec.r_star == 0.0
        assert rec.w(0.3) == 0.3  # no quadratic penalty without viscosity

    def test_viscosity_scaling(self) -> None:
        base = PhysicalParams(alpha=1.0, beta=1.0, nu=0.5, eps=0.1)
        double = PhysicalParams(alpha=1.0, beta=1.0, nu=1.0, eps=0.1)
        env = EnvelopeParams()
        t1, t2 = thresholds(base, env), thresholds(double, env)
        assert t2.sqrt_e_half_max == pytest.approx(2 * t1.sqrt_e_half_max)
        assert t2.e_theorem_max == pytest.approx(4 * t1.e_theorem_max)
        assert t2.r_star == pytest.approx(2 * t1.r_star)


class TestTheorem45Energy:
    def test_index_set_n1_m2(self) -> None:
        got = {A.orders for A in _theorem_45_index_set(2, 1)}
        assert got == {(0, 0), (0, 1), (0, 2), (1, 0)}

    def test_index_set_n2_m2(self) -> None:
        got = {A.orders for A in _theorem_45_index_set(2, 2)}
        assert got == {
            (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
            (1, 0, 0),
        }

    def test_wave_closed_form(self) -> None:
        grid = Grid.cube(1, 128)
        k, a, d, c = 2, 0.3, 0.5, 1.5
        p = PhysicalParams(c=c)
        jet = build_jet(_wave_state(grid, k, a, d), p, 2, ModelKind.WAVE)
        k2, c2 = float(k * k), c * c
        expected = (
            (d * d + c2 * a * a * k2) * PI
            + (d * d * k2 + c2 * a * a * k2 * k2) * PI
            + (d * d * k2 * k2 + c2 * a * a * k2**3) * PI
            + ((c2 * k2) ** 2 * a * a + c2 * d * d * k2) * PI
        )
        assert theorem_45_energy(jet, 2, p, ModelKind.WAVE) == pytest.approx(
            expected, rel=1e-11
        )

    def test_weight_lowers_energy_for_positive_ut(self) -> None:
        """The (1 - alpha eps u_t) weight strictly reduces the positive-u_t part."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, eps=0.2)
        u0 = single_mode(grid, (1,), 0.05)
        u1 = Field(grid, np.full(grid.shape, 0.4))  # constant positive u_t
        jet_k = build_jet(SimState(u0, u1), p, 2, ModelKind.KUZNETSOV)
        e_weighted = theorem_45_energy(jet_k, 0, p, ModelKind.KUZNETSOV)
        e_plain = theorem_45_energy(jet_k, 0, p, ModelKind.WAVE)
        assert e_weighted < e_plain

    def test_reads_the_jet_spectra(self, monkeypatch) -> None:
        """3-d, m = 2 on an IMEX-stepped jet: the gradient terms are quadratures
        of carried spectra, and each weighted term with a spatial derivative
        takes one inverse (9 of the 11 multi-indices). The value matches the
        per-axis derivative chain."""
        from kuzlab.fields import gradient_values

        grid = Grid.cube(3, 16)
        p = PhysicalParams(nu=0.5, eps=0.1)
        state = _stepped(grid, p, Scheme.IMEX, 53)
        jet = build_jet(state, p, 2)
        counts = count_ffts(monkeypatch)
        energy = theorem_45_energy(jet, 2, p)
        monkeypatch.undo()
        assert counts == {"forward": 0, "inverse": 9}

        def chain(field: Field, spatial: tuple[int, ...]) -> Field:
            for axis, order in enumerate(spatial):
                if order:
                    field = spatial_derivative(field, axis, order)
            return field

        weight = 1.0 - p.alpha * p.eps * jet.layer(1).values
        expected = 0.0
        for A in _theorem_45_index_set(2, 3):
            da_u = chain(jet.layer(A.time_order), A.spatial_orders).values
            da_ut = chain(jet.layer(A.time_order + 1), A.spatial_orders).values
            expected += grid.cell_volume * float(np.sum(weight * da_ut**2))
            grad_sq = sum(float(np.sum(g**2)) for g in gradient_values(grid, da_u))
            expected += grid.cell_volume * grad_sq
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_validation(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams()
        jet = build_jet(_wave_state(grid, 1, 0.1, 0.1), p, 1, ModelKind.WAVE)
        with pytest.raises(ValueError):
            theorem_45_energy(jet, 1, p)
        with pytest.raises(ValueError):
            theorem_45_energy(jet, 2, p)  # needs order 2


class TestAppendixBCoefficients:
    def test_unit_speed_values(self) -> None:
        assert appendix_b_coefficients(4, 1.0) == [1.0, 4.0, 17.0, 70.0, 289.0]

    def test_symbolic_recursion(self) -> None:
        """Recompute the recursion over sympy rationals; a_2 = 8c^2 + 9."""
        c = sp.Symbol("c", positive=True)
        coeffs = [sp.Integer(1), 2 * c**2 + 2]
        running = coeffs[0] + coeffs[1]
        for k in range(1, 3):
            nxt = sp.expand(coeffs[k] + 2 * c**2 * coeffs[k - 1] + 2 * running + 1)
            coeffs.append(nxt)
            running += nxt
        assert sp.simplify(coeffs[2] - (8 * c**2 + 9)) == 0
        for k, value in enumerate(appendix_b_coefficients(3, 1.7)):
            assert value == pytest.approx(float(coeffs[k].subs(c, sp.Rational(17, 10))))

    def test_validation_and_lengths(self) -> None:
        with pytest.raises(ValueError):
            appendix_b_coefficients(-1, 1.0)
        assert appendix_b_coefficients(0, 2.0) == [1.0]
        assert len(appendix_b_coefficients(5, 1.0)) == 6

    def test_monotone_growth(self) -> None:
        coeffs = appendix_b_coefficients(6, 1.0)
        assert all(b > a for a, b in zip(coeffs, coeffs[1:]))


class TestInitialDataBound:
    def test_small_data_bounds_hold(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, beta=2.0, eps=0.1)
        u0 = single_mode(grid, (1,), 0.05)
        u1 = single_mode(grid, (2,), 0.02)
        report = initial_data_bound_check(u0, u1, p, 4)
        assert report.m == 4
        assert len(report.lhs) == 3
        assert report.all_hold
        assert all(margin > 0 for margin in report.margins)

    def test_k0_margin_is_grad_norm(self) -> None:
        """a_0 = 1 makes the k = 0 margin exactly ||grad u0||_{H^m}."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams()
        u0 = single_mode(grid, (1,), 0.05)
        u1 = single_mode(grid, (2,), 0.02)
        report = initial_data_bound_check(u0, u1, p, 2)
        from kuzlab.fields import _quadrature, _to_spectral

        grad_norm = report.rhs_base - math.sqrt(_quadrature(grid, _to_spectral(grid, u1.values), 2.0))
        assert report.margins[0] == pytest.approx(grad_norm, rel=1e-12)

    def test_large_velocity_rejected(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, eps=0.1)
        u0 = Field.zeros(grid)
        u1 = Field(grid, np.full(grid.shape, 6.0))  # factor = 1 - 0.6 = 0.4 < 1/2
        with pytest.raises(ValueError, match="too large"):
            initial_data_bound_check(u0, u1, p, 2)

    def test_odd_m_rejected(self) -> None:
        grid = Grid.cube(1, 32)
        with pytest.raises(ValueError):
            initial_data_bound_check(Field.zeros(grid), Field.zeros(grid), PhysicalParams(), 3)


class TestEnergyReport:
    def test_make_report_basic_fields(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(alpha=1.0, eps=0.1)
        state = _wave_state(grid, 2, 0.1, 0.1)
        report = make_report(state, p, ModelKind.KUZNETSOV)
        assert report.t == 0.0
        assert report.e_wave == pytest.approx(energy_wave(state, p), rel=1e-13)
        assert report.e_m == ()
        assert math.isnan(report.e_half_m)
        assert math.isnan(report.e_1m)

    def test_make_report_builds_jet_of_needed_order(self) -> None:
        grid = Grid.cube(1, 64)
        p = PhysicalParams(eps=0.05)
        state = _wave_state(grid, 1, 0.1, 0.05)
        report = make_report(state, p, e_m_orders=(0, 1), half_m=2)
        assert report.e_m_value(0) > 0
        assert report.e_m_value(1) > report.e_m_value(0)
        assert report.e_half_m > 0
        assert report.s_half_m > 0
        with pytest.raises(KeyError):
            report.e_m_value(3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_report_on_rk4_state_makes_no_transform(self, monkeypatch, n: int) -> None:
        """An RK4 carry holds the spectra and the gradient of u that the report reads."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(eps=0.1)
        state = _stepped(grid, p, Scheme.EXPLICIT_RK4, 43)
        fresh = SimState(
            Field(grid, state.u.values.copy()), Field(grid, state.v.values.copy()),
            state.t, state.fnu_accum, state.div_accum,
        )
        counts = count_ffts(monkeypatch)
        report = make_report(state, p)
        monkeypatch.undo()
        assert counts == {"forward": 0, "inverse": 0}
        assert report == make_report(fresh, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_report_on_state_without_carry_transforms_u_once(self, monkeypatch, n: int) -> None:
        """E, E_nonl and F_nu share one transform of u; F_nu adds the n inverses of grad u."""
        grid = Grid.cube(n, 16)
        p = PhysicalParams(eps=0.1)
        stepped = _stepped(grid, p, Scheme.EXPLICIT_RK4, 43)

        def fresh() -> SimState:
            return SimState(
                Field(grid, stepped.u.values.copy()), Field(grid, stepped.v.values.copy()),
                stepped.t, stepped.fnu_accum, stepped.div_accum,
            )

        state = fresh()
        counts = count_ffts(monkeypatch)
        report = make_report(state, p)
        monkeypatch.undo()
        assert counts == {"forward": 1, "inverse": n}
        assert (report.e_wave, report.e_nonl, report.f_nu) == (
            energy_wave(fresh(), p), energy_nonl(fresh(), p), f_nu(fresh(), p)
        )

    def test_report_towers_on_imex_state(self, monkeypatch) -> None:
        """On a 16^3 IMEX-stepped state with its jet, the report transforms
        layer 2 once and forms grad u for F_nu: 4 transforms."""
        grid = Grid.cube(3, 16)
        p = PhysicalParams(nu=0.5, eps=0.1)
        state = _stepped(grid, p, Scheme.IMEX, 47)
        jet = build_jet(state, p, 2)
        counts = count_ffts(monkeypatch)
        report = make_report(state, p, half_m=2, jet=jet)
        monkeypatch.undo()
        assert counts == {"forward": 1, "inverse": 3}
        # A jet of the layers and the state's spectra, which an IMEX state is.
        plain = Jet(grid, jet.layers)
        plain._spectra.update({0: state._fsal.u_hat, 1: state._fsal.v_hat})
        assert (report.e_half_m, report.s_half_m) == (energy_half_m(plain, 2), s_half_m(plain, 2))

    def test_min_hyp_reporting(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, eps=0.1)
        state = SimState(Field.zeros(grid), Field(grid, np.full(grid.shape, 2.0)))
        report = make_report(state, p, ModelKind.KUZNETSOV)
        assert report.min_hyp == pytest.approx(1.0 - 0.1 * 2.0)
        wave_report = make_report(state, p, ModelKind.WAVE)
        assert wave_report.min_hyp == 1.0
