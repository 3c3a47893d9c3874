"""Time-derivative cascade: analytic, cross-module and finite-difference oracles."""

from __future__ import annotations

import numpy as np
import pytest

from kuzlab import (
    Field,
    Grid,
    HyperbolicityBreakdown,
    Jet,
    ModelKind,
    MultiIndex,
    PhysicalParams,
    Scheme,
    SimState,
    apply_multi_derivative,
    build_jet,
    cfl_dt,
    energy_half_m,
    energy_m,
    klainerman_record,
    s_half_m,
    step,
    theorem_45_energy,
)
from kuzlab.dynamics import _accel_kernel, _acceleration
from kuzlab.fields import _to_spectral
from kuzlab.jets import MAX_JET_ORDER
from helpers import (
    band_limited_field,
    count_ffts,
    shift_space,
    shift_time,
    single_mode,
    spatial_derivative,
)


class TestJetContainer:
    def test_order_and_layer_access(self) -> None:
        grid = Grid.cube(1, 16)
        jet = Jet(grid, (Field.zeros(grid), Field.zeros(grid)))
        assert jet.order == 1
        with pytest.raises(ValueError):
            jet.layer(2)

    def test_rejects_order_above_max(self) -> None:
        grid = Grid.cube(1, 16)
        layers = tuple(Field.zeros(grid) for _ in range(MAX_JET_ORDER + 2))
        with pytest.raises(ValueError):
            Jet(grid, layers)

    def test_shift_time_drops_layers(self) -> None:
        grid = Grid.cube(1, 16)
        a, b, c = (Field(grid, np.full(16, float(i))) for i in range(3))
        jet = Jet(grid, (a, b, c))
        shifted = shift_time(jet)
        assert shifted.order == 1
        np.testing.assert_array_equal(shifted.layer(0).values, b.values)

    def test_shift_space_differentiates_every_layer(self) -> None:
        """Against the closed form: d_x sin(2x) = 2 cos(2x) on the 2 pi box."""
        grid = Grid.cube(1, 64)
        f = single_mode(grid, (2,))
        jet = Jet(grid, (f, f))
        shifted = shift_space(jet, 0)
        expected = 2.0 * np.cos(2.0 * grid.coordinate_mesh(0))
        for k in range(2):
            np.testing.assert_allclose(shifted.layer(k).values, expected, rtol=0, atol=1e-13)


def _kernel_acc(state: SimState, p: PhysicalParams, kind: ModelKind) -> np.ndarray:
    """u_tt by the acceleration kernel on the transforms of the state's fields."""
    grid = state.grid
    u_hat, v_hat = (_to_spectral(grid, f.values) for f in (state.u, state.v))
    return _accel_kernel(grid, u_hat, v_hat, state.v.values, p, kind).acc


class TestMultiIndex:
    def test_orders_and_totals(self) -> None:
        a = MultiIndex((2, 1, 3))
        assert a.time_order == 2
        assert a.spatial_orders == (1, 3)
        assert a.spatial_total == 4

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            MultiIndex((1,))
        with pytest.raises(ValueError):
            MultiIndex((1, -1))


class TestCascadeLinear:
    def test_wave_jet_matches_analytic_derivatives(self) -> None:
        """For u = A sin(kx) cos(ckt): d_t^{2j} u(0) = (-(ck)^2)^j u0, odd zero."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(c=2.0)
        u0 = single_mode(grid, (3,), 0.5)
        jet = build_jet(SimState(u0, Field.zeros(grid)), p, 5, ModelKind.WAVE)
        ck2 = (2.0 * 3.0) ** 2
        np.testing.assert_allclose(jet.layer(2).values, -ck2 * u0.values, atol=1e-10)
        np.testing.assert_allclose(jet.layer(4).values, ck2**2 * u0.values, atol=1e-8)
        for odd in (1, 3, 5):
            assert np.max(np.abs(jet.layer(odd).values)) < 1e-8

    def test_damped_wave_jet_against_per_mode_ode(self) -> None:
        """Layers match derivatives of the exact single-mode damped solution."""
        grid = Grid.cube(1, 64)
        p = PhysicalParams(c=1.0, nu=0.5, eps=0.2)
        u0 = single_mode(grid, (2,), 1.0)
        u1 = single_mode(grid, (2,), -0.3)
        jet = build_jet(SimState(u0, u1), p, 4, ModelKind.DAMPED_WAVE)
        # Per mode: w'' = -c^2 k^2 w - nu eps k^2 w', k = 2.
        k2 = 4.0
        a, b = p.nu * p.eps * k2, k2
        w = [u0.values, u1.values]
        for _ in range(3):
            w.append(-b * w[-2] - a * w[-1])
        for order in range(5):
            scale = max(1.0, float(np.max(np.abs(w[order]))))
            np.testing.assert_allclose(
                jet.layer(order).values, w[order], rtol=0, atol=1e-9 * scale
            )


class TestCascadeNonlinear:
    def test_layer2_equals_acceleration_bitwise(self) -> None:
        grid = Grid.cube(2, 32)
        p = PhysicalParams(eps=0.1)
        rng = np.random.default_rng(3)
        state = SimState(band_limited_field(grid, rng, 0.3), band_limited_field(grid, rng, 0.3))
        jet = build_jet(state, p, 2, ModelKind.KUZNETSOV)
        acc = _kernel_acc(state, p, ModelKind.KUZNETSOV)
        np.testing.assert_array_equal(jet.layer(2).values, acc)

    @pytest.mark.parametrize("scheme", [None, *Scheme])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layer2_equals_acceleration_bitwise_on_carried_states(
        self, n: int, scheme: Scheme | None
    ) -> None:
        """One u_tt per state: on a cold state and on one carrying an RK4 or
        an IMEX step's evaluation, the state's u_tt is the jet's layer 2."""
        grid = Grid.cube(n, 32 if n < 3 else 16)
        p = PhysicalParams(nu=0.0 if scheme is None else 0.5, eps=0.1)
        rng = np.random.default_rng(3)
        state = SimState(band_limited_field(grid, rng, 0.3), band_limited_field(grid, rng, 0.3))
        if scheme is not None:
            state = step(state, cfl_dt(grid, p.c), p, ModelKind.KUZNETSOV, scheme)
        jet = build_jet(state, p, 2, ModelKind.KUZNETSOV)
        acc = _acceleration(state, p, ModelKind.KUZNETSOV).acc
        np.testing.assert_array_equal(jet.layer(2).values, acc)

    @pytest.mark.parametrize("kind", [ModelKind.WESTERVELT, ModelKind.KUZNETSOV])
    def test_layer3_against_finite_difference(self, kind: ModelKind) -> None:
        """d_t u_tt via central differences of the acceleration along a run.

        The jet is evaluated at the midpoint t = h of a forward trajectory
        advanced by fine RK4 steps (error O(dt^4), well below the O(h^2)
        difference error), so the FD slope isolates the cascade's layer 3.

        The data are smooth low-mode fields: the cascade filters every
        quadratic Leibniz sum (including u_tt * u_tt, which arises from
        differentiating the hyperbolicity division), whereas the flow's
        pointwise division leaves that square unfiltered. The two agree
        only up to the beyond-cutoff content of u_tt^2, which is
        negligible here but order one for broadband data.
        """
        grid = Grid.cube(1, 128)
        p = PhysicalParams(eps=0.1)
        u0 = Field(
            grid,
            single_mode(grid, (1,), 0.12).values + single_mode(grid, (3,), 0.05).values,
        )
        state = SimState(u0, single_mode(grid, (2,), 0.1))

        errors = []
        for h in (2e-3, 1e-3):
            trajectory = [state]
            for _ in range(8):
                trajectory.append(
                    step(trajectory[-1], h / 4.0, p, kind, Scheme.EXPLICIT_RK4, cfl=10.0)
                )
            mid, last = trajectory[4], trajectory[8]
            jet = build_jet(mid, p, 3, kind)

            acc_0 = build_jet(state, p, 2, kind).layers[2].values
            acc_2h = build_jet(last, p, 2, kind).layers[2].values
            fd = (acc_2h - acc_0) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(jet.layer(3).values))))
            errors.append(np.max(np.abs(fd - jet.layer(3).values)) / scale)

        assert errors[-1] < 1e-5
        # Second-order differencing: halving h should shrink the error ~4x.
        assert errors[1] < 0.4 * errors[0]

    def test_cascade_raises_at_hyperbolicity_floor(self) -> None:
        grid = Grid.cube(1, 32)
        p = PhysicalParams(alpha=1.0, eps=0.1, hyp_floor=0.1)
        state = SimState(Field.zeros(grid), Field(grid, np.full(32, 9.5)))
        with pytest.raises(HyperbolicityBreakdown):
            build_jet(state, p, 2, ModelKind.KUZNETSOV)
        # Orders 0..1 never divide, so they stay available for diagnostics.
        jet = build_jet(state, p, 1, ModelKind.KUZNETSOV)
        assert jet.order == 1

    def test_order_validation(self) -> None:
        grid = Grid.cube(1, 16)
        state = SimState(Field.zeros(grid), Field.zeros(grid))
        with pytest.raises(ValueError):
            build_jet(state, PhysicalParams(), MAX_JET_ORDER + 1)


class TestApplyMultiDerivative:
    def test_matches_sequential_spatial_derivatives(self) -> None:
        grid = Grid.cube(2, 32)
        p = PhysicalParams(eps=0.05)
        rng = np.random.default_rng(17)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        jet = build_jet(state, p, 2, ModelKind.KUZNETSOV)
        out = apply_multi_derivative(jet, MultiIndex((1, 2, 1)))
        manual = spatial_derivative(
            spatial_derivative(jet.layer(1), 0, 2), 1, 1
        )
        np.testing.assert_allclose(out.values, manual.values, atol=1e-10)

    def test_axis_order_commutes(self) -> None:
        grid = Grid.cube(2, 32)
        rng = np.random.default_rng(23)
        f = band_limited_field(grid, rng)
        jet = Jet(grid, (f,))
        a = spatial_derivative(spatial_derivative(f, 0), 1)
        b = spatial_derivative(spatial_derivative(f, 1), 0)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)
        out = apply_multi_derivative(jet, MultiIndex((0, 1, 1)))
        np.testing.assert_allclose(out.values, a.values, atol=1e-12)

    def test_requires_enough_time_layers(self) -> None:
        grid = Grid.cube(1, 16)
        jet = Jet(grid, (Field.zeros(grid),))
        with pytest.raises(ValueError):
            apply_multi_derivative(jet, MultiIndex((1, 0)))


def _rk4_stepped(grid: Grid, p: PhysicalParams, seed: int) -> SimState:
    """A state one RK4 step past band-limited data, carrying its evaluation."""
    rng = np.random.default_rng(seed)
    state = SimState(band_limited_field(grid, rng, 0.1), band_limited_field(grid, rng, 0.1))
    return step(state, cfl_dt(grid, p.c), p, ModelKind.KUZNETSOV, Scheme.EXPLICIT_RK4)


class TestCarriedSpectra:
    """Jets keep the layer transforms and gradients their cascade forms."""

    def test_layer_two_from_imex_carry(self, monkeypatch) -> None:
        """On a 16^3 IMEX-carried state, layer 2 and the state's u_tt are each
        one inverse transform of the carried remainder plus linear part, the
        kernel's up to roundoff."""
        grid = Grid.cube(3, 16)
        p = PhysicalParams(nu=0.5, eps=0.1)
        rng = np.random.default_rng(41)
        state = SimState(band_limited_field(grid, rng, 0.2), band_limited_field(grid, rng, 0.2))
        state = step(state, cfl_dt(grid, p.c), p, ModelKind.KUZNETSOV, Scheme.IMEX)
        counts = count_ffts(monkeypatch)
        jet = build_jet(state, p, 2)
        monkeypatch.undo()
        assert counts == {"forward": 0, "inverse": 1}
        counts = count_ffts(monkeypatch)
        _acceleration(state, p, ModelKind.KUZNETSOV)
        monkeypatch.undo()
        assert counts == {"forward": 0, "inverse": 1}
        fresh = SimState(Field(grid, state.u.values.copy()), Field(grid, state.v.values.copy()), state.t)
        kernel = build_jet(fresh, p, 2).layer(2).values
        scale = float(np.max(np.abs(kernel)))
        np.testing.assert_allclose(jet.layer(2).values, kernel, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_build_jet_transform_count(self, monkeypatch, n: int) -> None:
        """From an RK4 carry, layer 3 costs layer 2's transform, its n
        gradients and the kernel's pair: n + 3 transforms."""
        p = PhysicalParams(eps=0.1)
        state = _rk4_stepped(Grid.cube(n, 16), p, 5)
        counts = count_ffts(monkeypatch)
        build_jet(state, p, 3)
        assert counts == {"forward": 2, "inverse": n + 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_multi_derivative_matches_per_axis_chain(self, monkeypatch, n: int) -> None:
        """One inverse of the carried spectrum times the mixed multiplier gives
        the per-axis chain of numpy.fft derivatives, Nyquist modes included."""
        grid = Grid.cube(n, 16)
        rng = np.random.default_rng(29)
        # Raw noise keeps every mode, the Nyquist ones on each axis among them.
        state = SimState(
            Field(grid, 0.1 * rng.standard_normal(grid.shape)),
            Field(grid, 0.1 * rng.standard_normal(grid.shape)),
        )
        jet = build_jet(state, PhysicalParams(eps=0.1), 2)
        for spatial in np.ndindex(*(4,) * n):
            if sum(spatial) == 0 or sum(spatial) > 4:
                continue
            for k in (0, 1):
                chain = jet.layer(k)
                for axis, order in enumerate(spatial):
                    if order:
                        chain = spatial_derivative(chain, axis, order)
                chain = chain.values
                counts = count_ffts(monkeypatch)
                out = apply_multi_derivative(jet, MultiIndex((k, *spatial))).values
                monkeypatch.undo()
                assert counts == {"forward": 0, "inverse": 1}
                scale = float(np.max(np.abs(chain)))
                np.testing.assert_allclose(out, chain, rtol=0.0, atol=1e-13 * scale)

    def test_hand_built_jet_gives_same_results(self) -> None:
        """A Jet built from the layers alone transforms what it needs and
        gives the same towers, theorem energy and Klainerman record."""
        grid = Grid.cube(2, 32, length=8.0, origin_centered=True)
        p = PhysicalParams(eps=0.1)
        state = _rk4_stepped(grid, p, 31)
        carried = build_jet(state, p, 3)
        plain = Jet(grid, carried.layers)
        for func, m in [(energy_m, 2), (energy_half_m, 4), (s_half_m, 2)]:
            assert func(carried, m) == func(plain, m)
        assert theorem_45_energy(carried, 4, p) == theorem_45_energy(plain, 4, p)
        assert klainerman_record(carried, state.t, 0) == klainerman_record(plain, state.t, 0)
        for orders in [(0, 1, 0), (1, 0, 1), (2, 1, 1), (1, 2, 0)]:
            A = MultiIndex(orders)
            np.testing.assert_array_equal(
                apply_multi_derivative(carried, A).values, apply_multi_derivative(plain, A).values
            )
