"""Tests for the generalized-derivative algebra and its grid action.

The expansion of every length <= 2 word is checked against an independent
sympy oracle that applies the generators as first-order differential
operators to an undefined function.  The grid action is checked against
hand-evaluated compositions and exact symmetry consequences (rotations
annihilate radial profiles, coordinate derivatives commute with frozen-time
evaluation).
"""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from kuzlab import Field, Grid, ModelKind, PhysicalParams, SimState
from kuzlab.gamma import (
    MAX_WORD_LENGTH,
    GammaIndex,
    GammaTerm,
    Generator,
    expand_gamma,
    gamma_words,
    generalized_derivatives,
)
from kuzlab.jets import Jet, MultiIndex, build_jet

from helpers import apply_gamma, single_mode, spatial_derivative


def _sympy_generator(g: Generator, expr: sp.Expr, t: sp.Symbol, xs: list[sp.Symbol]) -> sp.Expr:
    if g.kind == "dt":
        return sp.diff(expr, t)
    if g.kind == "dx":
        return sp.diff(expr, xs[g.axis])
    if g.kind == "L0":
        return t * sp.diff(expr, t) + sum(x * sp.diff(expr, x) for x in xs)
    if g.kind == "L":
        return xs[g.axis] * sp.diff(expr, t) + t * sp.diff(expr, xs[g.axis])
    return xs[g.axis] * sp.diff(expr, xs[g.axis2]) - xs[g.axis2] * sp.diff(
        expr, xs[g.axis]
    )


def _sympy_expansion(
    terms: tuple[GammaTerm, ...], u: sp.Expr, t: sp.Symbol, xs: list[sp.Symbol]
) -> sp.Expr:
    total = sp.S.Zero
    for term in terms:
        piece = u
        if term.derivative.time_order:
            piece = sp.diff(piece, t, term.derivative.time_order)
        for axis, power in enumerate(term.derivative.orders[1:]):
            if power:
                piece = sp.diff(piece, xs[axis], power)
        monomial = t**term.t_power
        for x, power in zip(xs, term.x_powers):
            monomial *= x**power
        total += sp.Rational(term.coeff) * monomial * piece
    return total


def _check_word_against_sympy(index: GammaIndex) -> None:
    t = sp.Symbol("t")
    xs = [sp.Symbol(f"x{i + 1}") for i in range(index.n)]
    u = sp.Function("u")(t, *xs)
    expr = u
    for g in reversed(index.word):
        expr = _sympy_generator(g, expr, t, xs)
    expansion = _sympy_expansion(expand_gamma(index), u, t, xs)
    assert sp.simplify(expr - expansion) == 0, f"word {index} disagrees with oracle"


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 7), (3, 11)])
    def test_generator_count(self, n: int, count: int) -> None:
        gens = generalized_derivatives(n)
        assert len(gens) == count
        # mu = (n^2 + 3n + 2) / 2 with indices 0..mu.
        assert len(gens) - 1 == (n * n + 3 * n + 2) // 2

    def test_canonical_order_n2(self) -> None:
        kinds = [(g.kind, g.axis, g.axis2) for g in generalized_derivatives(2)]
        assert kinds == [
            ("L0", 0, 0),
            ("L", 0, 0),
            ("L", 1, 0),
            ("Omega", 0, 1),
            ("dt", 0, 0),
            ("dx", 0, 0),
            ("dx", 1, 0),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_word_count(self, n: int) -> None:
        gens = len(generalized_derivatives(n))
        expected = 1 + gens + gens * (gens + 1) // 2
        assert len(gamma_words(n)) == expected

    def test_word_count_n2_is_36(self) -> None:
        assert len(gamma_words(2)) == 36

    def test_words_are_unique(self) -> None:
        words = gamma_words(3)
        assert len({str(w) for w in words}) == len(words)

    def test_word_length_cap(self) -> None:
        with pytest.raises(ValueError):
            gamma_words(2, max_len=MAX_WORD_LENGTH + 1)
        g = Generator("dt")
        with pytest.raises(ValueError):
            GammaIndex((g,) * (MAX_WORD_LENGTH + 1), 1)

    def test_generator_validation(self) -> None:
        with pytest.raises(ValueError):
            Generator("bogus")
        with pytest.raises(ValueError):
            Generator("Omega", axis=1, axis2=1)
        with pytest.raises(ValueError):
            GammaIndex((Generator("dx", axis=2),), 2)
        with pytest.raises(ValueError):
            GammaIndex((), 4)


class TestExpandGamma:
    def test_documented_example(self) -> None:
        """(d_t, L0) -> d_t + t d_t^2 + sum_i x_i d_{x_i} d_t."""
        index = GammaIndex((Generator("dt"), Generator("L0")), 2)
        got = {
            (term.coeff, term.t_power, term.x_powers, term.derivative.orders)
            for term in expand_gamma(index)
        }
        assert got == {
            (1.0, 0, (0, 0), (1, 0, 0)),
            (1.0, 1, (0, 0), (2, 0, 0)),
            (1.0, 0, (1, 0), (1, 1, 0)),
            (1.0, 0, (0, 1), (1, 0, 1)),
        }

    def test_identity_word(self) -> None:
        terms = expand_gamma(GammaIndex((), 2))
        assert terms == (GammaTerm(1.0, 0, (0, 0), MultiIndex((0, 0, 0))),)

    def test_rotation_squared(self) -> None:
        """Omega^2 = x^2 d_yy - x d_x - 2xy d_xy - y d_y + y^2 d_xx."""
        omega = Generator("Omega", axis=0, axis2=1)
        got = {
            (term.coeff, term.t_power, term.x_powers, term.derivative.orders)
            for term in expand_gamma(GammaIndex((omega, omega), 2))
        }
        assert got == {
            (1.0, 0, (2, 0), (0, 0, 2)),
            (-1.0, 0, (1, 0), (0, 1, 0)),
            (-2.0, 0, (1, 1), (0, 1, 1)),
            (-1.0, 0, (0, 1), (0, 0, 1)),
            (1.0, 0, (0, 2), (0, 2, 0)),
        }

    @pytest.mark.parametrize("n", [1, 2])
    def test_all_words_match_sympy_oracle(self, n: int) -> None:
        for index in gamma_words(n):
            _check_word_against_sympy(index)

    def test_selected_n3_words_match_sympy_oracle(self) -> None:
        gens = generalized_derivatives(3)
        l0 = gens[0]
        l3 = gens[3]
        om12 = Generator("Omega", axis=0, axis2=1)
        om23 = Generator("Omega", axis=1, axis2=2)
        dt = Generator("dt")
        dx2 = Generator("dx", axis=1)
        for word in [
            (l0, l0),
            (l3, om12),
            (om12, om23),
            (l0, dt),
            (dt, l3),
            (om23, dx2),
        ]:
            _check_word_against_sympy(GammaIndex(word, 3))

    def test_integer_coefficients(self) -> None:
        for index in gamma_words(2):
            for term in expand_gamma(index):
                assert term.coeff == int(term.coeff)


class TestApplyGamma:
    def _jet(self, grid: Grid) -> Jet:
        p = PhysicalParams(eps=0.05)
        u0 = single_mode(grid, (1,) * grid.n, 0.1)
        u1 = single_mode(grid, (2,) + (1,) * (grid.n - 1), 0.05)
        return build_jet(SimState(u0, u1), p, 3, ModelKind.KUZNETSOV)

    def test_identity_returns_layer0(self) -> None:
        grid = Grid.cube(2, 32, origin_centered=True)
        jet = self._jet(grid)
        out = apply_gamma(jet, 0.7, GammaIndex((), 2))
        np.testing.assert_array_equal(out.values, jet.layer(0).values)

    def test_dt_word_returns_layer1(self) -> None:
        grid = Grid.cube(2, 32, origin_centered=True)
        jet = self._jet(grid)
        out = apply_gamma(jet, 0.7, GammaIndex((Generator("dt"),), 2))
        np.testing.assert_array_equal(out.values, jet.layer(1).values)

    def test_l0_matches_manual_evaluation(self) -> None:
        grid = Grid.cube(2, 32, origin_centered=True)
        jet = self._jet(grid)
        t = 1.3
        out = apply_gamma(jet, t, GammaIndex((Generator("L0"),), 2))
        manual = t * jet.layer(1).values
        for axis in range(2):
            manual = manual + grid.coordinate_mesh(axis) * spatial_derivative(
                jet.layer(0), axis
            ).values
        np.testing.assert_allclose(out.values, manual, rtol=0, atol=1e-14)

    def test_rotation_annihilates_radial_profile(self) -> None:
        grid = Grid.cube(2, 64, origin_centered=True)
        r2 = grid.coordinate_mesh(0) ** 2 + grid.coordinate_mesh(1) ** 2
        radial = Field(grid, np.exp(-r2 / (2 * 0.4**2)))
        jet = Jet(grid, (radial,))
        omega = GammaIndex((Generator("Omega", axis=0, axis2=1),), 2)
        out = apply_gamma(jet, 0.0, omega)
        assert np.max(np.abs(out.values)) < 1e-9

    def test_dx_composition_matches_nested_application(self) -> None:
        """d_x (Gamma u) frozen at time t equals the length-2 word.

        The layers are compactly supported bumps so that the x-weighted
        intermediate field stays periodic to machine precision and its
        spectral derivative is trustworthy.
        """
        grid = Grid.cube(2, 64, origin_centered=True)
        x0, x1 = grid.coordinate_mesh(0), grid.coordinate_mesh(1)
        bump = np.exp(-(x0**2 + x1**2) / (2 * 0.35**2))
        jet = Jet(
            grid,
            (
                Field(grid, (1.0 + 0.4 * x0) * bump),
                Field(grid, (x1 - 0.2 * x0) * bump),
            ),
        )
        t = 0.9
        for inner in [Generator("L0"), Generator("L", axis=1), Generator("Omega", axis=0, axis2=1)]:
            for axis in range(2):
                word = GammaIndex((Generator("dx", axis=axis), inner), 2)
                nested = spatial_derivative(
                    apply_gamma(jet, t, GammaIndex((inner,), 2)), axis
                )
                direct = apply_gamma(jet, t, word)
                scale = max(1.0, float(np.max(np.abs(direct.values))))
                np.testing.assert_allclose(
                    direct.values, nested.values, rtol=0, atol=1e-8 * scale
                )

    def test_requires_origin_centered_grid(self) -> None:
        grid = Grid.cube(2, 16)
        jet = Jet(grid, (Field.zeros(grid),))
        with pytest.raises(ValueError, match="origin-centered"):
            apply_gamma(jet, 0.0, GammaIndex((), 2))

    def test_dimension_mismatch_raises(self) -> None:
        grid = Grid.cube(2, 16, origin_centered=True)
        jet = Jet(grid, (Field.zeros(grid),))
        with pytest.raises(ValueError, match="dimension"):
            apply_gamma(jet, 0.0, GammaIndex((), 1))

    def test_insufficient_jet_order_raises(self) -> None:
        grid = Grid.cube(1, 16, origin_centered=True)
        jet = Jet(grid, (Field.zeros(grid), Field.zeros(grid)))
        word = GammaIndex((Generator("dt"), Generator("dt")), 1)
        with pytest.raises(ValueError, match="order"):
            apply_gamma(jet, 0.0, word)
