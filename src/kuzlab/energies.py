"""Energy functionals, envelopes, thresholds, and coefficient recursions.

Everything here is a pure evaluation on states or jets:

* quadratic energies E, E_nonl and the accumulated functional F_nu;
* Sobolev towers E_m, E_{m/2}, S_{m/2} built from jet layers;
* Klainerman energies E_{1,m}, E_{inf,m} and the decay ratio;
* the densities I[v], J[v] whose time identity underwrites the a priori
  estimates;
* the Gronwall envelope z(t), the lifespan floor T_0, the smallness
  thresholds of the inviscid and viscous theories, and the coefficient
  recursion a_k controlling the initial-data cascade.

Abstract constants of the estimates (C_m, C_m0, C_inf, ...) are never
derived; they enter through EnvelopeParams with documented defaults of 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable

import numpy as np

from .dynamics import (
    ModelKind,
    PhysicalParams,
    SimState,
    _factor,
    damps,
    effective_coefficients,
    hyperbolicity_factor,
    support_radius,
)
from .errors import NonFiniteFieldError
from .fields import (
    Field,
    FloatArray,
    Grid,
    _derivative_multiplier,
    _grad_sq,
    _l2_sq,
    _quadrature,
    _to_physical,
    gradient_values,
    laplacian_values,
)
from .gamma import MAX_WORD_LENGTH, _term_factors, _word_values, expand_gamma, gamma_words
from .jets import MAX_JET_ORDER, Jet, MultiIndex, apply_multi_derivative, build_jet


def _cube_sum(values: FloatArray) -> float:
    """sum(values**3) by multiplication, in the one temporary values**3 takes:
    numpy's pow is far slower for a cube, and the two differ by at most an ulp
    per element."""
    cube = values * values
    cube *= values
    return float(np.sum(cube))


def _grad_u_sq(state: SimState) -> float:
    """||grad u||^2 from the state's spectrum of u (see SimState._u_hat)."""
    return _quadrature(state.grid, state._u_hat, weight=state.grid.gradient_weight)


def energy_wave(state: SimState, p: PhysicalParams) -> float:
    """E(t) = int (u_t)^2 + c^2 (grad u)^2, the linear wave energy."""
    return _l2_sq(state.grid, state.v.values) + p.c**2 * _grad_u_sq(state)


def nonlinear_energy_alpha(p: PhysicalParams, kind: ModelKind) -> float:
    """Coefficient of the cubic correction in E_nonl: 2/3 of the equation's.

    Only with the factor 2/3 is E_nonl exactly conserved for nu = 0; the
    equation coefficient itself multiplies u_t u_tt.
    """
    alpha_eff, _, _ = effective_coefficients(p, kind)
    return 2.0 / 3.0 * alpha_eff


def _velocity_term(grid: Grid, v: FloatArray, p: PhysicalParams, kind: ModelKind) -> float:
    """int (1 - alpha_E eps u_t) u_t^2, the velocity term of E_nonl and F_nu."""
    alpha_e = nonlinear_energy_alpha(p, kind)
    return _l2_sq(grid, v) - alpha_e * p.eps * grid.cell_volume * _cube_sum(v)


def energy_nonl(
    state: SimState, p: PhysicalParams, kind: ModelKind = ModelKind.KUZNETSOV
) -> float:
    """E_nonl(t) = int (1 - alpha_E eps u_t) u_t^2 + c^2 (grad u)^2.

    Conserved for nu = 0, nonincreasing for nu > 0, and sandwiched between
    E/2 and 3E/2 while ||u_t||_inf <= 1/(2 alpha_E eps).
    """
    return _velocity_term(state.grid, state.v.values, p, kind) + p.c**2 * _grad_u_sq(state)


def f_nu(state: SimState, p: PhysicalParams, kind: ModelKind = ModelKind.KUZNETSOV) -> float:
    """F_nu(t), constant for nu = 0 and strictly decreasing for nu > 0.

    F_nu = int (1 - alpha_E eps u_t) u_t^2 + (c^2 - beta eps u_t)(grad u)^2
    plus the running integral beta*eps int_0^t int u_tt |grad u|^2 carried by
    the state.
    """
    grid = state.grid
    _, beta_eff, _ = effective_coefficients(p, kind)
    v = state.v.values
    vt_term = _velocity_term(grid, v, p, kind)
    # |grad u|^2 one component at a time: a carried component is read as it
    # is, a formed one squared in place and dropped before the next.
    carried = getattr(state._fsal, "grad_u", None)
    grad_sq = None
    for axis, mult in enumerate(grid.derivative_multipliers):
        if carried is None:
            g = _to_physical(grid, state._u_hat * mult, consume=True)
            sq = np.multiply(g, g, out=g)
        else:
            sq = carried[axis] * carried[axis]
        grad_sq = sq if grad_sq is None else np.add(grad_sq, sq, out=grad_sq)
        g = sq = None
    grad_sq *= p.c**2 - beta_eff * p.eps * v
    grad_term = grid.cell_volume * float(np.sum(grad_sq))
    return vt_term + grad_term + state.fnu_accum


def e_m_jet_order(m: int, name: str = "m") -> int:
    """The jet order E_m needs, m + 1; ValueError, naming name, unless a jet reaches it."""
    if not 0 <= m < MAX_JET_ORDER:
        raise ValueError(f"{name} must lie in 0..{MAX_JET_ORDER - 1}, got {m}")
    return m + 1


def half_m_jet_order(m: int, name: str = "m", low: int = 0) -> int:
    """The jet order m/2 + 1 of the half-level towers (E_{m/2}, S_{m/2}, the theorem
    energy); ValueError, naming name, unless m is even, >= low and within reach."""
    top = 2 * (MAX_JET_ORDER - 1)
    if not (low <= m <= top and m % 2 == 0):
        raise ValueError(f"{name} must be even and in {low}..{top}, got {m}")
    return m // 2 + 1


def ratio_jet_order(n: int, m: int) -> int:
    """The jet order the ratio at m >= 0 on an n-d grid needs, m + n* + 1 (n* = [n/2 + 1]):
    E_{1,m+n*} sweeps words of length m + n*, at most MAX_WORD_LENGTH, else ValueError."""
    if m < 0:
        raise ValueError(f"the ratio's order m must be >= 0, got {m}")
    length = m + n // 2 + 1
    if length > MAX_WORD_LENGTH:
        raise ValueError(
            f"the ratio at m = {m} on a {n}d grid needs words of length "
            f"m + n//2 + 1 = {length}, beyond the cap {MAX_WORD_LENGTH}"
        )
    return length + 1


def _tower(jet: Jet, terms: Iterable[tuple[int, int, bool]]) -> float:
    """The sum over (i, s, grad) in terms of ||d_t^i u||_{H^s}^2, or of
    ||grad d_t^i u||_{H^s}^2 where grad, added in order from 0."""
    grid = jet.grid
    total = 0.0  # a plain running sum: sum() compensates float sums from Python 3.12 on
    for i, s, grad in terms:
        total += _quadrature(grid, jet.spectrum(i), float(s), grid.gradient_weight if grad else None)
    return total


def energy_m(jet: Jet, m: int) -> float:
    """E_m = ||grad u||_{H^m}^2 + sum_{i=1}^{m+1} ||d_t^i u||_{H^{m+1-i}}^2."""
    jet.require(e_m_jet_order(m), f"E_{m}")
    return _tower(jet, [(0, m, True), *((i, m + 1 - i, False) for i in range(1, m + 2))])


def energy_half_m(jet: Jet, m: int) -> float:
    """E_{m/2} = ||grad u||_{H^m}^2 + sum_{i=1}^{m/2+1} ||d_t^i u||_{H^{m-2(i-1)}}^2."""
    jet.require(half_m_jet_order(m), f"E_{{m/2}} at m = {m}")
    return _tower(jet, [(0, m, True), *((i, m - 2 * (i - 1), False) for i in range(1, m // 2 + 2))])


def s_half_m(jet: Jet, m: int) -> float:
    """S_{m/2} = sum_{i=1}^{m/2+1} ||grad d_t^i u||_{H^{m-2(i-1)}}^2."""
    jet.require(half_m_jet_order(m), f"S_{{m/2}} at m = {m}")
    return _tower(jet, ((i, m - 2 * (i - 1), True) for i in range(1, m // 2 + 2)))


def _klainerman_sweep(jet: Jet, t: float, m_sum: int, m_sup: int) -> tuple[float, float, float]:
    """One sweep over words of length <= m_sum.

    Returns E_{1,m_sum}, then E_{1,m_sup} and E_{inf,m_sup}, which restrict
    the sum and the sup to words of length <= m_sup; m_sup <= m_sum.
    The sources u_t, d_1 u, ..., d_n u are taken one at a time. A source's
    memo holds the mixed derivatives D^A the words take of it (one inverse
    transform of a held spectrum per distinct A, or none for a held layer
    or gradient) and is released before the next source's is filled. Each
    word field is formed by the term loop gamma._word_values, in two reused
    buffers; its square-sum is added to the word's energy and must be
    finite, else NonFiniteFieldError. Words of length <= m_sup also keep
    their pointwise density, summed over the sources in order. Needs an
    origin-centered grid (gamma._term_factors checks it).
    """
    grid = jet.grid
    n = grid.n
    words = gamma_words(n, m_sum)
    # gamma_words lists words by length, so those of length <= m_sup come first.
    n_sup = sum(len(word.word) <= m_sup for word in words)

    def derivative(key: tuple[int, ...], axis: int | None) -> FloatArray:
        """D^key of u_t (axis None) or of d_axis u, from what the jet holds."""
        k, spatial = key[0], key[1:]
        if axis is None:
            return apply_multi_derivative(jet, MultiIndex((k + 1, *spatial))).values
        if not any(spatial):
            unit = tuple(int(i == axis) for i in range(n))
            return apply_multi_derivative(jet, MultiIndex((k, *unit))).values
        # The multipliers the per-axis chain d_axis, then D^key, applies.
        mult = grid.derivative_multipliers[axis] * _derivative_multiplier(grid, spatial)
        return _to_physical(grid, jet.spectrum(k) * mult, consume=True)

    plans = [_term_factors(grid, t, expand_gamma(word)) for word in words]
    keys = {key for plan in plans for key, _ in plan}
    sums = [0.0] * len(words)
    buf = np.empty(grid.shape)
    total = np.empty(grid.shape)
    densities = [np.zeros(grid.shape) for _ in range(n_sup)]
    for axis in (None, *range(n)):
        memo = {key: derivative(key, axis) for key in keys}
        for w, plan in enumerate(plans):
            square = np.square(_word_values(plan, memo, buf, total), out=buf)
            sums[w] += float(np.sum(square))
            if not math.isfinite(sums[w]):
                raise NonFiniteFieldError(f"word {words[w]} has a non-finite field")
            if w < n_sup:
                densities[w] += square
        del memo
    e_1 = sum(grid.cell_volume * word_sum for word_sum in sums)
    e_1_sup = sum(grid.cell_volume * float(np.sum(density)) for density in densities)
    return e_1, e_1_sup, max(float(np.max(density)) for density in densities)


def klainerman_record(jet: Jet, t: float, m: int) -> tuple[float, float, float]:
    """(ratio, E_{1,m}, E_{inf,m}) from one word sweep over words of length <= m + n*.

    E_{1,m} sums ||Gamma^A u_t||^2 + ||Gamma^A grad u||^2 over the words of
    length <= m; E_{inf,m} takes the grid sup of the pointwise sup over those
    words of the same density. The ratio is
    sqrt(E_{inf,m}) / [(1+t)^{(1-n)/2} sqrt(E_{1,m+n*})], n* = [n/2 + 1]:
    0 for identically zero fields, and ZeroDivisionError in the ill-posed
    case of a vanishing E_{1,m+n*} with a nonvanishing E_{inf,m}. A negative
    m, or words longer than MAX_WORD_LENGTH, are ValueError (ratio_jet_order).
    """
    n = jet.grid.n
    e_1, e_1m, e_inf = _klainerman_sweep(jet, t, ratio_jet_order(n, m) - 1, m)  # m + n*
    weight = (1.0 + t) ** ((1 - n) / 2.0)
    if e_1 <= 0.0:
        if e_inf <= 0.0:
            return 0.0, e_1m, e_inf
        raise ZeroDivisionError("E_{1,m+n*} vanished while E_{inf,m} did not")
    return math.sqrt(e_inf) / (weight * math.sqrt(e_1)), e_1m, e_inf


@dataclass(frozen=True)
class AppendixDensities:
    """Integrated densities for v = D^A u and the matching dissipation rate."""

    i_int: float
    j_int: float
    dissipation: float


def appendix_densities(
    jet: Jet,
    A: MultiIndex,
    p: PhysicalParams,
    kind: ModelKind = ModelKind.KUZNETSOV,
) -> AppendixDensities:
    """int I[D^A u], int J[D^A u], and 2 nu eps ||grad D^A u_t||^2.

    I[v] = v_t^2 + c^2 (grad v)^2 - alpha eps u_t v_t^2 and
    J[v] = 2 L_u v v_t - [alpha eps u_tt + beta eps Lap u] v_t^2 with
    L_u v = v_tt - c^2 Lap v - nu eps Lap v_t - alpha eps u_t v_tt
            - beta eps grad u . grad v_t,
    so that d/dt int I + dissipation = int J along exact solutions.
    """
    grid = jet.grid
    alpha_eff, beta_eff, nu_eff = effective_coefficients(p, kind)
    jet.require(A.time_order + 2, f"densities for A_0 = {A.time_order}")
    v_f = apply_multi_derivative(jet, A)
    orders = A.orders
    vt_f = apply_multi_derivative(jet, MultiIndex((orders[0] + 1,) + orders[1:]))
    vtt_f = apply_multi_derivative(jet, MultiIndex((orders[0] + 2,) + orders[1:]))
    v, vt, vtt = v_f.values, vt_f.values, vtt_f.values
    u_t = jet.layers[1].values
    u_tt = jet.layers[2].values

    i_int = (
        _l2_sq(grid, vt)
        + p.c**2 * _grad_sq(grid, v)
        - alpha_eff * p.eps * grid.cell_volume * float(np.sum(u_t * vt**2))
    )

    lu_v = vtt - p.c**2 * laplacian_values(grid, v) - alpha_eff * p.eps * u_t * vtt
    if beta_eff != 0.0:
        grad_vt = gradient_values(grid, vt)
        grad_u = gradient_values(grid, jet.layers[0].values)
        coupling = grad_u[0] * grad_vt[0]
        for i in range(1, grid.n):
            coupling = coupling + grad_u[i] * grad_vt[i]
        lu_v = lu_v - beta_eff * p.eps * coupling
    if nu_eff > 0.0:
        lu_v = lu_v - nu_eff * p.eps * laplacian_values(grid, vt)

    lap_u = laplacian_values(grid, jet.layers[0].values)
    bracket = alpha_eff * p.eps * u_tt + beta_eff * p.eps * lap_u
    j_int = grid.cell_volume * float(np.sum(2.0 * lu_v * vt - bracket * vt**2))

    dissipation = 2.0 * nu_eff * p.eps * _grad_sq(grid, vt)
    return AppendixDensities(i_int=i_int, j_int=j_int, dissipation=dissipation)


def proposition_b(c: float) -> float:
    """The closed-form constant B = (3 + 2c^2)/min(1/2, c^2)."""
    return (3.0 + 2.0 * c**2) / min(0.5, c**2)


@dataclass(frozen=True)
class EnvelopeParams:
    """Abstract constants of the a priori estimates, all configurable.

    B = None resolves to the closed form (3 + 2c^2)/min(1/2, c^2) at the
    sound speed in use.  c0 and c_embed feed the fixed-point radius r_* and
    gain w(r); C_m0 scales the lifespan floor T_0, C_inf the inviscid
    smallness threshold and C_m the viscous ones.
    """

    B: float | None = None
    C_m: float = 1.0
    C_m0: float = 1.0
    C_inf: float = 1.0
    c0: float = 1.0
    c_embed: float = 1.0

    def __post_init__(self) -> None:
        for name in ("C_m", "C_m0", "C_inf", "c0", "c_embed"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.B is not None and self.B <= 0:
            raise ValueError("B must be positive when given")

    def resolve_b(self, p: PhysicalParams) -> float:
        return self.B if self.B is not None else proposition_b(p.c)


def gronwall_envelope(z0: float, C: float, p: PhysicalParams, t: float) -> float:
    """z(t) = z0 / (1 - (1/2) sqrt(z0) C max(alpha, beta) eps t)^2.

    The closed-form majorant of the cubic Gronwall comparison problem;
    raises once t reaches the envelope pole.
    """
    if z0 < 0:
        raise ValueError("z0 must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if z0 == 0.0:
        return 0.0
    denom = 1.0 - 0.5 * math.sqrt(z0) * C * max(p.alpha, p.beta) * p.eps * t
    if denom <= 0.0:
        raise ValueError(f"envelope pole reached at or before t = {t:.6g}")
    return z0 / denom**2


def lifespan_T0(E0: float, p: PhysicalParams, env: EnvelopeParams) -> float:
    """T_0 = 1 / (C_m0 max(alpha, beta) eps sqrt(B) E0), the lifespan floor."""
    if E0 <= 0.0:
        return math.inf
    b = env.resolve_b(p)
    return 1.0 / (env.C_m0 * max(p.alpha, p.beta) * p.eps * math.sqrt(b) * E0)


@dataclass(frozen=True)
class ThresholdRecord:
    """Closed-form smallness thresholds; zero viscosity zeroes the viscous ones.

    sqrt_e_m0_max bounds sqrt(E_{m0}(0)) for the inviscid envelope theory;
    sqrt_e_half_max bounds sqrt(E_{m/2}(0)) for the viscous decay theorem;
    e_theorem_max bounds the multi-index energy E(0); r_star is the
    fixed-point radius whose gain function is w(r).
    """

    b: float
    sqrt_e_m0_max: float
    sqrt_e_half_max: float
    e_theorem_max: float
    r_star: float
    _w_coeff: float = dataclass_field(repr=False, default=0.0)

    def w(self, r: float) -> float:
        """Gain w(r) = r - 2 (C_0/nu) C_embed (alpha + beta) r^2 (0 if nu = 0)."""
        return r - self._w_coeff * r**2


def thresholds(p: PhysicalParams, env: EnvelopeParams) -> ThresholdRecord:
    """Evaluate every closed-form smallness threshold for the given constants."""
    b = env.resolve_b(p)
    sqrt_e_m0_max = 1.0 / (4.0 * math.sqrt(b) * env.C_inf * p.alpha * p.eps)
    max_ab = max(p.alpha, p.beta)
    sqrt_e_half_max = math.sqrt(2.0) * p.nu / (math.sqrt(1.5 + p.c**2) * env.C_m * max_ab)
    e_theorem_max = 2.0 * (p.nu / (env.C_m * max_ab)) ** 2
    r_star = p.nu / (4.0 * env.c0 * (p.alpha + p.beta) * env.c_embed)
    w_coeff = (
        2.0 * (env.c0 / p.nu) * env.c_embed * (p.alpha + p.beta) if p.nu > 0.0 else 0.0
    )
    return ThresholdRecord(
        b=b,
        sqrt_e_m0_max=sqrt_e_m0_max,
        sqrt_e_half_max=sqrt_e_half_max,
        e_theorem_max=e_theorem_max,
        r_star=r_star,
        _w_coeff=w_coeff,
    )


def smallness_target(
    p: PhysicalParams, kind: ModelKind, env: EnvelopeParams, m: int
) -> tuple[float, int | None]:
    """The threshold on sqrt(E(0)) that governs data under (p, kind) and the m data_tower
    takes for E: the viscous E_{m/2} where the kind damps, else the inviscid E_{m0} (None)."""
    record = thresholds(p, env)
    return (record.sqrt_e_half_max, m) if damps(p, kind) else (record.sqrt_e_m0_max, None)


def data_tower(state: SimState, p: PhysicalParams, kind: ModelKind, m: int | None = None) -> float:
    """E_{m/2} on state, or with m None the inviscid E_{m0}, m0 = [n/2] + 2; its jet dies with the call."""
    if m is None:
        m0 = state.grid.n // 2 + 2
        return energy_m(build_jet(state, p, e_m_jet_order(m0), kind), m0)
    return energy_half_m(build_jet(state, p, half_m_jet_order(m), kind), m)


def theorem_45_energy(
    jet: Jet, m: int, p: PhysicalParams, kind: ModelKind = ModelKind.KUZNETSOV
) -> float:
    """Multi-index energy E(t) = sum_{A in V} int (1-alpha eps u_t)(D^A u_t)^2
    + c^2 (grad D^A u)^2 over V = {A : |A| - A_0 <= m - 2 A_0}."""
    jet.require(half_m_jet_order(m), f"theorem energy at m = {m}")
    grid = jet.grid
    alpha_eff, _, _ = effective_coefficients(p, kind)
    weight = _factor(alpha_eff, p.eps, jet.layers[1].values)
    total = 0.0
    for A in _theorem_45_index_set(m, grid.n):
        da_u_hat = jet.spectrum(A.time_order) * _derivative_multiplier(grid, A.spatial_orders)
        da_ut = apply_multi_derivative(jet, MultiIndex((A.time_order + 1,) + A.spatial_orders))
        total += (
            grid.cell_volume * float(np.sum(weight * da_ut.values**2))
            + p.c**2 * _quadrature(grid, da_u_hat, weight=grid.gradient_weight)
        )
    return total


def _theorem_45_index_set(m: int, n: int) -> list[MultiIndex]:
    """All A = (A_0, A_1..A_n) with |A| - A_0 <= m - 2 A_0 (and A_0 <= m/2), in
    lexicographic order."""
    return [
        MultiIndex((a0, *spatial))
        for a0 in range(m // 2 + 1)
        for spatial in itertools.product(range(m - 2 * a0 + 1), repeat=n)
        if sum(spatial) <= m - 2 * a0
    ]


def appendix_b_coefficients(K: int, c: float) -> list[float]:
    """a_0 = 1, a_1 = 2c^2 + 2, a_{k+1} = a_k + 2c^2 a_{k-1} + 2 sum_{i<=k} a_i + 1."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    c2 = c**2
    coeffs = [1.0]
    if K >= 1:
        coeffs.append(2.0 * c2 + 2.0)
    running_sum = sum(coeffs)
    for k in range(1, K):
        nxt = coeffs[k] + 2.0 * c2 * coeffs[k - 1] + 2.0 * running_sum + 1.0
        coeffs.append(nxt)
        running_sum += nxt
    return coeffs


@dataclass(frozen=True)
class InitialDataBoundReport:
    """Per-k margins of ||d_t^k u_t(0)||_{H^{m-2k}} <= a_k (||grad u0||_{H^m} + ||u1||_{H^m})."""

    m: int
    rhs_base: float
    lhs: tuple[float, ...]
    bounds: tuple[float, ...]

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(b - l for l, b in zip(self.lhs, self.bounds))

    @property
    def all_hold(self) -> bool:
        return all(m >= 0.0 for m in self.margins)


def initial_data_bound_check(
    u0: Field,
    u1: Field,
    p: PhysicalParams,
    m: int,
) -> InitialDataBoundReport:
    """Check the Kuznetsov cascade bounds at t = 0 for k = 0..m/2.

    Precondition: ||1/(1 - alpha eps u_1)||_inf <= 2, i.e. the factor stays
    at or above 1/2; violating data is rejected.
    """
    order = half_m_jet_order(m)
    factor_min = hyperbolicity_factor(u1, p)
    if factor_min < 0.5:
        raise ValueError(
            f"initial data too large: min(1 - alpha eps u1) = {factor_min:.6g} < 1/2"
        )
    state = SimState(u=u0, v=u1)
    jet = build_jet(state, p, order)
    grid = u0.grid
    rhs_base = math.sqrt(
        _quadrature(grid, jet.spectrum(0), float(m), grid.gradient_weight)
    ) + math.sqrt(_quadrature(grid, jet.spectrum(1), float(m)))
    coeffs = appendix_b_coefficients(m // 2, p.c)
    lhs = []
    bounds = []
    for k in range(m // 2 + 1):
        lhs.append(math.sqrt(_quadrature(grid, jet.spectrum(k + 1), float(m - 2 * k))))
        bounds.append(coeffs[k] * rhs_base)
    return InitialDataBoundReport(
        m=m, rhs_base=rhs_base, lhs=tuple(lhs), bounds=tuple(bounds)
    )


@dataclass(frozen=True)
class EnergyReport:
    """One timestamped row of every enabled functional.

    Disabled entries are NaN so that serialized rows keep one fixed column
    set per run configuration.
    """

    t: float
    e_wave: float
    e_nonl: float
    f_nu: float
    e_m: tuple[tuple[int, float], ...] = ()
    e_half_m: float = math.nan
    s_half_m: float = math.nan
    e_1m: float = math.nan
    e_inf_m: float = math.nan
    min_hyp: float = math.nan
    div_accum: float = math.nan
    support_radius: float = math.nan

    def e_m_value(self, m: int) -> float:
        for order, value in self.e_m:
            if order == m:
                return value
        raise KeyError(f"E_m order {m} not present in report")


def make_report(
    state: SimState,
    p: PhysicalParams,
    kind: ModelKind = ModelKind.KUZNETSOV,
    e_m_orders: tuple[int, ...] = (),
    half_m: int | None = None,
    jet: Jet | None = None,
) -> EnergyReport:
    """Evaluate the enabled functionals on one state, building a jet if needed."""
    orders = [e_m_jet_order(order) for order in e_m_orders]
    if half_m is not None:
        orders.append(half_m_jet_order(half_m))
    if jet is None and orders:
        jet = build_jet(state, p, max(orders), kind)

    e_m_rows: list[tuple[int, float]] = []
    for order in e_m_orders:
        e_m_rows.append((order, energy_m(jet, order)))
    e_half = s_half = math.nan
    if half_m is not None:
        e_half = energy_half_m(jet, half_m)
        s_half = s_half_m(jet, half_m)
    min_hyp = hyperbolicity_factor(state.v, p, kind)
    return EnergyReport(
        t=state.t,
        e_wave=energy_wave(state, p),
        e_nonl=energy_nonl(state, p, kind),
        f_nu=f_nu(state, p, kind),
        e_m=tuple(e_m_rows),
        e_half_m=e_half,
        s_half_m=s_half,
        min_hyp=min_hyp,
        div_accum=state.div_accum,
        support_radius=support_radius(state),
    )
