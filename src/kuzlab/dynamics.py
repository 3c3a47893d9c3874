"""Model right-hand sides, the hyperbolicity guards, and time integrators.

Four model equations share one quasilinear form

    u_tt - c^2 Lap u - nu*eps Lap u_t = alpha*eps u_t u_tt + beta*eps grad u . grad u_t

solved pointwise for the acceleration

    u_tt = [c^2 Lap u + nu*eps Lap u_t + beta*eps grad u . grad u_t] / (1 - alpha*eps u_t).

The model kinds select effective coefficients: the wave equation zeroes
everything but c, the strongly damped wave keeps the viscosity, the Westervelt
model drops the gradient coupling and strengthens the cumulative coefficient
to (gamma+1)/c^2, and the full model keeps all terms.

Only this module knows the linear part, the strongly damped wave operator
L = [[0, 1], [c^2 Lap, nu_eff*eps Lap]] on (u, v): per mode [[0, 1], [-b, -a]]
with a = nu_eff*eps |k|^2 (_damping: zero for the wave kind whatever nu is)
and b = c^2 |k|^2, eigenvalues (-a +- s)/2 with s = sqrt(a^2 - 4b) (_eigen).
From them _propagator forms the exact flow exp(dt L) and _rk4_amplification
RK4's largest amplification. The one step rule, _resolve_step, takes
horizon/steps, steps the fewest that keep the step within the requested dt
(the CFL step by default), and refuses an RK4 step that amplifies a mode of
L; the run loop, the forced linear solver and step all step by it. The time
loop's other rules live beside it: _trapezoid, _reported and step_counts.

Two integrators are provided: classic explicit RK4 under a CFL restriction,
and an exponential integrating-factor Heun scheme (IMEX) that advances L by
its exact flow and treats the quasilinear remainder explicitly. The flow
depends on |k|^2 alone, so it is cached as four tables over the grid's
distinct |k|^2; _flow, its one update, gathers each block where it reads
it, for the IMEX step and the forced linear solver alike. Both start each
step from the previous step's end-of-step evaluation (FSAL), which a state
rebuilt from its carried spectra reproduces bitwise.

u_tt has one kernel, _accel_kernel, and two readers of it: _evaluate, the
evaluation a step starts from, and _acceleration, a state's u_tt, which
layer 2 of jets.build_jet exposes. The tail monitor has one reader too,
_tail_fraction. The kernel and the stepper also take ensembles: fields
stacked along a leading member axis, transformed over the trailing grid
axes, with one perturbation scale per member and every check and reduction
per member, so each member's row is its own step bitwise.

Transform counts per warm step, n the dimension, for models with the
gradient coupling: RK4 makes 5n+14. Each of its three later stages takes
n+3 (the stage velocity forward, its n gradients, the quadratic term's
pair): a stage displacement u0 + h*w has the known spectrum and the
gradient grad u0 + h*grad w, from the carried grad u and the gradient the
previous stage formed for w. The end-of-step evaluation takes 2n+5 and is
carried with grad u and grad v. IMEX makes 4n+9: its update's spectra go
to the end-of-step evaluation as they are, and only v is inverted, for the
kernel's factor (step inverts u as well). It carries no gradients and no
u_tt, only its transform split into remainder and linear part; _acceleration
rebuilds u_tt from them on request, by one inverse transform. A run that
keeps no reports steps on lean evaluations, without the report scalars and
the inverse transform of Lap u they need: 5n+13 and 4n+8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import GuardViolation, HyperbolicityBreakdown, StepRejected
from .fields import (
    ComplexArray,
    Field,
    FloatArray,
    Grid,
    _l2_sq,
    _quadrature,
    _to_physical,
    _to_spectral,
)

DEFAULT_CFL = 0.4
DEFAULT_HYP_FLOOR = 0.1


class ModelKind(Enum):
    """Which reduction of the quasilinear acoustic model to integrate."""

    WAVE = "wave"
    DAMPED_WAVE = "damped_wave"
    WESTERVELT = "westervelt"
    KUZNETSOV = "kuznetsov"


class Scheme(Enum):
    """Time integrator selector."""

    EXPLICIT_RK4 = "rk4"
    IMEX = "imex"


@dataclass(frozen=True)
class PhysicalParams:
    """Sound speed, viscosity, perturbation scale, and nonlinearity strengths.

    A gas of adiabatic exponent gamma has alpha = (gamma - 1)/c^2, beta = 2
    and nu = delta/rho_0, given as they are: the class holds alpha, not gamma.
    hyp_floor is the breakdown threshold on the factor 1 - alpha*eps*u_t.
    """

    c: float = 1.0
    nu: float = 0.0
    eps: float = 0.1
    alpha: float = 1.0
    beta: float = 2.0
    hyp_floor: float = DEFAULT_HYP_FLOOR

    def __post_init__(self) -> None:
        for name in ("c", "nu", "eps", "alpha", "beta", "hyp_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c <= 0:
            raise ValueError("sound speed c must be positive")
        if self.nu < 0:
            raise ValueError("viscosity nu must be nonnegative")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("perturbation scale eps must lie in (0, 1]")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0.0 < self.hyp_floor < 1.0:
            raise ValueError("hyp_floor must lie in (0, 1)")


def effective_coefficients(p: PhysicalParams, kind: ModelKind) -> tuple[float, float, float]:
    """(alpha_eff, beta_eff, nu_eff) entering the equation for the given kind.

    The Westervelt coefficient (gamma + 1)/c^2 equals alpha + 2/c^2 under the
    physical identification alpha = (gamma - 1)/c^2.
    """
    if kind is ModelKind.WAVE:
        return 0.0, 0.0, 0.0
    if kind is ModelKind.DAMPED_WAVE:
        return 0.0, 0.0, p.nu
    if kind is ModelKind.WESTERVELT:
        return p.alpha + 2.0 / p.c**2, 0.0, p.nu
    return p.alpha, p.beta, p.nu


def damps(p: PhysicalParams, kind: ModelKind) -> bool:
    """Whether the kind's equation damps: nu_eff > 0 (never for the wave kind)."""
    return effective_coefficients(p, kind)[2] > 0.0


def hyperbolicity_guard(p: PhysicalParams, kind: ModelKind) -> float:
    """Strict bound 1/(2 alpha_eff eps) on ||u_1||_inf, keeping the factor in [1/2, 3/2]."""
    alpha_eff = effective_coefficients(p, kind)[0]
    return 1.0 / (2.0 * alpha_eff * p.eps) if alpha_eff > 0.0 else math.inf


@dataclass(frozen=True, eq=False)
class _Accel:
    """One kernel evaluation under (p, kind); the scalars are NaN unless full.

    For member-stacked fields, evaluated with one eps per member in place of
    p.eps, the scalars of a full evaluation hold one value per member.
    """

    p: PhysicalParams
    kind: ModelKind
    u_hat: ComplexArray
    v_hat: ComplexArray
    acc: FloatArray | None  # dropped from an IMEX carry; _acceleration rebuilds it
    rem_hat: ComplexArray | None = None  # the IMEX remainder, when requested
    acc_sup: float | FloatArray = math.nan
    lap_sup: float | FloatArray = math.nan
    fnu: float | FloatArray = math.nan
    # grad u and grad v, kept on request when the gradient coupling forms them.
    grad_u: list[FloatArray] | None = None
    grad_v: list[FloatArray] | None = None

    @property
    def full(self) -> bool:
        """Whether the scalars were formed; a lean evaluation leaves them NaN."""
        return not (np.ndim(self.lap_sup) == 0 and math.isnan(self.lap_sup))

    @property
    def div_rate(self) -> float | FloatArray:
        """The divergence integrand ||u_tt||_inf + ||Lap u||_inf, div_accum's rate."""
        return self.acc_sup + self.lap_sup


@dataclass(frozen=True)
class SimState:
    """Solution pair (u, v = u_t) at time t plus running time integrals.

    fnu_accum carries beta*eps * int_0^t int u_tt |grad u|^2, the accumulated
    part of the F_nu functional; div_accum carries
    int_0^t (||u_tt||_inf + ||Lap u||_inf) d tau, the divergence-criterion
    integrand whose steep growth evidences breakdown. _fsal, the evaluation
    the next step starts from, holds the spectra an IMEX step's u and v are
    the inverse transforms of; equality and repr ignore it.
    """

    u: Field
    v: Field
    t: float = 0.0
    fnu_accum: float = 0.0
    div_accum: float = 0.0
    _fsal: _Accel | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must share one grid")
        if self.t < 0 or not math.isfinite(self.t):
            raise ValueError("time must be finite and nonnegative")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @cached_property
    def _u_hat(self) -> ComplexArray:
        """Transform of u: the carried one, else transformed once and kept."""
        ev = self._fsal
        return ev.u_hat if ev is not None else _to_spectral(self.grid, self.u.values)


def _state(u: Field, v: Field, t: float, fnu: float, div: float, carry: _Accel | None) -> SimState:
    """A state carrying carry, the full evaluation its next step starts from."""
    state = SimState(u, v, t, fnu, div)
    object.__setattr__(state, "_fsal", carry)
    return state


def _factor(alpha_eff: float, eps: float | FloatArray, u_t: FloatArray) -> FloatArray:
    """The pointwise hyperbolicity factor 1 - alpha_eff*eps*u_t, alpha_eff*eps formed first."""
    return 1.0 - alpha_eff * eps * u_t


def hyperbolicity_factor(v: Field, p: PhysicalParams, kind: ModelKind = ModelKind.KUZNETSOV) -> float:
    """Grid minimum of the pointwise factor 1 - alpha*eps*v (reporting only)."""
    alpha_eff, _, _ = effective_coefficients(p, kind)
    return float(_factor(alpha_eff, p.eps, v.values).min())


def _damping(p: PhysicalParams, kind: ModelKind, eps: float | FloatArray) -> float | FloatArray:
    """nu_eff*eps, L's damping: every site that forms L reads it here."""
    return effective_coefficients(p, kind)[2] * eps


def _linear_hat(
    grid: Grid, u_hat: ComplexArray, v_hat: ComplexArray, p: PhysicalParams, kind: ModelKind,
    eps: float | FloatArray,
) -> ComplexArray:
    """Transform of the linear part c^2 Lap u + nu_eff*eps Lap v of u_tt's numerator."""
    lin_hat = p.c**2 * u_hat
    if damps(p, kind):
        lin_hat += _damping(p, kind, eps) * v_hat
    lin_hat *= -grid.k_squared
    return lin_hat


def _accel_kernel(
    grid: Grid, u_hat: ComplexArray, v_hat: ComplexArray, v: FloatArray,
    p: PhysicalParams, kind: ModelKind, t: float | None = None,
    *, eps: float | FloatArray | None = None, quad: FloatArray | None = None,
    grad_u: list[FloatArray] | None = None, gradients: bool = False,
    full: bool = False, remainder: bool = False,
) -> _Accel:
    """u_tt from the spectra of (u, v) and physical v: the one acceleration kernel.

    c^2 Lap u + nu*eps Lap v + P(quad), P the 2/3 rule and quad = beta*eps
    grad u . grad v unless the jet cascade passes its Leibniz sums, is built
    in spectral space, inverted once and divided by 1 - alpha*eps*v, raising
    HyperbolicityBreakdown at the floor. grad_u, when given, stands in for
    the inverse transforms of u's gradient; gradients keeps grad u and
    grad v on the result. full adds sup |u_tt|, sup |Lap u| and the F_nu
    integrand beta*eps int u_tt |grad u|^2; remainder adds the IMEX
    remainder: the transform of u_tt minus its linear part.

    The fields may carry leading member axes ahead of the grid axes; eps then
    holds one perturbation scale per member in place of p.eps, the floor is
    checked and the scalars are reduced per member.
    """
    alpha_eff, beta_eff, _ = effective_coefficients(p, kind)
    if eps is None:
        eps = p.eps
    eps_col = np.asarray(eps)[(...,) + (None,) * grid.n]
    factor = None
    if alpha_eff != 0.0:
        factor = _factor(alpha_eff, eps_col, v)
        fmin = np.minimum.reduce(factor, axis=grid.axes)
        tripped = fmin <= p.hyp_floor
        if tripped.any():
            raise HyperbolicityBreakdown(np.asarray(fmin)[tripped].min(), p.hyp_floor, t, tripped)
    grad_sq = None
    kept_u, kept_v = [], []
    if quad is None and beta_eff != 0.0:
        # One pass over the axes: each component is summed into the quadratic
        # term (and |grad u|^2) as it is formed, and kept only on request. A
        # pair not kept takes its own products, and goes before the next.
        for axis, mult in enumerate(grid.derivative_multipliers):
            g = _to_physical(grid, u_hat * mult, consume=True) if grad_u is None else grad_u[axis]
            gv = _to_physical(grid, v_hat * mult, consume=True)
            if gradients:
                kept_u.append(g)
                kept_v.append(gv)
            prod = g * gv if gradients else np.multiply(gv, g, out=gv)
            quad = prod if quad is None else np.add(quad, prod, out=quad)
            if full:
                sq = g * g if gradients or grad_u is not None else np.multiply(g, g, out=g)
                grad_sq = sq if grad_sq is None else np.add(grad_sq, sq, out=grad_sq)
            g = gv = prod = sq = None
        quad *= beta_eff * eps_col
    grad_u, grad_v = (kept_u, kept_v) if kept_v else (None, None)
    lin_hat = _linear_hat(grid, u_hat, v_hat, p, kind, eps_col)
    num_hat = lin_hat
    fresh = quad is not None
    if fresh:
        num_hat = _to_spectral(grid, quad)
        quad = None
        num_hat *= grid.dealias_mask
        num_hat += lin_hat
    rem_hat = None
    if remainder and factor is None:
        rem_hat = num_hat - lin_hat
    # A fresh sum is read no further, so its inverse may write into it.
    acc = _to_physical(grid, num_hat, consume=fresh)
    num_hat = None
    if factor is not None:
        acc /= factor
        if remainder:
            rem_hat = _to_spectral(grid, acc)
            rem_hat -= lin_hat
    lin_hat = None
    if not full:
        return _Accel(p, kind, u_hat, v_hat, acc, rem_hat, grad_u=grad_u, grad_v=grad_v)
    fnu = 0.0
    if grad_sq is not None:
        grad_sq *= acc
        fnu = np.sum(grad_sq, axis=grid.axes)
        grad_sq = None
    fnu *= beta_eff * np.asarray(eps) * grid.cell_volume
    acc_sup = np.max(np.abs(acc), axis=grid.axes)
    # The factor goes here, before the Laplacian's transform, not as soon as
    # it is read: freed earlier, it leaves glibc a heap top to trim after each
    # call and fault back in on the next, which took a 64^3 decay run from
    # 108k minor faults to 202k.
    factor = None
    lap_sup = np.max(
        np.abs(_to_physical(grid, -grid.k_squared * u_hat, consume=True)), axis=grid.axes
    )
    return _Accel(p, kind, u_hat, v_hat, acc, rem_hat, acc_sup, lap_sup, fnu, grad_u, grad_v)


def _carried(state: SimState, p: PhysicalParams, kind: ModelKind) -> _Accel | None:
    """The state's carry if it was made under (p, kind), else None."""
    ev = state._fsal
    return ev if ev is not None and ev.p == p and ev.kind is kind else None


def _spectra(state: SimState) -> tuple[ComplexArray, ComplexArray]:
    """Transforms of (u, v): the carried ones when the state has them."""
    ev = state._fsal
    return state._u_hat, _to_spectral(state.grid, state.v.values) if ev is None else ev.v_hat


def _rows(ev: _Accel, index: int | np.ndarray) -> _Accel:
    """The members index picks from a member-stacked evaluation, bit for bit:
    an integer gives one unstacked evaluation, a boolean mask a smaller stack."""
    def pick(a):
        if isinstance(a, list):
            return [x[index] for x in a]
        return a if a is None or np.ndim(a) == 0 else a[index]  # p, kind and NaN scalars stay whole

    return replace(ev, **{f.name: pick(getattr(ev, f.name)) for f in fields(ev)})


def _evaluate(
    grid: Grid, u_hat: ComplexArray, v_hat: ComplexArray, v: FloatArray, t: float,
    p: PhysicalParams, kind: ModelKind, scheme: Scheme, eps: float | FloatArray,
    full: bool = True,
) -> _Accel:
    """The evaluation a step of scheme starts from, full unless a run without records asks
    for it lean: the spectra, the form of u_tt _reads gives and RK4's grad u and grad v."""
    imex = scheme is Scheme.IMEX
    ev = _accel_kernel(
        grid, u_hat, v_hat, v, p, kind, t, eps=eps, gradients=not imex, full=full, remainder=imex
    )
    return ev if _reads(ev, scheme) is ev.acc else replace(ev, acc=None)


def _reads(ev: _Accel, scheme: Scheme) -> FloatArray | ComplexArray | None:
    """The one form of u_tt a step of scheme reads from its start and _evaluate keeps;
    None in a carry that lacks it, which the step evaluates afresh."""
    return ev.rem_hat if scheme is Scheme.IMEX else ev.acc


def _acceleration(
    state: SimState, p: PhysicalParams, kind: ModelKind, gradients: bool = False
) -> _Accel:
    """The state's evaluation under (p, kind) with its u_tt: an RK4 carry as it
    is, an IMEX carry completed by one inverse transform of its remainder plus
    linear part, else the kernel's, which keeps grad u and grad v on request."""
    ev = _carried(state, p, kind)
    if ev is None:
        return _accel_kernel(
            state.grid, *_spectra(state), state.v.values, p, kind, state.t, gradients=gradients
        )
    if ev.acc is None:
        lin_hat = _linear_hat(state.grid, ev.u_hat, ev.v_hat, p, kind, p.eps)
        ev = replace(ev, acc=_to_physical(state.grid, ev.rem_hat + lin_hat, consume=True))
    return ev


def _eigen(k2: FloatArray, c: float, nu_eps: float | tuple[float, ...]) -> tuple:
    """a = nu_eps*|k|^2, b = c^2 |k|^2 and complex s = sqrt(a^2 - 4b) on k2, L's
    eigenvalues being (-a +- s)/2; one row per member when nu_eps is a tuple."""
    a = np.asarray(nu_eps)[..., None] * k2
    b = c**2 * k2
    return a, b, np.sqrt((a * a - 4.0 * b).astype(complex))


def cfl_dt(grid: Grid, c: float, cfl: float = DEFAULT_CFL) -> float:
    """Largest admissible explicit time step cfl * min(dx_i) / c."""
    return cfl * min(grid.spacings) / c


def _admissible_dt(grid: Grid, c: float, dt: float, scheme: Scheme, cfl: float) -> float:
    """dt, shrunk to the CFL limit under the explicit scheme."""
    return min(dt, cfl_dt(grid, c, cfl)) if scheme is Scheme.EXPLICIT_RK4 else dt


def _rk4_amplification(grid: Grid, p: PhysicalParams, kind: ModelKind, dt: float) -> float:
    """Largest |R(dt*lambda)|, R RK4's stability polynomial, over L's eigenvalues
    on the grid's distinct |k|^2 (k_squared_table): the dense scan's, bitwise."""
    a, _, s = _eigen(grid.k_squared_table[0], p.c, _damping(p, kind, p.eps))
    z = dt * (0.5 * (-a + np.stack((s, -s))))
    return float(np.max(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))))


# Headroom over 1 for roundoff in |R| on the purely oscillatory modes, where
# |R| sits a hair below 1; a genuine instability grows far beyond it.
_AMPLIFICATION_SLACK = 1e-12


@lru_cache(maxsize=64)
def _resolve_step(
    grid: Grid, p: PhysicalParams, kind: ModelKind, horizon: float, dt: float | None,
    scheme: Scheme, cfl: float,
) -> tuple[int, float]:
    """The step rule: the number of uniform steps landing on horizon and the step.

    The step is horizon / steps, steps the fewest that keep it at most dt up
    to 1e-12 of a step (dt the CFL step when None, and shrunk to it under
    RK4). Raises GuardViolation when the explicit scheme would amplify some
    mode of L: its run would end on a numerical instability that the
    monitors cannot tell from a physical breakdown.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    dt = cfl_dt(grid, p.c, cfl) if dt is None else _admissible_dt(grid, p.c, dt, scheme, cfl)
    steps = max(1, math.ceil(horizon / dt - 1e-12))
    dt = horizon / steps
    if scheme is Scheme.EXPLICIT_RK4:
        amplification = _rk4_amplification(grid, p, kind, dt)
        if amplification > 1.0 + _AMPLIFICATION_SLACK:
            raise GuardViolation(
                f"explicit RK4 amplifies a linear mode by {amplification:.6g} "
                f"per step at dt = {dt:.6g}; use scheme: \"imex\""
            )
    return steps, dt


def check_report_every(report_every: int) -> None:
    """Raise ValueError unless a run records at least every report_every >= 1 steps."""
    if report_every < 1:
        raise ValueError("report_every must be >= 1")


def _reported(k: int, steps: int, report_every: int) -> bool:
    """The record cadence: whether a run of that many steps records after step k,
    which it does every report_every steps from the data (k = 0) and after the last."""
    return k % report_every == 0 or k == steps


def _trapezoid(total: FloatArray, before: FloatArray, after: FloatArray, dt: float) -> FloatArray:
    """A running integral (one per member when stacked) advanced over one step dt
    by the trapezoid rule from its integrand before and after: the one such rule."""
    return total + 0.5 * dt * (before + after)


@lru_cache(maxsize=64)
def _propagator(
    grid: Grid, dt: float, c: float, nu_eps: float | tuple[float, ...]
) -> tuple[np.ndarray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """The exact flow exp(dt L) on the grid's distinct |k|^2 (Grid.k_squared_table):
    the index, then four contiguous real tables, one row per member when nu_eps
    is a tuple; table[..., index] is the entry on the transform layout."""
    k2, index = grid.k_squared_table
    a, b, s = _eigen(k2, c, nu_eps)
    h = 0.5 * dt * s
    # Near exp's range pref*cosh h would be 0*inf (pref leaves the normal
    # range past 708.4): modes past this bound are formed below, and their h
    # is zeroed here so that cosh and sinh stay finite.
    stiff = 0.5 * a * dt > 700.0
    h_mild = np.where(stiff, 0.0, h)
    cosh_h = np.cosh(h_mild)
    # sinh(h)/h with a series fallback where h ~ 0 (k = 0 and critical modes).
    small = np.abs(h) < 1e-8
    h_safe = np.where(small, 1.0, h)
    sinhc = np.where(small, 1.0 + h * h / 6.0, np.sinh(h_mild) / h_safe)
    pref = np.exp(-0.5 * a * dt)
    if stiff.any():
        # pref*cosh h and pref*sinh(h)/h from e^(h - a dt/2) and e^(-h - a dt/2),
        # by exponents -2b dt/(s + a) and -dt (s + a)/2 that cancel nothing.
        total = (s + a)[stiff]
        grow = np.exp(-2.0 * dt * np.broadcast_to(b, a.shape)[stiff] / total)
        decay = np.exp(-0.5 * dt * total)
        pref[stiff] = 1.0
        cosh_h[stiff] = 0.5 * (grow + decay)
        sinhc[stiff] = 0.5 * (grow - decay) / h_safe[stiff]
    e00 = (pref * (cosh_h + 0.5 * a * dt * sinhc)).real.copy()
    e01 = (pref * dt * sinhc).real.copy()
    e10 = (pref * (-b) * dt * sinhc).real.copy()
    e11 = (pref * (cosh_h - 0.5 * a * dt * sinhc)).real.copy()
    return index, e00, e01, e10, e11


def _flow(
    flow: tuple, u_hat: ComplexArray, v_hat: ComplexArray, h: float, n_hat: ComplexArray,
    n2_hat: ComplexArray | None,
) -> tuple[ComplexArray, ComplexArray]:
    """exp(dt L)(u_hat, v_hat + h*n_hat), flow _propagator's entry for dt, plus h*n2_hat
    added last to v unless None: the one update of the exact linear flow. It gathers
    each block where it reads it, so that one gathered block is held at a time."""
    index, e00, e01, e10, e11 = flow
    base = v_hat + h * n_hat
    u_new = e00[..., index] * u_hat + e01[..., index] * base
    v_new = e10[..., index] * u_hat + e11[..., index] * base
    if n2_hat is not None:
        v_new += h * n2_hat
    return u_new, v_new


def step(
    state: SimState,
    dt: float,
    p: PhysicalParams,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    cfl: float = DEFAULT_CFL,
) -> SimState:
    """Advance one time step; updates both running accumulators by trapezoid.

    For the explicit scheme the step is shrunk to the largest CFL-admissible value
    <= dt (never enlarged) and guarded, both by _resolve_step; the state's t advances
    by the step actually taken.  Raises StepRejected if the update produces
    non-finite values and propagates HyperbolicityBreakdown from accelerations.
    """
    if dt < 0 or not math.isfinite(dt):
        raise ValueError("dt must be finite and nonnegative")
    if dt == 0.0:
        return state
    if scheme not in (Scheme.EXPLICIT_RK4, Scheme.IMEX):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = state.grid
    # A horizon of the admissible step is one step of the step rule, guarded under RK4.
    _, dt = _resolve_step(grid, p, kind, _admissible_dt(grid, p.c, dt, scheme, cfl), dt, scheme, cfl)
    # A fresh evaluation starts from the carry's transforms: the two agree bitwise.
    start = _carried(state, p, kind)
    if start is None or _reads(start, scheme) is None:
        start = _evaluate(grid, *_spectra(state), state.v.values, state.t, p, kind, scheme, p.eps)
    u1, v1, end = _advance(
        grid, state.u.values, state.v.values, state.t, start, dt, p, kind, scheme, p.eps
    )
    if u1 is None:  # an IMEX step leaves u1 as its carried spectrum
        u1 = _to_physical(grid, end.u_hat)
    # The end-of-step evaluation closes the trapezoid rule for both running
    # integrals and, carried on the new state, is the next step's first stage.
    fnu = _trapezoid(state.fnu_accum, start.fnu, end.fnu, dt)
    div = _trapezoid(state.div_accum, start.div_rate, end.div_rate, dt)
    return _state(Field(grid, u1), Field(grid, v1), state.t + dt, float(fnu), float(div), end)


# Steps since import, as telemetry.json names them: stepper_calls, one per call
# of the one stepper, _advance, whatever the number of members it carries, and
# one per forced linear step; planned_steps, the count _resolve_step gives each
# run of experiments' run loop and each forced linear solve.
step_counts = {"stepper_calls": 0, "planned_steps": 0}


def _advance(
    grid: Grid, u0: FloatArray, v0: FloatArray, t0: float, start: _Accel, dt: float,
    p: PhysicalParams, kind: ModelKind, scheme: Scheme, eps: float | FloatArray,
) -> tuple[FloatArray, FloatArray, _Accel]:
    """One RK4 or IMEX step of (u, v) from their evaluation: the one stepper.

    The fields may be stacked along leading member axes with eps one scale
    per member (see _accel_kernel); each member's row comes out bitwise as
    its own step would give it. start is (u0, v0)'s evaluation (_evaluate),
    all that IMEX reads. Returns the new fields (IMEX forms no u1) and their
    evaluation, as full as start, which validates them and is the next
    step's start. Raises StepRejected on non-finite fields and
    HyperbolicityBreakdown from any evaluation, each marking its members.
    """
    step_counts["stepper_calls"] += 1
    u_hat, v_hat = start.u_hat, start.v_hat

    if scheme is Scheme.EXPLICIT_RK4:
        # Stage displacements u0 + h*w are linear in known spectra, and so are
        # their gradients grad u0 + h*grad w, with grad w kept from the stage
        # that evaluated w; only velocities are transformed.
        def stage(
            h: float, w_hat: ComplexArray, grad_w: list[FloatArray] | None,
            vel: FloatArray, keep: bool,
        ) -> tuple[FloatArray, ComplexArray, list[FloatArray] | None]:
            """u_tt at (u0 + h*w, vel), vel's spectrum and, if keep, its gradient."""
            grad = None
            if start.grad_u is not None and grad_w is not None:
                grad = [gu + h * gw for gu, gw in zip(start.grad_u, grad_w)]
            vel_hat = _to_spectral(grid, vel)
            ev = _accel_kernel(
                grid, u_hat + h * w_hat, vel_hat, vel, p, kind, t0,
                eps=eps, grad_u=grad, gradients=keep,
            )
            return ev.acc, vel_hat, ev.grad_v

        # The sums v0 + 2k2u + 2k3u + k4u and a1 + 2a2 + 2a3 + a4 grow as
        # each stage ends, left to right as written, so a stage's velocity
        # and u_tt are dropped once added.
        a1 = _reads(start, scheme)
        k2u = v0 + 0.5 * dt * a1
        a2, w_hat, grad_w = stage(0.5 * dt, v_hat, start.grad_v, k2u, True)
        vel_sum = v0 + 2.0 * k2u
        del k2u
        k3u = v0 + 0.5 * dt * a2
        acc_sum = a1 + 2.0 * a2
        del a2
        a3, w_hat, grad_w = stage(0.5 * dt, w_hat, grad_w, k3u, True)
        vel_sum += 2.0 * k3u
        del k3u
        k4u = v0 + dt * a3
        acc_sum += 2.0 * a3
        del a3
        a4 = stage(dt, w_hat, grad_w, k4u, False)[0]
        del w_hat, grad_w
        vel_sum += k4u
        del k4u
        acc_sum += a4
        del a4
        u1 = u0 + dt / 6.0 * vel_sum
        del vel_sum
        v1 = v0 + dt / 6.0 * acc_sum
        del acc_sum
    else:
        nu_eps = _damping(p, kind, eps)
        flow = _propagator(grid, dt, p.c, nu_eps if np.ndim(nu_eps) == 0 else tuple(nu_eps.tolist()))
        up_hat, vp_hat = _flow(flow, u_hat, v_hat, dt, _reads(start, scheme), None)
        vp = _to_physical(grid, vp_hat)
        n2_hat = _accel_kernel(grid, up_hat, vp_hat, vp, p, kind, t0 + dt, eps=eps, remainder=True).rem_hat
        del up_hat, vp_hat, vp
        u1_hat, v1_hat = _flow(flow, u_hat, v_hat, 0.5 * dt, _reads(start, scheme), n2_hat)
        # Nothing but the end-of-step evaluation reads on: it takes the spectra
        # as they are, and v1 for the kernel's factor.
        del n2_hat
        u1, v1 = None, _to_physical(grid, v1_hat)

    finite = np.isfinite(u1_hat if u1 is None else u1).all(axis=grid.axes)
    finite &= np.isfinite(v1).all(axis=grid.axes)
    if not finite.all():
        raise StepRejected(f"non-finite fields after step from t = {t0:.6g}", ~finite)
    if u1 is not None:  # RK4 forms the new fields, and transforms them
        u1_hat, v1_hat = _to_spectral(grid, u1), _to_spectral(grid, v1)
    return u1, v1, _evaluate(grid, u1_hat, v1_hat, v1, t0 + dt, p, kind, scheme, eps, start.full)


@lru_cache(maxsize=8)
def _tail_constants(grid: Grid, c: float) -> tuple[FloatArray, FloatArray, np.ndarray, np.ndarray]:
    """The tail density's factors |k|^2 times the Hermitian weight and c^2 |k|^2,
    and the flat indices of the dealias band and of its resolved tail."""
    return (
        grid.hermitian_weight * grid.k_squared, c**2 * grid.k_squared,
        np.flatnonzero(grid.dealias_mask), np.flatnonzero(grid.resolved_tail_mask),
    )


def _tail_fraction(grid: Grid, c: float, u_hat: ComplexArray, v_hat: ComplexArray) -> float | FloatArray:
    """Fraction of gradient-energy density in the top third of the resolved band,
    from the spectra of (u, v); one value per member when they are stacked.

    The monitored density is |k|^2 (c^2 |k|^2 |u_hat|^2 + |v_hat|^2), the
    wave-energy density of the differentiated pair (Lap u, grad u_t), with
    Hermitian multiplicities. Dealiasing confines the evolved state to
    |j_i| <= N_i/3, so under-resolution manifests as this density piling up
    against the band edge: for smooth states the outer-third fraction sits
    near roundoff, while a front reaching the grid scale sends it to O(0.1).
    Values above ~0.01 flag spectral under-resolution of the breakdown
    quantities.
    """
    weight, c2k2, band_idx, tail_idx = _tail_constants(grid, c)
    density = weight * (c2k2 * np.abs(u_hat) ** 2 + np.abs(v_hat) ** 2)
    # Taken rows are contiguous and sum in the order one member's masked sum takes.
    density = density.reshape(density.shape[: density.ndim - grid.n] + (-1,))
    total = density.take(band_idx, axis=-1).sum(axis=-1)
    tail = density.take(tail_idx, axis=-1).sum(axis=-1)
    return np.divide(tail, total, out=np.zeros_like(tail), where=~(total <= 0.0))


def support_radius(state: SimState) -> float:
    """Largest per-axis distance from the box center where (u, v) is active.

    A grid point is active when |u| or |v| exceeds 1e-8 times the
    respective maximum; the radius is the max-norm distance so that values
    approach min(L_i)/2 as the support reaches the periodic wrap-around.
    """
    return float(_support_radius(state.grid, state.u.values, state.v.values))


def _support_radius(grid: Grid, u: FloatArray, v: FloatArray) -> FloatArray:
    """support_radius of (u, v); one value per member when they are stacked."""
    active = np.zeros(u.shape, dtype=bool)
    for values in (u, v):
        size = np.abs(values)
        active |= size > 1e-8 * size.max(axis=grid.axes, keepdims=True)
    radius = np.zeros(u.shape[: u.ndim - grid.n])
    for axis in range(grid.n):
        # The largest distance over active points, by the coordinates they reach.
        reached = active.any(axis=tuple(a for a in grid.axes if a != axis - grid.n))
        dist = np.abs(grid.axis_coordinates(axis) - grid.center[axis])
        radius = np.maximum(radius, np.where(reached, dist, 0.0).max(axis=-1))
    return radius


@dataclass(frozen=True)
class LinearForcedResult:
    """Both sides of the linear maximal-regularity inequality along a run, all the solver returns.

    lhs(t) = (1/2)(||grad u_t||^2 + c^2 ||Lap u||^2)
             + (nu*eps/2) int_0^t ||Lap u_tau||^2,
    rhs(t) = (1/2)||grad u_1||^2 + (1/2)||Lap u_0||^2
             + 1/(2 nu*eps) int_0^t ||f||^2.
    """

    times: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]

    @property
    def margins(self) -> tuple[float, ...]:
        """Relative slack (rhs - lhs)/rhs per reported time (1.0 where both 0)."""
        return tuple(
            (r - l) / r if r > 0.0 else (1.0 if l <= 0.0 else -math.inf)
            for l, r in zip(self.lhs, self.rhs)
        )

    @property
    def worst_margin(self) -> float:
        return min(self.margins)

    def holds(self, tol: float) -> bool:
        """Whether lhs <= rhs * (1 + tol) at every reported time."""
        return all(l <= r * (1.0 + tol) + 1e-300 for l, r in zip(self.lhs, self.rhs))


def solve_linear_forced(
    u0: Field,
    u1: Field,
    f: Callable[[float], Field],
    horizon: float,
    p: PhysicalParams,
    dt: float | None = None,
    report_every: int = 10,
    cfl: float = DEFAULT_CFL,
) -> LinearForcedResult:
    """Integrate u_tt - c^2 Lap u - nu*eps Lap u_t = f and record both sides.

    The source f is time-sampled: a callable returning the Field f(t).  The
    linear flow uses the exact per-mode propagator; the forcing enters by the
    exponential trapezoidal rule (the integrating-factor Heun update, which
    needs no predictor because the source does not depend on the state).
    The step is _resolve_step's for dt and cfl, and both sides are recorded
    at the run loop's cadence, _reported; the steps count in step_counts.
    The records are the whole result (the final spectra are not transformed
    back); its holds(tol) is the check.  The right-hand side is taken as
    written, with a bare (1/2)||Lap u_0||^2 term, so the inequality is
    calibrated for unit sound speed c <= 1.

    Raises
    ------
    ValueError
        If nu == 0 (the inequality needs dissipation), horizon <= 0 or
        report_every < 1.
    """
    if p.nu <= 0.0:
        raise ValueError("solve_linear_forced requires nu > 0")
    check_report_every(report_every)
    grid = u0.grid
    if u1.grid != grid:
        raise ValueError("u0 and u1 must share one grid")
    kind = ModelKind.DAMPED_WAVE
    steps, dt = _resolve_step(grid, p, kind, horizon, dt, Scheme.IMEX, cfl)
    step_counts["planned_steps"] += steps
    nu_eps = _damping(p, kind, p.eps)
    flow = _propagator(grid, dt, p.c, nu_eps)
    k_fourth = grid.k_squared**2

    def grad_sq(spec: ComplexArray) -> float:
        return _quadrature(grid, spec, weight=grid.gradient_weight)

    def lap_sq(spec: ComplexArray) -> float:
        return _quadrature(grid, spec, weight=k_fourth)

    def lhs_now(u_hat: ComplexArray, v_hat: ComplexArray, diss: float) -> float:
        return 0.5 * (grad_sq(v_hat) + p.c**2 * lap_sq(u_hat)) + 0.5 * nu_eps * diss

    u_hat = _to_spectral(grid, u0.values)
    v_hat = _to_spectral(grid, u1.values)
    diss_int = 0.0
    force_int = 0.0
    lap_sq_prev = lap_sq(u_hat)
    f_prev = f(0.0)
    f_sq_prev = _l2_sq(grid, f_prev.values)
    f1_hat = _to_spectral(grid, f_prev.values)
    rhs0 = 0.5 * grad_sq(v_hat) + 0.5 * lap_sq_prev

    times = [0.0]
    lhs_series = [lhs_now(u_hat, v_hat, 0.0)]
    rhs_series = [rhs0]
    for k in range(1, steps + 1):
        t_next = k * dt
        f_next = f(t_next)
        f2_hat = _to_spectral(grid, f_next.values)
        u_hat, v_hat = _flow(flow, u_hat, v_hat, 0.5 * dt, f1_hat, f2_hat)
        lap_sq_now = lap_sq(u_hat)
        f_sq_now = _l2_sq(grid, f_next.values)
        diss_int = _trapezoid(diss_int, lap_sq_prev, lap_sq_now, dt)
        force_int = _trapezoid(force_int, f_sq_prev, f_sq_now, dt)
        lap_sq_prev, f_sq_prev, f1_hat = lap_sq_now, f_sq_now, f2_hat
        if _reported(k, steps, report_every):
            times.append(t_next)
            lhs_series.append(lhs_now(u_hat, v_hat, diss_int))
            rhs_series.append(rhs0 + force_int / (2.0 * nu_eps))
    step_counts["stepper_calls"] += steps
    return LinearForcedResult(tuple(times), tuple(lhs_series), tuple(rhs_series))
