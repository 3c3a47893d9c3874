"""Orchestrated runs probing the qualitative theory at desk scale.

Each driver wires the dynamics and energy layers into one reproducible
experiment: lifespan scaling of the breakdown time against epsilon, the
exponential stability envelope for perturbed pairs, global viscous decay
of the multi-index energy, boundedness of the weighted Klainerman ratio,
and the linear maximal-regularity inequality. The lifespan sweep steps all
its epsilon points as one member-stacked batch through the same stepper a
single run uses, so each row equals that point's own breakdown run bit for
bit. Drivers are deterministic given their arguments; persistence of
configs and results lives in the io and cli layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    DEFAULT_CFL,
    LinearForcedResult,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    _admissible_dt,
    _advance,
    _carried,
    _tail_fraction,
    cfl_dt,
    effective_coefficients,
    solve_linear_forced,
    spectral_tail_fraction,
    step,
)
from .energies import (
    EnergyReport,
    EnvelopeParams,
    _grad_sq,
    klainerman_record,
    make_report,
    theorem_45_energy,
    thresholds,
)
from .errors import (
    GuardViolation,
    HyperbolicityBreakdown,
    StepRejected,
    SupportMonitorTripped,
)
from .fields import Field, Grid, _to_spectral, gradient_values, linf_norm
from .jets import build_jet

DEFAULT_TAIL_THRESHOLD = 0.01
DEFAULT_SUPPORT_FRACTION = 0.4


class BreakdownCause(Enum):
    """Which monitor ended a run (or none, if the horizon was reached)."""

    HYPERBOLICITY = "hyperbolicity_breakdown"
    SPECTRAL = "spectral_under_resolution"
    DIVERGENCE = "divergence_threshold"
    NUMERICAL = "numerical_instability"
    HORIZON = "horizon_reached"


@dataclass(frozen=True)
class BlowupVerdict:
    """Outcome of a breakdown run.

    t_star is the last accepted time before the first tripped monitor and is
    present exactly when the run did not reach the horizon. div_accum_final
    is the accumulated integral of ||u_tt||_inf + ||Lap u||_inf, the
    quantity whose divergence certifies finite-time breakdown; a discrete
    run evidences divergence by steep growth, never by an actual infinity.
    """

    t_star: float | None
    cause: BreakdownCause
    div_accum_final: float

    def __post_init__(self) -> None:
        if (self.t_star is None) != (self.cause is BreakdownCause.HORIZON):
            raise ValueError("t_star must be present exactly when cause is not HORIZON")


@dataclass(frozen=True)
class SweepRow:
    """One lifespan measurement: epsilon, breakdown time, scaled form."""

    eps: float
    t_star: float | None
    cause: BreakdownCause
    scaled: float | None


@dataclass(frozen=True)
class SweepResult:
    """Lifespan sweep rows plus the fitted log-log slope.

    The scaled column carries eps * t_star for n = 1, eps^2 * t_star for
    n = 2 and eps * log(t_star) for n = 3, matching the forms whose liminf
    the theory bounds away from zero. Rows whose run reached the horizon
    are tainted: listed, but excluded from the fit. The fit is skipped
    (slope None) with fewer than two clean rows.
    """

    n: int
    rows: tuple[SweepRow, ...]
    slope: float | None
    intercept: float | None

    @property
    def tainted(self) -> tuple[float, ...]:
        return tuple(r.eps for r in self.rows if r.cause is BreakdownCause.HORIZON)

    @property
    def clean_rows(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.cause is not BreakdownCause.HORIZON)


def _rk4_amplification(grid: Grid, p: PhysicalParams, kind: ModelKind, dt: float) -> float:
    """Largest |R(dt*lambda)| over the grid's modes, R the RK4 stability polynomial.

    lambda runs over both eigenvalues of the linear part
    [[0, 1], [-c^2 |k|^2, -nu_eff*eps |k|^2]] of the model at each |k|^2.
    """
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


# Headroom over 1 for roundoff in |R| on the purely oscillatory modes, where
# |R| sits a hair below 1; a genuine instability grows far beyond it.
_AMPLIFICATION_SLACK = 1e-12


def _resolve_step(
    grid: Grid,
    p: PhysicalParams,
    kind: ModelKind,
    horizon: float,
    dt: float | None,
    scheme: Scheme,
    cfl: float,
) -> tuple[int, float]:
    """Number of uniform steps and the step size landing exactly on horizon.

    Raises GuardViolation when the explicit scheme would amplify some mode
    of the linear part: its run would end on a numerical instability that
    the monitors cannot tell from a physical breakdown.
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


def _check_run_guards(
    u0: Field,
    u1: Field,
    p: PhysicalParams,
    kind: ModelKind,
    m1: float | None,
    m2: float | None,
) -> None:
    """Initial-data guards: the strict sup-norm bound on u_1 plus M_1/M_2."""
    alpha_eff, _, _ = effective_coefficients(p, kind)
    if alpha_eff > 0.0:
        guard = 1.0 / (2.0 * alpha_eff * p.eps)
        sup_u1 = linf_norm(u1)
        if not sup_u1 < guard:
            raise GuardViolation(
                f"||u_1||_inf = {sup_u1:.6g} violates the strict bound {guard:.6g}"
            )
    if m1 is not None and linf_norm(u0) > m1:
        raise GuardViolation(f"||u_0||_inf = {linf_norm(u0):.6g} exceeds M_1 = {m1:.6g}")
    if m2 is not None:
        sup_grad = max(
            float(np.max(np.abs(g))) for g in gradient_values(u0.grid, u0.values)
        )
        if sup_grad > m2:
            raise GuardViolation(f"||grad u_0||_inf = {sup_grad:.6g} exceeds M_2 = {m2:.6g}")


def _safe_report(
    state: SimState,
    p: PhysicalParams,
    kind: ModelKind,
    e_m_orders: tuple[int, ...],
    half_m: int | None,
) -> EnergyReport:
    """Report on a state, dropping jet functionals if the cascade degenerates."""
    try:
        return make_report(state, p, kind, e_m_orders=e_m_orders, half_m=half_m)
    except HyperbolicityBreakdown:
        return make_report(state, p, kind)


def run_until_breakdown(
    initial: tuple[Field, Field],
    p: PhysicalParams,
    horizon: float,
    report_every: int = 10,
    *,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
    div_threshold: float | None = None,
    m1: float | None = None,
    m2: float | None = None,
    e_m_orders: tuple[int, ...] = (),
    half_m: int | None = None,
) -> tuple[tuple[EnergyReport, ...], BlowupVerdict]:
    """Integrate until the first breakdown monitor trips or the horizon is hit.

    Breakdown is the first of: minimum hyperbolicity factor at or below the
    configured floor (including the solver raising mid-step), spectral tail
    fraction above tail_threshold, or, when div_threshold is set, the
    accumulated ||u_tt||_inf + ||Lap u||_inf integral crossing it. A step
    producing non-finite values is recorded as a numerical instability at
    the last accepted time.

    Args:
        initial: pair (u0, u1) of potential and velocity fields.
        p: physical parameters; p.hyp_floor is the breakdown floor.
        horizon: final time if nothing trips.
        report_every: emit an EnergyReport every this many steps.
        m1, m2: optional sup-norm guards on u0 and grad u0 at t = 0.

    Returns:
        (reports, verdict); reports always include t = 0 and the last
        accepted state.

    Raises:
        GuardViolation: the data fail a guard before any stepping, or the
            explicit scheme is unstable on the stiff linear part.
    """
    u0, u1 = initial
    _check_run_guards(u0, u1, p, kind, m1, m2)
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    steps, dt_eff = _resolve_step(u0.grid, p, kind, horizon, dt, scheme, cfl)

    state = SimState(u0, u1)
    reports = [_safe_report(state, p, kind, e_m_orders, half_m)]

    # The hyperbolicity floor needs no check here: every step raises
    # HyperbolicityBreakdown on its start and end states.
    def monitor(s: SimState) -> BreakdownCause | None:
        if spectral_tail_fraction(s, p) > tail_threshold:
            return BreakdownCause.SPECTRAL
        if div_threshold is not None and s.div_accum >= div_threshold:
            return BreakdownCause.DIVERGENCE
        return None

    cause = monitor(state)
    for k in range(steps):
        if cause is not None:
            break
        try:
            state = step(state, dt_eff, p, kind, scheme, cfl)
        except HyperbolicityBreakdown:
            cause = BreakdownCause.HYPERBOLICITY
            break
        except StepRejected:
            cause = BreakdownCause.NUMERICAL
            break
        cause = monitor(state)
        if cause is None and (k + 1) % report_every == 0 and k + 1 < steps:
            reports.append(_safe_report(state, p, kind, e_m_orders, half_m))

    if state.t != reports[-1].t:
        reports.append(_safe_report(state, p, kind, e_m_orders, half_m))
    if cause is None:
        verdict = BlowupVerdict(None, BreakdownCause.HORIZON, state.div_accum)
    else:
        verdict = BlowupVerdict(float(state.t), cause, state.div_accum)
    return tuple(reports), verdict


_DEFAULT_SWEEP_POINTS = {1: 256, 2: 128, 3: 48}


def _scaled_lifespan(n: int, eps: float, t_star: float | None) -> float | None:
    if t_star is None:
        return None
    if n == 1:
        return eps * t_star
    if n == 2:
        return eps**2 * t_star
    return eps * math.log(t_star) if t_star > 0.0 else None


def lifespan_sweep(
    data_shape: Callable[[Grid], tuple[Field, Field]],
    eps_list: Sequence[float],
    p_base: PhysicalParams,
    n: int,
    *,
    grid: Grid | None = None,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    horizon: float = 500.0,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> SweepResult:
    """Measure the breakdown time across epsilon and fit its log-log slope.

    The data shape is held fixed (amplitude included) while epsilon varies,
    so the measured slope isolates the epsilon scaling of the lifespan. Every
    point shares one step size, so the points advance together as one batch:
    their fields are stacked along a leading member axis, epsilon is a
    per-member column, and a point leaves the batch when one of its monitors
    trips. A step that trips the hyperbolicity floor or goes non-finite for
    some points ends those at the last accepted time and is redone for the
    rest. Each row equals the verdict of run_until_breakdown on that point
    bit for bit. Rows are sorted by epsilon before the fit; runs that reach
    the horizon are reported but excluded from the fit.

    Args:
        data_shape: grid -> (u0, u1) factory, shared by every epsilon.
        eps_list: epsilon values; duplicates rejected.
        p_base: parameters whose eps field is replaced per point.
        n: spatial dimension, fixing the default grid and scaled column.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if len(set(eps_list)) != len(eps_list):
        raise ValueError("eps_list contains duplicates")
    if not eps_list:
        raise ValueError("eps_list is empty")
    if grid is None:
        grid = Grid.cube(n, _DEFAULT_SWEEP_POINTS[n])
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} does not match n = {n}")
    u0, u1 = data_shape(grid)
    for eps_i in eps_list:
        p = replace(p_base, eps=eps_i)
        _check_run_guards(u0, u1, p, kind, None, None)
        # The step size depends on c, not on eps: every point gets the same.
        steps, dt_eff = _resolve_step(grid, p, kind, horizon, dt, scheme, cfl)
    dt_eff = _admissible_dt(grid, p_base.c, dt_eff, scheme, cfl)  # as step() takes it

    # The live points: their index into eps_list, stacked fields, their eps,
    # and the evaluation the next step starts from (None: rebuilt from u, v).
    live = np.arange(len(eps_list))
    eps = np.array(eps_list, dtype=float)
    u = np.stack([u0.values] * len(eps_list))
    v = np.stack([u1.values] * len(eps_list))
    start = None
    ends: dict[int, tuple[float, BreakdownCause]] = {}

    def drop(members: np.ndarray, t: float, cause: BreakdownCause) -> None:
        nonlocal live, eps, u, v, start
        if members.any():
            for i in live[members]:
                ends[int(i)] = (t, cause)
            keep = ~members
            live, eps, u, v, start = live[keep], eps[keep], u[keep], v[keep], None

    def over_tail(u_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        return _tail_fraction(grid, p_base.c, u_hat, v_hat) > tail_threshold

    t = 0.0
    drop(over_tail(_to_spectral(grid, u), _to_spectral(grid, v)), t, BreakdownCause.SPECTRAL)
    k = 0
    while k < steps and live.size:
        try:
            u, v, start = _advance(grid, u, v, t, start, dt_eff, p_base, kind, scheme, eps)
        except HyperbolicityBreakdown as exc:
            drop(exc.members, t, BreakdownCause.HYPERBOLICITY)
            continue
        except StepRejected as exc:
            drop(exc.members, t, BreakdownCause.NUMERICAL)
            continue
        t += dt_eff
        k += 1
        drop(over_tail(start.u_hat, start.v_hat), t, BreakdownCause.SPECTRAL)

    rows = []
    for i, eps_i in enumerate(eps_list):
        t_star, cause = ends.get(i, (None, BreakdownCause.HORIZON))
        rows.append(SweepRow(eps_i, t_star, cause, _scaled_lifespan(n, eps_i, t_star)))
    rows.sort(key=lambda r: r.eps)

    clean = [r for r in rows if r.cause is not BreakdownCause.HORIZON and r.t_star and r.t_star > 0.0]
    slope = intercept = None
    if len(clean) >= 2:
        log_eps = np.log([r.eps for r in clean])
        log_t = np.log([r.t_star for r in clean])
        slope_f, intercept_f = np.polyfit(log_eps, log_t, 1)
        slope, intercept = float(slope_f), float(intercept_f)
    return SweepResult(n, tuple(rows), slope, intercept)


@dataclass(frozen=True)
class StabilityResult:
    """Perturbation distance against the exponential envelope.

    d(t) = ||(u - v)_t||^2 + ||grad(u - v)||^2 between the two runs and
    A(t) = int_0^t max(||u_tt||_inf, ||Lap u||_inf) dtau along the first.
    c2 is the smallest constant with d(t) <= c1 exp(c2 eps A(t)) d(0) at
    every reported time, or None when d(0) = 0 yet d grew beyond roundoff
    (a uniqueness violation, flagged).
    """

    times: tuple[float, ...]
    d: tuple[float, ...]
    a: tuple[float, ...]
    c1: float
    c2: float | None
    uniqueness_flag: bool
    resolved: bool
    reports: tuple[EnergyReport, ...] = ()

    def envelope_ok(self, cap: float = 100.0) -> bool:
        return (
            self.resolved
            and not self.uniqueness_flag
            and self.c2 is not None
            and self.c2 <= cap
        )


_D_FLOOR = 1e-22


def stability_experiment(
    u_data: tuple[Field, Field],
    v_data: tuple[Field, Field],
    p: PhysicalParams,
    horizon: float,
    *,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    report_every: int = 10,
    c1: float | None = None,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> StabilityResult:
    """Run a perturbed pair step-locked and fit the envelope exponent.

    Only c2 is fitted; c1 defaults to 3 + 2c^2, the shape of the norm
    equivalence constant, because a two-parameter fit is degenerate. Both
    runs must stay spectrally resolved for the fit to count.
    """
    _check_run_guards(*u_data, p, kind, None, None)
    _check_run_guards(*v_data, p, kind, None, None)
    if u_data[0].grid != v_data[0].grid:
        raise ValueError("both runs must share one grid")
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    grid = u_data[0].grid
    if c1 is None:
        c1 = 3.0 + 2.0 * p.c**2
    if c1 < 1.0:
        raise ValueError(f"c1 must be >= 1 for the envelope to hold at t = 0, got {c1}")
    steps, dt_eff = _resolve_step(grid, p, kind, horizon, dt, scheme, cfl)

    su = SimState(u_data[0], u_data[1])
    sv = SimState(v_data[0], v_data[1])

    def distance(a: SimState, b: SimState) -> float:
        dv = a.v.values - b.v.values
        return grid.cell_volume * float(np.sum(dv * dv)) + _grad_sq(grid, a.u.values - b.u.values)

    def sup_integrand(s: SimState) -> float:
        ev = _carried(s, p, kind, scheme)
        return max(ev.acc_sup, ev.lap_sup)

    times = [0.0]
    d_series = [distance(su, sv)]
    a_series = [0.0]
    reports = [make_report(su, p, kind)]
    a_accum = 0.0
    g_prev = sup_integrand(su)
    resolved = (
        spectral_tail_fraction(su, p) <= tail_threshold
        and spectral_tail_fraction(sv, p) <= tail_threshold
    )
    for k in range(steps):
        su = step(su, dt_eff, p, kind, scheme, cfl)
        sv = step(sv, dt_eff, p, kind, scheme, cfl)
        g_now = sup_integrand(su)
        a_accum += 0.5 * dt_eff * (g_prev + g_now)
        g_prev = g_now
        if (k + 1) % report_every == 0 or k + 1 == steps:
            times.append(su.t)
            d_series.append(distance(su, sv))
            a_series.append(a_accum)
            reports.append(make_report(su, p, kind))
            resolved = resolved and (
                spectral_tail_fraction(su, p) <= tail_threshold
                and spectral_tail_fraction(sv, p) <= tail_threshold
            )

    d0 = d_series[0]
    uniqueness_flag = False
    c2: float | None
    if d0 <= _D_FLOOR:
        if max(d_series) <= _D_FLOOR:
            c2 = 0.0
        else:
            c2 = None
            uniqueness_flag = True
    else:
        c2 = 0.0
        for d_t, a_t in zip(d_series, a_series):
            if d_t > c1 * d0:
                if a_t <= 0.0:
                    c2 = math.inf
                    break
                c2 = max(c2, math.log(d_t / (c1 * d0)) / (p.eps * a_t))
    return StabilityResult(
        tuple(times),
        tuple(d_series),
        tuple(a_series),
        c1,
        c2,
        uniqueness_flag,
        resolved,
        tuple(reports),
    )


@dataclass(frozen=True)
class ViscousDecayResult:
    """Global viscous decay diagnostics along one run.

    e_theorem is the multi-index energy summed over the admissible set V,
    checked for monotone decrease within a per-step slack; e_half is the
    parabolic tower E_{m/2}, checked against (3 + 2c^2) times its initial
    value. monotone_ok is None when nu = 0 (control case: no dissipation
    claim is made).
    """

    m: int
    times: tuple[float, ...]
    e_theorem: tuple[float, ...]
    e_half: tuple[float, ...]
    s_half: tuple[float, ...]
    e_half_bound: float
    threshold_value: float
    sqrt_e_half_initial: float
    monotone_ok: bool | None
    bound_ok: bool
    reports: tuple[EnergyReport, ...] = ()


def viscous_decay_experiment(
    u0: Field,
    u1: Field,
    p: PhysicalParams,
    m: int,
    horizon: float,
    *,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.IMEX,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    report_every: int = 10,
    env: EnvelopeParams | None = None,
    slack_rel: float = 1e-8,
) -> ViscousDecayResult:
    """Verify the small-data global decay claims on one viscous run.

    Preconditions: for nu > 0 the data must pass the smallness threshold
    sqrt(E_{m/2}(0)) <= sqrt(2) nu / (sqrt(3/2 + c^2) C_m max(alpha, beta))
    with the configured C_m. With nu = 0 the run is a control: the
    threshold and the monotonicity claim are both withdrawn.

    Args:
        m: even Sobolev level of the towers (m >= 2).
        slack_rel: per-step monotonicity slack, relative to the initial
            multi-index energy.

    Raises:
        GuardViolation: nu > 0 data fail the threshold at t = 0.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    _check_run_guards(u0, u1, p, kind, None, None)
    if env is None:
        env = EnvelopeParams()
    grid = u0.grid
    state = SimState(u0, u1)
    e_theorem: list[float] = []
    reports: list[EnergyReport] = []

    def record(s: SimState) -> None:
        # The jet lives only as long as its record.
        jet = build_jet(s, p, m // 2 + 1, kind)
        e_theorem.append(theorem_45_energy(jet, m, p, kind))
        reports.append(make_report(s, p, kind, half_m=m, jet=jet))

    record(state)
    e_half_0 = reports[0].e_half_m
    threshold_value = math.inf
    if p.nu > 0.0:
        threshold_value = thresholds(p, env).sqrt_e_half_max
        if math.sqrt(e_half_0) > threshold_value:
            raise GuardViolation(
                f"sqrt(E_half(0)) = {math.sqrt(e_half_0):.6g} exceeds the "
                f"viscous smallness threshold {threshold_value:.6g}"
            )

    steps, dt_eff = _resolve_step(grid, p, kind, horizon, dt, scheme, cfl)
    for k in range(steps):
        state = step(state, dt_eff, p, kind, scheme, cfl)
        if (k + 1) % report_every == 0 or k + 1 == steps:
            record(state)
    e_half = tuple(r.e_half_m for r in reports)

    monotone_ok: bool | None = None
    if p.nu > 0.0:
        slack = slack_rel * e_theorem[0] * report_every
        monotone_ok = all(
            later <= earlier + slack for earlier, later in zip(e_theorem, e_theorem[1:])
        )
    bound = (3.0 + 2.0 * p.c**2) * e_half_0
    bound_ok = all(value <= bound for value in e_half)
    return ViscousDecayResult(
        m=m,
        times=tuple(r.t for r in reports),
        e_theorem=tuple(e_theorem),
        e_half=e_half,
        s_half=tuple(r.s_half_m for r in reports),
        e_half_bound=bound,
        threshold_value=threshold_value,
        sqrt_e_half_initial=math.sqrt(e_half_0),
        monotone_ok=monotone_ok,
        bound_ok=bound_ok,
        reports=tuple(reports),
    )


@dataclass(frozen=True)
class KlainermanResult:
    """Weighted decay-ratio series along an inviscid run."""

    m: int
    times: tuple[float, ...]
    ratios: tuple[float, ...]
    support_radii: tuple[float, ...]
    reports: tuple[EnergyReport, ...] = ()

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def ratio_at(self, t: float) -> float:
        """Ratio at the first reported time >= t."""
        for time, ratio in zip(self.times, self.ratios):
            if time >= t - 1e-12:
                return ratio
        raise ValueError(f"no reported time at or after t = {t}")

    def boundedness_quotient(self, t_ref: float = 1.0) -> float:
        """max-over-run ratio divided by the ratio at t_ref."""
        ref = self.ratio_at(t_ref)
        peak = self.max_ratio
        if ref == 0.0:
            return 0.0 if peak == 0.0 else math.inf
        return peak / ref


def klainerman_experiment(
    u0: Field,
    u1: Field,
    p: PhysicalParams,
    horizon: float,
    *,
    m: int = 0,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    report_every: int = 10,
    support_fraction: float = DEFAULT_SUPPORT_FRACTION,
) -> KlainermanResult:
    """Track the weighted sup-over-integral decay ratio along a run.

    The coordinate weights require compactly supported data on an
    origin-centered box; the run aborts once the support monitor sees the
    solution reach support_fraction of the smallest box side, where the
    periodic wrap-around invalidates the weights. The support radius never
    exceeds half the smallest side, so support_fraction must lie in
    (0, 1/2) for the monitor to be able to trip.

    Raises:
        ValueError: support_fraction outside (0, 1/2).
        GuardViolation: viscous parameters, non-centered grid, or data
            failing the sup-norm guard.
        SupportMonitorTripped: wrap-around contamination mid-run.
    """
    if p.nu != 0.0:
        raise GuardViolation("the decay-ratio experiment is inviscid: set nu = 0")
    grid = u0.grid
    if not grid.origin_centered:
        raise GuardViolation("coordinate weights need an origin-centered grid")
    _check_run_guards(u0, u1, p, kind, None, None)
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    if not 0.0 < support_fraction < 0.5:
        raise ValueError(f"support_fraction must lie in (0, 0.5), got {support_fraction}")
    n_star = grid.n // 2 + 1
    jet_order = m + n_star + 1
    limit = support_fraction * min(grid.lengths)

    state = SimState(u0, u1)
    steps, dt_eff = _resolve_step(grid, p, kind, horizon, dt, scheme, cfl)
    ratios: list[float] = []
    reports: list[EnergyReport] = []

    def record(s: SimState) -> None:
        report = make_report(s, p, kind)
        if report.support_radius >= limit:
            raise SupportMonitorTripped(
                f"support radius {report.support_radius:.6g} reached {support_fraction} "
                f"of the smallest box side at t = {s.t:.6g}"
            )
        jet = build_jet(s, p, jet_order, kind)
        ratio, e_1m, e_inf_m = klainerman_record(jet, s.t, m)
        ratios.append(ratio)
        reports.append(replace(report, e_1m=e_1m, e_inf_m=e_inf_m))

    record(state)
    for k in range(steps):
        state = step(state, dt_eff, p, kind, scheme, cfl)
        if (k + 1) % report_every == 0 or k + 1 == steps:
            record(state)
    times = tuple(r.t for r in reports)
    radii = tuple(r.support_radius for r in reports)
    return KlainermanResult(m, times, tuple(ratios), radii, tuple(reports))


def linear_regularity_experiment(
    u0: Field,
    u1: Field,
    f: Callable[[float], Field],
    p: PhysicalParams,
    horizon: float,
    *,
    dt: float | None = None,
    report_every: int = 10,
    tol: float = 0.01,
) -> LinearForcedResult:
    """Check the linear maximal-regularity inequality on a forced run.

    Thin wrapper over the exact-propagator forced solver; the result's
    margins expose (rhs - lhs)/rhs over the grid of reported horizons.
    """
    return solve_linear_forced(
        u0, u1, f, horizon, p, dt=dt, report_every=report_every, tol=tol
    )
