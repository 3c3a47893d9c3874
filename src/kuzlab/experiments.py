"""Orchestrated runs probing the qualitative theory at desk scale.

Each driver wires the dynamics and energy layers into one reproducible
experiment: lifespan scaling of the breakdown time against epsilon, the
exponential stability envelope for perturbed pairs, global viscous decay
of the multi-index energy and boundedness of the weighted Klainerman
ratio. The linear maximal-regularity inequality needs no driver: callers
run dynamics.solve_linear_forced, whose result's holds(tol) checks it. Each driver is a
monitor plus a record function on the one run loop, dynamics._run, which steps
its members (one run, the sweep's epsilon points or the stability pair) stacked
through the stepper a single state uses, so each equals its own serial run
bit for bit; a run that ends mid-way keeps its records and names its cause.
Nothing here forms the linear part, takes a step or counts one.
A driver takes its data as fields on their own grid; every member's data
pass the paper's strict sup-norm guard ||u_1||_inf < 1/(2 alpha_eff eps)
before the first step.
Drivers are deterministic given their arguments; persistence of configs and
results lives in the io and cli layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import (
    DEFAULT_CFL,
    BreakdownCause,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    _run,
    _support_radius,
    _tail,
    _trapezoid,
    damps,
)
from .energies import (
    EnergyReport,
    EnvelopeParams,
    half_m_jet_order,
    klainerman_record,
    make_report,
    ratio_jet_order,
    theorem_45_energy,
    thresholds,
)
from .errors import GuardViolation, HyperbolicityBreakdown
from .fields import Field, _grad_sq, _l2_sq
from .jets import Jet, build_jet

DEFAULT_TAIL_THRESHOLD = 0.01
DEFAULT_SUPPORT_FRACTION = 0.4
DEFAULT_C2_CAP = 100.0
DEFAULT_SLACK_REL = 1e-8


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

    @property
    def clean(self) -> bool:
        """Whether the row enters the fit: it broke down at some t* > 0."""
        return self.cause is not BreakdownCause.HORIZON and self.t_star is not None and self.t_star > 0.0


@dataclass(frozen=True)
class SweepResult:
    """Lifespan sweep rows plus the fitted log-log slope.

    The scaled column carries eps * t_star for n = 1, eps^2 * t_star for
    n = 2 and eps * log(t_star) for n = 3, matching the forms whose liminf
    the theory bounds away from zero. Rows whose run reached the horizon
    are tainted: listed, but excluded from the fit, as are rows that ended
    at t* = 0 (data on the hyperbolicity floor). The rest are the clean
    rows (SweepRow.clean); the fit is skipped (slope None) with fewer than
    two of them.
    """

    n: int
    rows: tuple[SweepRow, ...]
    slope: float | None
    intercept: float | None


def check_eps_list(eps_list: Sequence[float]) -> None:
    """Raise ValueError unless the sweep's epsilon values are some, and distinct."""
    if not eps_list or len(set(eps_list)) != len(eps_list):
        raise ValueError(f"eps_list must be non-empty and without duplicates, got {list(eps_list)}")


def check_support_fraction(support_fraction: float) -> None:
    """Raise ValueError unless support_fraction lies in (0, 1/2), all a support monitor can reach."""
    if not 0.0 < support_fraction < 0.5:
        raise ValueError(f"support_fraction must lie in (0, 0.5), got {support_fraction}")


def _jet_unless_floor(s: SimState, p: PhysicalParams, order: int, kind: ModelKind) -> Jet | None:
    """build_jet(s, p, order, kind), or None for data that start at the floor, whose state has
    no u_tt: the run's own evaluation raises before any step, so only t = 0 records get None."""
    try:
        return build_jet(s, p, order, kind)
    except HyperbolicityBreakdown:
        return None


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
    e_m_orders: tuple[int, ...] = (),
    half_m: int | None = None,
) -> tuple[tuple[EnergyReport, ...], BlowupVerdict]:
    """Integrate until the first breakdown monitor trips or the horizon is hit.

    Breakdown is the first of: minimum hyperbolicity factor at or below the
    configured floor (including the solver raising mid-step), spectral tail
    fraction above tail_threshold, or, when div_threshold is set, the
    accumulated ||u_tt||_inf + ||Lap u||_inf integral crossing it. A step
    producing non-finite values is recorded as a numerical instability at
    the last accepted time. One member of the run loop, with the tail and
    divergence monitors.

    Args:
        initial: pair (u0, u1) of potential and velocity fields.
        p: physical parameters; p.hyp_floor is the breakdown floor.
        horizon: final time if nothing trips.
        report_every: emit an EnergyReport every this many steps.

    Returns:
        (reports, verdict); reports always include t = 0 and the last
        accepted state.

    Raises:
        GuardViolation: the data fail a guard before any stepping, or the
            explicit scheme is unstable on the stiff linear part.
    """
    reports: list[EnergyReport] = []
    tail = _tail(initial[0].grid, p.c, tail_threshold)

    def monitor(fields, ev, div, dt):
        big = np.zeros(len(div), bool) if div_threshold is None else div >= div_threshold
        return [cause or (BreakdownCause.DIVERGENCE if b else None)
                for cause, b in zip(tail(fields, ev, div, dt), big)]

    def record(states: list[SimState]) -> None:
        (s,) = states
        try:
            reports.append(make_report(s, p, kind, e_m_orders=e_m_orders, half_m=half_m))
        except HyperbolicityBreakdown:  # data that start at the floor have no jet: NaN towers
            reports.append(replace(make_report(s, p, kind), e_m=tuple((o, math.nan) for o in e_m_orders)))

    ((t_star, cause),) = _run(
        [initial], [p.eps], p, kind, scheme, horizon, dt, cfl, monitor, record, report_every
    )
    return tuple(reports), BlowupVerdict(t_star, cause, reports[-1].div_accum)


def _scaled_lifespan(n: int, eps: float, t_star: float | None) -> float | None:
    if t_star is None:
        return None
    if n == 1:
        return eps * t_star
    if n == 2:
        return eps**2 * t_star
    return eps * math.log(t_star) if t_star > 0.0 else None


def lifespan_sweep(
    initial: tuple[Field, Field],
    eps_list: Sequence[float],
    p: PhysicalParams,
    *,
    kind: ModelKind = ModelKind.KUZNETSOV,
    scheme: Scheme = Scheme.EXPLICIT_RK4,
    horizon: float = 500.0,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD,
) -> SweepResult:
    """Measure the breakdown time across epsilon and fit its log-log slope.

    The data are held fixed (amplitude included) while epsilon varies,
    so the measured slope isolates the epsilon scaling of the lifespan. Every
    point shares one step size, so the points are the members of one run
    loop, with epsilon per member and the tail monitor; the floor and
    non-finite steps end points as in run_until_breakdown, whose verdict
    each row equals bit for bit. Rows are sorted by epsilon before the fit;
    only the clean rows (SweepRow.clean) enter it.

    Args:
        initial: pair (u0, u1) shared by every epsilon; its grid fixes the
            dimension n of the scaled column.
        eps_list: epsilon values; duplicates rejected.
        p: parameters whose eps field is replaced per point.
    """
    check_eps_list(eps_list)
    grid = initial[0].grid
    n = grid.n
    monitor = _tail(grid, p.c, tail_threshold)
    ends = _run([initial] * len(eps_list), eps_list, p, kind, scheme, horizon, dt, cfl, monitor)
    rows = [
        SweepRow(eps_i, t_star, cause, _scaled_lifespan(n, eps_i, t_star))
        for eps_i, (t_star, cause) in zip(eps_list, ends)
    ]
    rows.sort(key=lambda r: r.eps)

    clean = [r for r in rows if r.clean]
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
    (a uniqueness violation, flagged). cause names what ended the pair;
    resolved holds when that was not the spectral tail monitor.
    """

    times: tuple[float, ...]
    d: tuple[float, ...]
    a: tuple[float, ...]
    c1: float
    c2: float | None
    uniqueness_flag: bool
    resolved: bool
    reports: tuple[EnergyReport, ...] = ()
    cause: BreakdownCause = BreakdownCause.HORIZON

    def envelope_ok(self, cap: float = DEFAULT_C2_CAP) -> bool:
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
    equivalence constant, because a two-parameter fit is degenerate. The
    pair is one run loop of two members that end together: at the horizon,
    when the tail monitor trips on either (the fit then no longer counts),
    or at the last accepted state before a floor trip or non-finite step in
    either. The fit uses the records made up to that end, and A(t) the
    monitor's trapezoid sum over the loop's steps.
    """
    if u_data[0].grid != v_data[0].grid:
        raise ValueError("both runs must share one grid")
    grid = u_data[0].grid
    if c1 is None:
        c1 = 3.0 + 2.0 * p.c**2
    if c1 < 1.0:
        raise ValueError(f"c1 must be >= 1 for the envelope to hold at t = 0, got {c1}")
    rows: list[tuple[float, float, float, EnergyReport]] = []  # (t, d, A, report)
    a_accum, g_prev = 0.0, None
    tail = _tail(grid, p.c, tail_threshold)

    def monitor(fields, ev, div, dt):
        # Accumulates A(t) by the trapezoid rule from the first run's evaluation.
        nonlocal a_accum, g_prev
        g_now = max(ev.acc_sup[0], ev.lap_sup[0])
        if g_prev is not None:
            a_accum = _trapezoid(a_accum, g_prev, g_now, dt)
        g_prev = g_now
        return tail(fields, ev, div, dt)

    def record(states: list[SimState]) -> None:
        su, sv = states
        d = _l2_sq(grid, su.v.values - sv.v.values) + _grad_sq(grid, su.u.values - sv.u.values)
        rows.append((su.t, d, a_accum, make_report(su, p, kind)))

    (_, cause), _ = _run(
        [u_data, v_data], [p.eps] * 2, p, kind, scheme, horizon, dt, cfl, monitor, record,
        report_every, together=True,
    )
    times, d_series, a_series, reports = zip(*rows)

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
    resolved = cause is not BreakdownCause.SPECTRAL
    return StabilityResult(times, d_series, a_series, c1, c2, uniqueness_flag, resolved, reports, cause)


@dataclass(frozen=True)
class ViscousDecayResult:
    """Global viscous decay diagnostics along one run.

    e_theorem is the multi-index energy summed over the admissible set V,
    checked for monotone decrease within a per-step slack; e_half is the
    parabolic tower E_{m/2}, checked against (3 + 2c^2) times its initial
    value. monotone_ok is None when nu = 0 (control case: no dissipation
    claim is made). cause names what ended the run.
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
    cause: BreakdownCause = BreakdownCause.HORIZON


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
    slack_rel: float = DEFAULT_SLACK_REL,
) -> ViscousDecayResult:
    """Verify the small-data global decay claims on one viscous run.

    Preconditions: for nu_eff > 0 the data must pass the smallness threshold
    sqrt(E_{m/2}(0)) <= sqrt(2) nu / (sqrt(3/2 + c^2) C_m max(alpha, beta))
    with the configured C_m. With nu_eff = 0 (nu = 0, or the wave kind,
    which nothing damps) the run is a control: the threshold and the
    monotonicity claim are both withdrawn. One member of the run loop, with
    no monitor. Data that start at the hyperbolicity floor end it at t = 0
    with one record whose towers are NaN, so neither claim holds.

    Args:
        m: even Sobolev level of the towers (m >= 2).
        slack_rel: per-step monotonicity slack, relative to the initial
            multi-index energy.

    Raises:
        GuardViolation: nu_eff > 0 data fail the threshold at t = 0.
    """
    jet_order = half_m_jet_order(m, low=2)
    if env is None:
        env = EnvelopeParams()
    viscous = damps(p, kind)
    threshold_value = thresholds(p, env).sqrt_e_half_max if viscous else math.inf
    e_theorem: list[float] = []
    reports: list[EnergyReport] = []

    def record(states: list[SimState]) -> None:
        (s,) = states
        jet = _jet_unless_floor(s, p, jet_order, kind)  # lives only as long as its record
        if jet is None:  # the data start at the floor: drop the towers
            e_theorem.append(math.nan)
            reports.append(make_report(s, p, kind))
            return
        e_theorem.append(theorem_45_energy(jet, m, p, kind))
        reports.append(make_report(s, p, kind, half_m=m, jet=jet))
        if len(reports) == 1 and math.sqrt(reports[0].e_half_m) > threshold_value:
            raise GuardViolation(
                f"sqrt(E_half(0)) = {math.sqrt(reports[0].e_half_m):.6g} exceeds the "
                f"viscous smallness threshold {threshold_value:.6g}"
            )

    ((_, cause),) = _run(
        [(u0, u1)], [p.eps], p, kind, scheme, horizon, dt, cfl, record=record, report_every=report_every
    )
    e_half_0 = reports[0].e_half_m
    e_half = tuple(r.e_half_m for r in reports)

    monotone_ok: bool | None = None
    if viscous:
        slack = slack_rel * e_theorem[0] * report_every
        # A NaN initial energy (data at the floor) holds no claim, even alone.
        monotone_ok = not math.isnan(slack) and all(
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
        cause=cause,
    )


@dataclass(frozen=True)
class KlainermanResult:
    """Weighted decay-ratio series along an inviscid run, and what ended it."""

    m: int
    times: tuple[float, ...]
    ratios: tuple[float, ...]
    support_radii: tuple[float, ...]
    reports: tuple[EnergyReport, ...] = ()
    cause: BreakdownCause = BreakdownCause.HORIZON

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
    origin-centered box. One member of the run loop whose support monitor
    ends it (cause SUPPORT) once the solution reaches support_fraction of
    the smallest box side, where the periodic wrap-around invalidates the
    weights; that state is still recorded. The support radius never
    exceeds half the smallest side, so support_fraction must lie in
    (0, 1/2) for the monitor to be able to trip. The monitor is the only
    check of the support: data already past the limit end the run at t = 0
    (cause SUPPORT) with one record. Data that start at the hyperbolicity
    floor end the run at t = 0 with one NaN ratio.

    Raises:
        ValueError: support_fraction outside (0, 1/2).
        GuardViolation: a damped model (nu_eff > 0), non-centered grid,
            or data failing the sup-norm guard.
    """
    if damps(p, kind):
        raise GuardViolation("the decay-ratio experiment is inviscid: set nu = 0")
    grid = u0.grid
    if not grid.origin_centered:
        raise GuardViolation("coordinate weights need an origin-centered grid")
    check_support_fraction(support_fraction)
    jet_order = ratio_jet_order(grid.n, m)
    limit = support_fraction * min(grid.lengths)
    ratios: list[float] = []
    reports: list[EnergyReport] = []

    def monitor(fields, ev, div, dt):
        return [BreakdownCause.SUPPORT if r >= limit else None for r in _support_radius(grid, *fields())]

    def record(states: list[SimState]) -> None:
        (s,) = states
        jet = _jet_unless_floor(s, p, jet_order, kind)  # None for data at the floor: a NaN ratio
        ratio, e_1m, e_inf_m = (math.nan,) * 3 if jet is None else klainerman_record(jet, s.t, m)
        ratios.append(ratio)
        reports.append(replace(make_report(s, p, kind), e_1m=e_1m, e_inf_m=e_inf_m))

    ((_, cause),) = _run(
        [(u0, u1)], [p.eps], p, kind, scheme, horizon, dt, cfl, monitor, record, report_every
    )
    times = tuple(r.t for r in reports)
    radii = tuple(r.support_radius for r in reports)
    return KlainermanResult(m, times, tuple(ratios), radii, tuple(reports), cause)
