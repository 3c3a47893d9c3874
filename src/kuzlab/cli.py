"""Command-line entry points composing the experiment drivers.

The CLI only wires a config to a driver: every field a run reads (initial
data, the stability perturbation, the linreg forcing) comes from ``config``.
Every subcommand reads one JSON config (--config) and applies the documented
overrides through ``with_overrides``, which re-parses the config, so an
override is checked like the key it replaces. It runs the matching driver
with the stepping keywords of ``_stepping`` (linreg, whose model and scheme
are fixed, takes its dt and cfl alone) and hands the result to ``_finish``,
the one writer, which names the run after the subcommand: it persists the
stable results layout (config.json, reports.csv, verdict.json, which
carries each of the run's series once) under the output directory with
telemetry.json beside it, the command's transform counts and its steps
taken and planned, prints the summary line and picks the exit code.
``check-thresholds`` prints closed-form constants and runs no driver.
Exit codes: 0 success, 2 configuration or usage error, 3 initial-data guard
violation, 4 runtime failure: a stability, decay or Klainerman run cut
short by the floor, a non-finite step or the support monitor, which writes
its directory and the cause first, a linreg run whose inequality fails
beyond linreg.tol, which writes its directory with holds false first, or
check-thresholds on data at the floor, which writes thresholds.json first.
A config that every section accepts ends in one of these codes, never in a
traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import dynamics, fields
from .config import (
    RunConfig,
    initial_data,
    linreg_forcing,
    parse_config,
    serialize_config,
    stability_perturbation,
    with_overrides,
)
from .dynamics import SimState, hyperbolicity_guard
from .energies import EnergyReport, data_tower, lifespan_T0, thresholds
from .errors import ConfigError, GuardViolation, HyperbolicityBreakdown, KuzlabError
from .experiments import (
    BreakdownCause,
    klainerman_experiment,
    lifespan_sweep,
    run_until_breakdown,
    stability_experiment,
    viscous_decay_experiment,
)
from .fields import Field, linf_norm
from .io import dumps_strict, jsonable, write_experiment_dir

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_GUARD = 3
_EXIT_RUNTIME = 4


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    return parse_config(text)


# A stability, decay or Klainerman run that one of these causes cut short
# fails (exit 4); simulate and sweep report any cause as their verdict, and a
# spectral tail trip is a verdict everywhere (a pair reports resolved false).
_FAILING_COMMANDS = {"stability", "decay", "klainerman"}
_FAILED = {BreakdownCause.HYPERBOLICITY, BreakdownCause.NUMERICAL, BreakdownCause.SUPPORT}


def _counts() -> dict[str, int]:
    """The library's running counts: transforms each way, steps taken and steps planned."""
    return {
        "forward_transforms": fields.transform_counts["forward"],
        "inverse_transforms": fields.transform_counts["inverse"],
        **dynamics.step_counts,
    }


# The counts as the running command started: main takes them, _finish writes
# the command's share to telemetry.json.
_counts_at_start = _counts()


def _stepping(cfg: RunConfig) -> dict[str, Any]:
    """The stepping keywords every time-stepping driver takes from the config."""
    return {"kind": cfg.model, "scheme": cfg.scheme, "dt": cfg.dt, "cfl": cfg.cfl}


def _finish(
    command: str,
    cfg: RunConfig,
    result: Any,
    summary: str,
    *,
    reports: Sequence[EnergyReport] = (),
    extra: Mapping[str, Any] | None = None,
    failure: str | None = None,
) -> int:
    """Write the run's directory, print its summary line, return the exit code.

    The command that ran names the run and its directory. The verdict is
    the result as JSON, without the reports (they have their own file),
    with the extra keys merged in; it holds every series of the run. A run
    fails, and exits 4 after its directory is written, when the caller
    names a failure or when a failing command's cause cut the run short.
    """
    verdict = jsonable(result)
    verdict.pop("reports", None)
    verdict.update(extra or {})
    root = Path("results" if cfg.out_dir is None else cfg.out_dir)
    directory = write_experiment_dir(root, command, serialize_config(cfg), reports, verdict)
    telemetry = {key: n - _counts_at_start[key] for key, n in _counts().items()}
    (directory / "telemetry.json").write_text(dumps_strict(telemetry))
    print(f"{command}: {summary} -> {directory}")
    if failure is None and command in _FAILING_COMMANDS and result.cause in _FAILED:
        failure = f"ended by {result.cause.value} at t = {result.times[-1]:.6g}"
    if failure is None:
        return _EXIT_OK
    print(f"run failed: {command} {failure} -> {directory}", file=sys.stderr)
    return _EXIT_RUNTIME


def _cmd_simulate(command: str, cfg: RunConfig) -> int:
    reports, verdict = run_until_breakdown(
        initial_data(cfg),
        cfg.params,
        cfg.horizon,
        cfg.report_every,
        tail_threshold=cfg.sweep.tail_threshold,
        e_m_orders=cfg.energies.e_m_orders,
        half_m=cfg.energies.half_m,
        **_stepping(cfg),
    )
    summary = f"{len(reports)} reports, cause = {verdict.cause.value}"
    return _finish(command, cfg, verdict, summary, reports=reports)


def _cmd_sweep(command: str, cfg: RunConfig) -> int:
    result = lifespan_sweep(
        initial_data(cfg),
        cfg.sweep.eps_list,
        cfg.params,
        horizon=cfg.horizon,
        tail_threshold=cfg.sweep.tail_threshold,
        **_stepping(cfg),
    )
    slope = "none" if result.slope is None else f"{result.slope:.4f}"
    summary = f"{len(result.rows)} points, slope = {slope}"
    return _finish(command, cfg, result, summary)


def _cmd_stability(command: str, cfg: RunConfig) -> int:
    delta = stability_perturbation(cfg)  # a config error goes before the data guards
    u_data = initial_data(cfg)
    v_data = u_data if delta is None else (Field(cfg.grid, u_data[0].values + delta), u_data[1])
    result = stability_experiment(
        u_data,
        v_data,
        cfg.params,
        cfg.horizon,
        report_every=cfg.report_every,
        tail_threshold=cfg.sweep.tail_threshold,
        **_stepping(cfg),
    )
    extra = {"envelope_ok": result.envelope_ok(cfg.stability.c2_cap), "c2_cap": cfg.stability.c2_cap}
    c2 = "none" if result.c2 is None else f"{result.c2:.4f}"
    summary = f"c2 = {c2}, envelope_ok = {extra['envelope_ok']}"
    return _finish(command, cfg, result, summary, reports=result.reports, extra=extra)


def _cmd_decay(command: str, cfg: RunConfig) -> int:
    u0, u1 = initial_data(cfg)
    result = viscous_decay_experiment(
        u0,
        u1,
        cfg.params,
        cfg.decay.m,
        cfg.horizon,
        report_every=cfg.report_every,
        env=cfg.envelope,
        slack_rel=cfg.decay.slack_rel,
        **_stepping(cfg),
    )
    summary = f"monotone_ok = {result.monotone_ok}, bound_ok = {result.bound_ok}"
    return _finish(command, cfg, result, summary, reports=result.reports)


def _cmd_klainerman(command: str, cfg: RunConfig) -> int:
    u0, u1 = initial_data(cfg)
    result = klainerman_experiment(
        u0,
        u1,
        cfg.params,
        cfg.horizon,
        m=cfg.klainerman.m,
        report_every=cfg.report_every,
        support_fraction=cfg.klainerman.support_fraction,
        **_stepping(cfg),
    )
    extra: dict[str, Any] = {"max_ratio": result.max_ratio}
    if result.times and result.times[-1] >= 1.0:
        extra["boundedness_quotient_t1"] = result.boundedness_quotient(1.0)
    summary = f"max ratio = {result.max_ratio:.6g}"
    return _finish(command, cfg, result, summary, reports=result.reports, extra=extra)


def _cmd_linreg(command: str, cfg: RunConfig) -> int:
    if cfg.params.nu <= 0.0:
        raise ConfigError("params.nu", "linreg solves the damped linear problem and needs nu > 0")
    if cfg.params.c > 1.0:
        raise ConfigError("params.c", "linreg's inequality is calibrated for c <= 1")
    forcing = linreg_forcing(cfg)  # a config error goes before the data guards
    u0, u1 = initial_data(cfg)
    result = dynamics.solve_linear_forced(
        u0,
        u1,
        forcing,
        cfg.horizon,
        cfg.params,
        dt=cfg.dt,
        cfl=cfg.cfl,
        report_every=cfg.report_every,
    )
    tol = cfg.linreg.tol
    extra = {
        "margins": result.margins, "worst_margin": result.worst_margin, "tol": tol, "holds": result.holds(tol)
    }
    summary = f"worst margin = {result.worst_margin:.6g}"
    failure = None if extra["holds"] else f"ended with lhs > rhs * (1 + {tol:.6g})"
    return _finish(command, cfg, result, summary, extra=extra, failure=failure)


def _cmd_check_thresholds(command: str, cfg: RunConfig) -> int:
    p = cfg.params
    record = thresholds(p, cfg.envelope)
    u0, u1 = initial_data(cfg)
    floor = None
    try:
        e_m0_initial = data_tower(SimState(u0, u1), p, cfg.model)
    except HyperbolicityBreakdown as exc:  # data at the floor: NaN, as a run's t = 0 towers
        e_m0_initial, floor = math.nan, exc
    t0 = lifespan_T0(e_m0_initial, p, cfg.envelope)
    lines = {
        "B": record.b,
        "sqrt_E_m0_max (inviscid smallness)": record.sqrt_e_m0_max,
        "E_m0(0) of configured data": e_m0_initial,
        "T_0 (lifespan floor)": t0,
        "sqrt_E_half_max (viscous smallness)": record.sqrt_e_half_max,
        "E_theorem_max": record.e_theorem_max,
        "r_star (fixed-point radius)": record.r_star,
        "w(r_star)": record.w(record.r_star),
        "sup-norm guard 1/(2 alpha eps)": hyperbolicity_guard(p, cfg.model),
        "||u1||_inf of configured data": linf_norm(u1),
    }
    for name, value in lines.items():
        print(f"{name}: {value:.8g}")
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "thresholds.json").write_text(dumps_strict(lines))
        print(f"written -> {out / 'thresholds.json'}")
    if floor is not None:
        print(f"run failed: {floor}", file=sys.stderr)
        return _EXIT_RUNTIME
    return _EXIT_OK


_COMMANDS: dict[str, Callable[[str, RunConfig], int]] = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "stability": _cmd_stability,
    "decay": _cmd_decay,
    "klainerman": _cmd_klainerman,
    "linreg": _cmd_linreg,
    "check-thresholds": _cmd_check_thresholds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuzlab",
        description="Spectral laboratory for damped nonlinear acoustic waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} driver")
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--horizon", type=float, default=None, help="override the run horizon")
        cmd.add_argument("--seed", type=int, default=None, help="override the random seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    global _counts_at_start
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else _EXIT_CONFIG
    try:
        cfg = _load_config(args.config)
        cfg = with_overrides(
            cfg,
            out_dir=args.out,
            horizon=args.horizon,
            seed=args.seed,
        )
        _counts_at_start = _counts()
        return _COMMANDS[args.command](args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except GuardViolation as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return _EXIT_GUARD
    except KuzlabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
