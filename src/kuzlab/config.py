"""Run configuration: strict JSON schema, and every field a run reads.

A config turns into fields here and nowhere else: ``initial_data`` (the
preset, threshold-scaled when asked), ``stability_perturbation`` and
``linreg_forcing``. ``_check_arity`` is the one rule that a mode or center
has one component per axis, for the preset and both option sections.

The dataclasses below are the schema: one walker (``_decode``/``_encode``)
reads each field's annotation, rejects unknown keys by dotted path and gives
absent keys the field default. Only ``Grid`` (scalar-or-list ``points`` and
``lengths``) and ``Preset`` (tagged by ``kind``) have their own shapes.
Every number must be finite; numbers that must be positive are listed by
dotted path in ``_POSITIVE_PATHS``; other preconditions live in each
section's ``__post_init__``, and those that join two sections (a preset's
arity, ``klainerman.m`` against the grid's dimension) in ``parse_config``.
Where the library checks the same value, both call the library's rule,
and a default that restates a library value names its constant. What only a
run can check stays with the run: a Gaussian's support against the
Klainerman limit is the support monitor's, at t = 0.
Every key has a reader; which driver runs is the subcommand's choice, not a
key, so a config naming an ``experiment`` fails as an unknown key.
``parse_config`` composed with ``serialize_config`` is the identity on configs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from types import UnionType
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import DEFAULT_CFL, ModelKind, PhysicalParams, Scheme, SimState, check_report_every
from .energies import (
    EnvelopeParams,
    data_tower,
    e_m_jet_order,
    half_m_jet_order,
    ratio_jet_order,
    smallness_target,
)
from .errors import ConfigError, GuardViolation, HyperbolicityBreakdown
from .experiments import (
    DEFAULT_C2_CAP,
    DEFAULT_SLACK_REL,
    DEFAULT_SUPPORT_FRACTION,
    DEFAULT_TAIL_THRESHOLD,
    check_eps_list,
    check_support_fraction,
)
from .fields import Field, FloatArray, Grid, dealias_values


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian potential with an equal-profile initial velocity.

    center is absolute coordinates (empty tuple = box center).
    """

    center: tuple[float, ...] = ()
    width: float = 1.0
    amplitude: float = 0.01


@dataclass(frozen=True)
class SineMode:
    """Single Fourier mode pair: u0 = A sin(k.x), u1 = -A |k| cos(k.x).

    The pair is a unit-speed traveling profile, exact for the c = 1 linear
    wave equation.
    """

    mode: tuple[int, ...] = (1,)
    amplitude: float = 0.01


@dataclass(frozen=True)
class ZeroVelocityGaussian:
    """Gaussian potential released from rest (u1 = 0)."""

    center: tuple[float, ...] = ()
    width: float = 1.0
    amplitude: float = 0.01


@dataclass(frozen=True)
class MeanZeroPeriodic:
    """Sine-mode data with zero mean along the first axis, exactly.

    Requires mode[0] != 0 so every x-line of u0 and u1 averages to zero,
    the class where the Poincare inequality supplies L^2 control.
    """

    mode: tuple[int, ...] = (1,)
    amplitude: float = 0.01

    def __post_init__(self) -> None:
        if not self.mode or self.mode[0] == 0:
            raise ValueError("mean-zero data need a nonzero first mode component")


Preset = GaussianBump | SineMode | ZeroVelocityGaussian | MeanZeroPeriodic

_PRESET_KINDS: dict[str, type] = {
    "gaussian_bump": GaussianBump,
    "sine_mode": SineMode,
    "zero_velocity_gaussian": ZeroVelocityGaussian,
    "mean_zero_periodic": MeanZeroPeriodic,
}


@dataclass(frozen=True)
class EnergySelection:
    """Which jet-based functionals each report row carries."""

    e_m_orders: tuple[int, ...] = ()
    half_m: int | None = None

    def __post_init__(self) -> None:
        for order in self.e_m_orders:
            e_m_jet_order(order, "e_m_orders entries")
        if self.half_m is not None:
            half_m_jet_order(self.half_m, "half_m")


@dataclass(frozen=True)
class SweepOptions:
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    tail_threshold: float = DEFAULT_TAIL_THRESHOLD

    def __post_init__(self) -> None:
        check_eps_list(self.eps_list)


@dataclass(frozen=True)
class StabilityOptions:
    perturbation: str = "sine"
    perturbation_amplitude: float = 1e-3
    perturbation_mode: tuple[int, ...] = (2,)
    c2_cap: float = DEFAULT_C2_CAP

    def __post_init__(self) -> None:
        if self.perturbation not in ("sine", "noise"):
            raise ValueError("perturbation must be 'sine' or 'noise'")


@dataclass(frozen=True)
class DecayOptions:
    m: int = 4
    slack_rel: float = DEFAULT_SLACK_REL

    def __post_init__(self) -> None:
        half_m_jet_order(self.m, low=2)


@dataclass(frozen=True)
class KlainermanOptions:
    m: int = 0
    support_fraction: float = DEFAULT_SUPPORT_FRACTION

    def __post_init__(self) -> None:
        if self.m not in (0, 1, 2):
            raise ValueError(f"m must be 0, 1 or 2, got {self.m}")
        check_support_fraction(self.support_fraction)


@dataclass(frozen=True)
class LinregOptions:
    forcing_amplitude: float = 1.0
    forcing_mode: tuple[int, ...] = (1,)
    forcing_omega: float = 1.0
    tol: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    """Fully-defaulted, schema-validated description of one run.

    Defaults: Kuznetsov model at (c, nu, eps, alpha, beta) = (1, 0, 0.1, 1, 2)
    on the 1d 256-point 2 pi box, sine-mode data of amplitude 0.01, RK4 at
    CFL 0.4 with automatic dt, horizon 10, a report every 10 steps, no jet
    towers enabled, unit envelope constants, seed 0. The subcommand that
    runs a config names the run; the config has no key for it.
    When relative_to_threshold is set, preset amplitudes are in units of the
    smallness threshold of energies.smallness_target.
    """

    model: ModelKind = ModelKind.KUZNETSOV
    params: PhysicalParams = field(default_factory=PhysicalParams)
    grid: Grid = field(default_factory=lambda: Grid.cube(1, 256))
    preset: Preset = field(default_factory=SineMode)
    scheme: Scheme = Scheme.EXPLICIT_RK4
    cfl: float = DEFAULT_CFL
    dt: float | None = None
    horizon: float = 10.0
    report_every: int = 10
    energies: EnergySelection = field(default_factory=EnergySelection)
    envelope: EnvelopeParams = field(default_factory=EnvelopeParams)
    out_dir: str | None = None
    seed: int = 0
    relative_to_threshold: bool = False
    sweep: SweepOptions = field(default_factory=SweepOptions)
    stability: StabilityOptions = field(default_factory=StabilityOptions)
    decay: DecayOptions = field(default_factory=DecayOptions)
    klainerman: KlainermanOptions = field(default_factory=KlainermanOptions)
    linreg: LinregOptions = field(default_factory=LinregOptions)


#: Dotted paths whose numbers must be > 0; list items inherit their list's entry.
_POSITIVE_PATHS = frozenset({
    "cfl", "dt", "horizon", "grid.lengths", "preset.width", "sweep.eps_list",
    "sweep.tail_threshold", "stability.c2_cap", "decay.slack_rel",
    "klainerman.support_fraction", "linreg.tol",
})

_PRESET_NAMES = {cls: name for name, cls in _PRESET_KINDS.items()}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _reject_unknown(data: Mapping[str, Any], path: str) -> None:
    if data:
        raise ConfigError(_join(path, sorted(data)[0]), "unknown key")


def _build(path: str, make: Callable[..., Any], **kwargs: Any) -> Any:
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _decode(tp: Any, value: Any, path: str) -> Any:
    """Validate one JSON value against an annotation, recursing into sections."""
    if tp is Grid:
        return _decode_grid(value, path)
    if tp == Preset:
        data = _object(value, path)
        kind = _decode(str, data.pop("kind", "sine_mode"), _join(path, "kind"))
        if kind not in _PRESET_KINDS:
            valid = ", ".join(sorted(_PRESET_KINDS))
            raise ConfigError(_join(path, "kind"), f"{kind!r} is not one of: {valid}")
        return _decode_object(_PRESET_KINDS[kind], data, path)
    origin = get_origin(tp)
    if origin is UnionType:
        (item,) = (arg for arg in get_args(tp) if arg is not type(None))
        return None if value is None else _decode(item, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return tuple(_decode(get_args(tp)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return _decode_object(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        name = _decode(str, value, path)
        try:
            return tp(name)
        except ValueError:
            valid = ", ".join(e.value for e in tp)
            raise ConfigError(path, f"{name!r} is not one of: {valid}") from None
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(path, f"must be finite, got {number}")
        if path.partition("[")[0] in _POSITIVE_PATHS and number <= 0:
            raise ConfigError(path, f"must be positive, got {number}")
        return number
    if tp is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if tp is bool and not isinstance(value, bool):
        raise ConfigError(path, f"expected true/false, got {value!r}")
    if tp is str and not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _decode_object(cls: type, value: Any, path: str) -> Any:
    """A section: strict keys, absent keys take the dataclass default."""
    data = _object(value, path)
    hints = get_type_hints(cls)
    kwargs = {
        f.name: _decode(hints[f.name], data.pop(f.name), _join(path, f.name))
        for f in dataclasses.fields(cls)
        if f.name in data
    }
    _reject_unknown(data, path)
    return _build(path, cls, **kwargs)


def _decode_grid(value: Any, path: str) -> Grid:
    """``points`` and ``lengths`` are a list or a scalar repeated ``n`` times."""
    data = _object(value, path)
    n = _decode(int, data.pop("n"), _join(path, "n")) if "n" in data else None
    points = data.pop("points", None)
    lengths = data.pop("lengths", 2.0 * math.pi)
    centered = _decode(bool, data.pop("origin_centered", False), _join(path, "origin_centered"))
    _reject_unknown(data, path)
    if points is None:
        raise ConfigError(_join(path, "points"), "required")
    if isinstance(points, list):
        points = _decode(tuple[int, ...], points, _join(path, "points"))
        if n is not None and n != len(points):
            raise ConfigError(_join(path, "n"), f"n = {n} but {len(points)} point counts given")
    elif n is None:
        raise ConfigError(_join(path, "n"), "required when points is a scalar")
    else:
        points = (_decode(int, points, _join(path, "points")),) * n
    if isinstance(lengths, list):
        lengths = _decode(tuple[float, ...], lengths, _join(path, "lengths"))
        if len(lengths) != len(points):
            raise ConfigError(_join(path, "lengths"), "length count does not match points")
    else:
        lengths = (_decode(float, lengths, _join(path, "lengths")),) * len(points)
    return _build(path, Grid, lengths=lengths, points=points, origin_centered=centered)


def _encode(value: Any) -> Any:
    """Canonical JSON form of a decoded value; the inverse of ``_decode``."""
    if isinstance(value, Grid):
        points, lengths = list(value.points), list(value.lengths)
        return {"n": value.n, "points": points, "lengths": lengths, "origin_centered": value.origin_centered}
    if dataclasses.is_dataclass(value):
        out = {"kind": _PRESET_NAMES[type(value)]} if type(value) in _PRESET_NAMES else {}
        out.update((f.name, _encode(getattr(value, f.name))) for f in dataclasses.fields(value))
        return out
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Every absent field takes its documented default; unknown keys anywhere
    raise ConfigError naming the offending field path. Round-trips through
    serialize_config.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from exc
    cfg = _decode(RunConfig, data, "")
    _build("report_every", check_report_every, report_every=cfg.report_every)
    if cfg.seed < 0:
        raise ConfigError("seed", "must be >= 0")
    _check_preset_arity(cfg.preset, cfg.grid)
    _build("klainerman.m", ratio_jet_order, n=cfg.grid.n, m=cfg.klainerman.m)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Render a config back to its canonical JSON text."""
    return json.dumps(_encode(cfg), indent=2) + "\n"


def _check_arity(path: str, values: tuple[Any, ...], grid: Grid) -> None:
    """A mode or a center, at a dotted path, needs one component per axis."""
    if len(values) != grid.n:
        name = path.rpartition(".")[2]
        raise ConfigError(path, f"{name} has {len(values)} components, grid has {grid.n}")


def _check_preset_arity(preset: Preset, grid: Grid) -> None:
    """A sine mode, and a Gaussian center when one is given, need one component per axis."""
    name = "center" if isinstance(preset, (GaussianBump, ZeroVelocityGaussian)) else "mode"
    if getattr(preset, name) or name == "mode":
        _check_arity(f"preset.{name}", getattr(preset, name), grid)


def _gaussian_values(grid: Grid, center: tuple[float, ...], width: float, amplitude: float):
    center = center if center else grid.center
    r2 = np.zeros(grid.shape)
    for axis in range(grid.n):
        r2 = r2 + (grid.coordinate_mesh(axis) - center[axis]) ** 2
    return amplitude * np.exp(-r2 / (2.0 * width**2))


def _sine_phase(grid: Grid, mode: tuple[int, ...]) -> FloatArray:
    """k.x on the grid for the box wave vector k_axis = 2 pi mode[axis] / L_axis."""
    phase = np.zeros(grid.shape)
    for axis in range(grid.n):
        phase = phase + (2.0 * math.pi * mode[axis] / grid.lengths[axis]) * grid.coordinate_mesh(axis)
    return phase


def _sine_values(grid: Grid, mode: tuple[int, ...], amplitude: float):
    phase = _sine_phase(grid, mode)
    k_norm = math.sqrt(sum((2.0 * math.pi * m / length) ** 2 for m, length in zip(mode, grid.lengths)))
    return amplitude * np.sin(phase), -amplitude * k_norm * np.cos(phase)


def materialize_preset(preset: Preset, grid: Grid) -> tuple[Field, Field]:
    """Realize a preset on a grid as the initial pair (u0, u1).

    A Gaussian may reach any part of the box: only the Klainerman run limits
    its support, by its monitor at t = 0.
    """
    _check_preset_arity(preset, grid)
    if isinstance(preset, (GaussianBump, ZeroVelocityGaussian)):
        bump = _gaussian_values(grid, preset.center, preset.width, preset.amplitude)
        u0 = Field(grid, bump)
        u1 = Field(grid, bump.copy()) if isinstance(preset, GaussianBump) else Field.zeros(grid)
        return u0, u1
    u0_vals, u1_vals = _sine_values(grid, preset.mode, preset.amplitude)
    return Field(grid, u0_vals), Field(grid, u1_vals)


# Towers the threshold-relative scaling may evaluate. Near the floor each
# one shrinks the miss only by a factor of about 0.6 (1-d sine data at eps
# 0.5, nu 1 and C_m 0.05 take 56); data well below it take a few.
_SCALING_ITERATIONS = 100


def initial_data(cfg: RunConfig) -> tuple[Field, Field]:
    """Materialize the configured preset, applying threshold-relative scaling.

    With relative_to_threshold set, the data are rescaled so the relevant
    tower at t = 0 satisfies sqrt(E(0)) = |amplitude| * threshold, keeping
    the preset's sign (a negative amplitude is a depression); the scaling
    is solved by a fixed-point iteration because the towers are not exactly
    quadratic in the data for nonlinear models. Scaled data that reach the
    hyperbolicity floor have no tower, and an iteration that has not met the
    target to 1e-12 when a tower fails to shrink its miss, or after
    _SCALING_ITERATIONS towers, names its miss: both GuardViolation.
    """
    u0, u1 = materialize_preset(cfg.preset, cfg.grid)
    if not cfg.relative_to_threshold:
        return u0, u1
    threshold, m = smallness_target(cfg.params, cfg.model, cfg.envelope, cfg.decay.m)
    if not math.isfinite(threshold):
        raise ConfigError("relative_to_threshold", "threshold is not finite for these parameters")
    # The preset's values carry its sign and the scale stays positive, so the
    # target is a norm: |amplitude| times the threshold.
    target = abs(cfg.preset.amplitude) * threshold
    values0, values1 = u0.values, u1.values
    amp = cfg.preset.amplitude
    if amp == 0.0:
        return Field(cfg.grid, 0.0 * values0), Field(cfg.grid, 0.0 * values1)
    scale = 1e-6 / max(np.max(np.abs(values0)), np.max(np.abs(values1)), 1e-300)
    last_miss = math.inf
    for towers in range(1, _SCALING_ITERATIONS + 1):
        state = SimState(Field(cfg.grid, scale * values0), Field(cfg.grid, scale * values1))
        try:
            tower = data_tower(state, cfg.params, cfg.model, m)
        except HyperbolicityBreakdown as exc:
            raise GuardViolation(f"threshold-relative data reach the floor: {exc}") from exc
        current = math.sqrt(tower)
        if current == 0.0:
            raise ConfigError("preset", "zero data cannot be scaled to a threshold")
        ratio = target / current
        scale *= ratio
        miss = abs(ratio - 1.0)
        if miss < 1e-12:
            return Field(cfg.grid, scale * values0), Field(cfg.grid, scale * values1)
        if miss >= last_miss:
            break
        last_miss = miss
    stalled = " (the last did not shrink its miss)" if towers < _SCALING_ITERATIONS else ""
    raise GuardViolation(
        f"threshold-relative scaling missed its target after {towers} towers{stalled}: "
        f"the last gives sqrt(E(0)) = {current:.6g} against {target:.6g}"
    )


def stability_perturbation(cfg: RunConfig) -> FloatArray | None:
    """What the stability options add to u0 for the second pair (None: nothing)."""
    opts = cfg.stability
    grid = cfg.grid
    if opts.perturbation_amplitude == 0.0:
        return None
    if opts.perturbation == "sine":
        _check_arity("stability.perturbation_mode", opts.perturbation_mode, grid)
        return opts.perturbation_amplitude * np.sin(_sine_phase(grid, opts.perturbation_mode))
    rng = np.random.default_rng(cfg.seed)
    noise = dealias_values(grid, rng.standard_normal(grid.shape))
    peak = float(np.max(np.abs(noise)))
    return (opts.perturbation_amplitude / peak) * noise if peak > 0.0 else noise


def linreg_forcing(cfg: RunConfig) -> Callable[[float], Field]:
    """The linreg forcing, t -> amplitude cos(omega t) sin(k.x) for the configured mode."""
    opts = cfg.linreg
    grid = cfg.grid
    _check_arity("linreg.forcing_mode", opts.forcing_mode, grid)
    profile = np.sin(_sine_phase(grid, opts.forcing_mode))

    def f(t: float) -> Field:
        return Field(grid, opts.forcing_amplitude * math.cos(opts.forcing_omega * t) * profile)

    return f


def with_overrides(
    cfg: RunConfig,
    *,
    out_dir: str | None = None,
    horizon: float | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Apply CLI-level overrides, returning a new config.

    The result is re-parsed from its canonical text, so an override passes
    the same checks, with the same messages, as the config key it replaces.
    """
    top = {"out_dir": out_dir, "horizon": horizon, "seed": seed}
    changed = replace(cfg, **{key: value for key, value in top.items() if value is not None})
    return parse_config(serialize_config(changed))
