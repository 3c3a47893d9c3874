"""Run configuration: strict JSON schema, presets, threshold-relative data.

One human-readable format (JSON) with a fully documented schema; parsing is
strict (unknown keys are rejected with a field-path message) and total
(every field has a documented default), and ``parse_config`` composed with
``serialize_config`` is the identity on configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping

import numpy as np

from .dynamics import ModelKind, PhysicalParams, Scheme, SimState, support_radius
from .energies import EnvelopeParams, energy_half_m, energy_m, thresholds
from .errors import ConfigError
from .experiments import DEFAULT_SUPPORT_FRACTION
from .fields import Field, Grid
from .jets import build_jet


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian potential with an equal-profile initial velocity.

    center is absolute coordinates (empty tuple = box center); the materialized
    support must fit the support monitor at t = 0.
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


class ExperimentKind(Enum):
    SIMULATE = "simulate"
    SWEEP = "sweep"
    STABILITY = "stability"
    DECAY = "decay"
    KLAINERMAN = "klainerman"
    LINREG = "linreg"


@dataclass(frozen=True)
class EnergySelection:
    """Which jet-based functionals each report row carries."""

    e_m_orders: tuple[int, ...] = ()
    half_m: int | None = None
    klainerman_m: int | None = None


@dataclass(frozen=True)
class SweepOptions:
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    workers: int = 1
    tail_threshold: float = 0.01


@dataclass(frozen=True)
class StabilityOptions:
    perturbation: str = "sine"
    perturbation_amplitude: float = 1e-3
    perturbation_mode: tuple[int, ...] = (2,)
    c2_cap: float = 100.0

    def __post_init__(self) -> None:
        if self.perturbation not in ("sine", "noise"):
            raise ValueError("perturbation must be 'sine' or 'noise'")


@dataclass(frozen=True)
class DecayOptions:
    m: int = 4
    slack_rel: float = 1e-8


@dataclass(frozen=True)
class KlainermanOptions:
    m: int = 0
    support_fraction: float = DEFAULT_SUPPORT_FRACTION


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
    towers enabled, unit envelope constants, experiment 'simulate', seed 0.
    When relative_to_threshold is set, preset amplitudes are in units of the
    relevant smallness threshold (inviscid m0-tower for nu = 0, viscous
    half-m tower for nu > 0).
    """

    model: ModelKind = ModelKind.KUZNETSOV
    params: PhysicalParams = field(default_factory=PhysicalParams)
    grid: Grid = field(default_factory=lambda: Grid.cube(1, 256))
    preset: Preset = field(default_factory=SineMode)
    scheme: Scheme = Scheme.EXPLICIT_RK4
    cfl: float = 0.4
    dt: float | None = None
    horizon: float = 10.0
    report_every: int = 10
    energies: EnergySelection = field(default_factory=EnergySelection)
    envelope: EnvelopeParams = field(default_factory=EnvelopeParams)
    experiment: ExperimentKind = ExperimentKind.SIMULATE
    out_dir: str | None = None
    seed: int = 0
    relative_to_threshold: bool = False
    sweep: SweepOptions = field(default_factory=SweepOptions)
    stability: StabilityOptions = field(default_factory=StabilityOptions)
    decay: DecayOptions = field(default_factory=DecayOptions)
    klainerman: KlainermanOptions = field(default_factory=KlainermanOptions)
    linreg: LinregOptions = field(default_factory=LinregOptions)


class _Section:
    """Strict view over one JSON object: every key must be consumed."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, Mapping):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self._path = path

    def child(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take(self, key: str, parser: Callable[[Any, str], Any], default: Any) -> Any:
        if key not in self._data:
            return default
        value = self._data.pop(key)
        return parser(value, self.child(key))

    def has(self, key: str) -> bool:
        return key in self._data

    def finish(self) -> None:
        if self._data:
            stray = self.child(sorted(self._data)[0])
            raise ConfigError(stray, "unknown key")


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_positive(value: Any, path: str) -> float:
    out = _as_float(value, path)
    if out <= 0.0:
        raise ConfigError(path, f"must be positive, got {out}")
    return out


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true/false, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _as_enum(enum_cls: type[Enum]) -> Callable[[Any, str], Enum]:
    def parse(value: Any, path: str) -> Enum:
        name = _as_str(value, path)
        try:
            return enum_cls(name)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(path, f"{name!r} is not one of: {valid}") from None

    return parse


def _as_tuple(item: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return parse


def _as_optional(item: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    def parse(value: Any, path: str) -> Any:
        return None if value is None else item(value, path)

    return parse


def _build(path: str, factory: Callable[[], Any], **kwargs: Any) -> Any:
    try:
        return factory(**kwargs) if kwargs else factory()
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_params(value: Any, path: str) -> PhysicalParams:
    section = _Section(value, path)
    kwargs = {
        name: section.take(name, _as_float, default)
        for name, default in (
            ("c", 1.0),
            ("nu", 0.0),
            ("eps", 0.1),
            ("alpha", 1.0),
            ("beta", 2.0),
            ("hyp_floor", 0.1),
        )
    }
    section.finish()
    return _build(path, PhysicalParams, **kwargs)


def _parse_grid(value: Any, path: str) -> Grid:
    section = _Section(value, path)
    n = section.take("n", _as_int, None)
    points = section.take("points", lambda v, p: v, None)
    lengths = section.take("lengths", lambda v, p: v, 2.0 * math.pi)
    centered = section.take("origin_centered", _as_bool, False)
    section.finish()
    if points is None:
        raise ConfigError(section.child("points"), "required")
    if isinstance(points, list):
        points_t = _as_tuple(_as_int)(points, section.child("points"))
        if n is not None and n != len(points_t):
            raise ConfigError(section.child("n"), f"n = {n} but {len(points_t)} point counts given")
    else:
        if n is None:
            raise ConfigError(section.child("n"), "required when points is a scalar")
        points_t = (_as_int(points, section.child("points")),) * n
    if isinstance(lengths, list):
        lengths_t = _as_tuple(_as_positive)(lengths, section.child("lengths"))
        if len(lengths_t) != len(points_t):
            raise ConfigError(section.child("lengths"), "length count does not match points")
    else:
        lengths_t = (_as_positive(lengths, section.child("lengths")),) * len(points_t)
    return _build(path, Grid, lengths=lengths_t, points=points_t, origin_centered=centered)


def _parse_preset(value: Any, path: str) -> Preset:
    section = _Section(value, path)
    kind = section.take("kind", _as_str, "sine_mode")
    if kind not in _PRESET_KINDS:
        raise ConfigError(section.child("kind"), f"{kind!r} is not one of: " + ", ".join(sorted(_PRESET_KINDS)))
    amplitude = section.take("amplitude", _as_float, 0.01)
    if kind in ("gaussian_bump", "zero_velocity_gaussian"):
        center = section.take("center", _as_tuple(_as_float), ())
        width = section.take("width", _as_positive, 1.0)
        section.finish()
        return _build(path, _PRESET_KINDS[kind], center=center, width=width, amplitude=amplitude)
    mode = section.take("mode", _as_tuple(_as_int), (1,))
    section.finish()
    return _build(path, _PRESET_KINDS[kind], mode=mode, amplitude=amplitude)


def _parse_energies(value: Any, path: str) -> EnergySelection:
    section = _Section(value, path)
    out = EnergySelection(
        e_m_orders=section.take("e_m_orders", _as_tuple(_as_int), ()),
        half_m=section.take("half_m", _as_optional(_as_int), None),
        klainerman_m=section.take("klainerman_m", _as_optional(_as_int), None),
    )
    section.finish()
    return out


_ENVELOPE_FIELDS = (
    "B",
    "C_m",
    "C_m0",
    "D_m",
    "C_inf",
    "C1_stab",
    "C2_stab",
    "C_n_klainerman",
    "c0",
    "c_embed",
)


def _parse_envelope(value: Any, path: str) -> EnvelopeParams:
    section = _Section(value, path)
    kwargs: dict[str, Any] = {}
    for name in _ENVELOPE_FIELDS:
        parser = _as_optional(_as_float) if name == "B" else _as_float
        default = None if name == "B" else 1.0
        kwargs[name] = section.take(name, parser, default)
    section.finish()
    return _build(path, EnvelopeParams, **kwargs)


def _parse_sweep(value: Any, path: str) -> SweepOptions:
    section = _Section(value, path)
    out = _build(
        path,
        SweepOptions,
        eps_list=section.take("eps_list", _as_tuple(_as_positive), SweepOptions.eps_list),
        workers=section.take("workers", _as_int, 1),
        tail_threshold=section.take("tail_threshold", _as_positive, 0.01),
    )
    section.finish()
    return out


def _parse_stability(value: Any, path: str) -> StabilityOptions:
    section = _Section(value, path)
    out = _build(
        path,
        StabilityOptions,
        perturbation=section.take("perturbation", _as_str, "sine"),
        perturbation_amplitude=section.take("perturbation_amplitude", _as_float, 1e-3),
        perturbation_mode=section.take("perturbation_mode", _as_tuple(_as_int), (2,)),
        c2_cap=section.take("c2_cap", _as_positive, 100.0),
    )
    section.finish()
    return out


def _parse_decay(value: Any, path: str) -> DecayOptions:
    section = _Section(value, path)
    out = _build(
        path,
        DecayOptions,
        m=section.take("m", _as_int, 4),
        slack_rel=section.take("slack_rel", _as_positive, 1e-8),
    )
    section.finish()
    return out


def _parse_klainerman(value: Any, path: str) -> KlainermanOptions:
    section = _Section(value, path)
    out = _build(
        path,
        KlainermanOptions,
        m=section.take("m", _as_int, 0),
        support_fraction=section.take("support_fraction", _as_positive, DEFAULT_SUPPORT_FRACTION),
    )
    section.finish()
    return out


def _parse_linreg(value: Any, path: str) -> LinregOptions:
    section = _Section(value, path)
    out = _build(
        path,
        LinregOptions,
        forcing_amplitude=section.take("forcing_amplitude", _as_float, 1.0),
        forcing_mode=section.take("forcing_mode", _as_tuple(_as_int), (1,)),
        forcing_omega=section.take("forcing_omega", _as_float, 1.0),
        tol=section.take("tol", _as_positive, 0.01),
    )
    section.finish()
    return out


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
    section = _Section(data, "")
    cfg = RunConfig(
        model=section.take("model", _as_enum(ModelKind), ModelKind.KUZNETSOV),
        params=section.take("params", _parse_params, PhysicalParams()),
        grid=section.take("grid", _parse_grid, Grid.cube(1, 256)),
        preset=section.take("preset", _parse_preset, SineMode()),
        scheme=section.take("scheme", _as_enum(Scheme), Scheme.EXPLICIT_RK4),
        cfl=section.take("cfl", _as_positive, 0.4),
        dt=section.take("dt", _as_optional(_as_positive), None),
        horizon=section.take("horizon", _as_positive, 10.0),
        report_every=section.take("report_every", _as_int, 10),
        energies=section.take("energies", _parse_energies, EnergySelection()),
        envelope=section.take("envelope", _parse_envelope, EnvelopeParams()),
        experiment=section.take("experiment", _as_enum(ExperimentKind), ExperimentKind.SIMULATE),
        out_dir=section.take("out_dir", _as_optional(_as_str), None),
        seed=section.take("seed", _as_int, 0),
        relative_to_threshold=section.take("relative_to_threshold", _as_bool, False),
        sweep=section.take("sweep", _parse_sweep, SweepOptions()),
        stability=section.take("stability", _parse_stability, StabilityOptions()),
        decay=section.take("decay", _parse_decay, DecayOptions()),
        klainerman=section.take("klainerman", _parse_klainerman, KlainermanOptions()),
        linreg=section.take("linreg", _parse_linreg, LinregOptions()),
    )
    section.finish()
    if cfg.report_every < 1:
        raise ConfigError("report_every", "must be >= 1")
    if isinstance(cfg.preset, (SineMode, MeanZeroPeriodic)) and len(cfg.preset.mode) != cfg.grid.n:
        raise ConfigError("preset.mode", f"mode has {len(cfg.preset.mode)} components, grid has {cfg.grid.n}")
    if (
        isinstance(cfg.preset, (GaussianBump, ZeroVelocityGaussian))
        and cfg.preset.center
        and len(cfg.preset.center) != cfg.grid.n
    ):
        raise ConfigError("preset.center", f"center has {len(cfg.preset.center)} components, grid has {cfg.grid.n}")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Render a config back to its canonical JSON text."""
    preset: dict[str, Any]
    if isinstance(cfg.preset, (GaussianBump, ZeroVelocityGaussian)):
        kind = "gaussian_bump" if isinstance(cfg.preset, GaussianBump) else "zero_velocity_gaussian"
        preset = {
            "kind": kind,
            "center": list(cfg.preset.center),
            "width": cfg.preset.width,
            "amplitude": cfg.preset.amplitude,
        }
    else:
        kind = "sine_mode" if isinstance(cfg.preset, SineMode) else "mean_zero_periodic"
        preset = {"kind": kind, "mode": list(cfg.preset.mode), "amplitude": cfg.preset.amplitude}
    data = {
        "model": cfg.model.value,
        "params": {
            "c": cfg.params.c,
            "nu": cfg.params.nu,
            "eps": cfg.params.eps,
            "alpha": cfg.params.alpha,
            "beta": cfg.params.beta,
            "hyp_floor": cfg.params.hyp_floor,
        },
        "grid": {
            "n": cfg.grid.n,
            "points": list(cfg.grid.points),
            "lengths": list(cfg.grid.lengths),
            "origin_centered": cfg.grid.origin_centered,
        },
        "preset": preset,
        "scheme": cfg.scheme.value,
        "cfl": cfg.cfl,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "report_every": cfg.report_every,
        "energies": {
            "e_m_orders": list(cfg.energies.e_m_orders),
            "half_m": cfg.energies.half_m,
            "klainerman_m": cfg.energies.klainerman_m,
        },
        "envelope": {name: getattr(cfg.envelope, name) for name in _ENVELOPE_FIELDS},
        "experiment": cfg.experiment.value,
        "out_dir": cfg.out_dir,
        "seed": cfg.seed,
        "relative_to_threshold": cfg.relative_to_threshold,
        "sweep": {
            "eps_list": list(cfg.sweep.eps_list),
            "workers": cfg.sweep.workers,
            "tail_threshold": cfg.sweep.tail_threshold,
        },
        "stability": {
            "perturbation": cfg.stability.perturbation,
            "perturbation_amplitude": cfg.stability.perturbation_amplitude,
            "perturbation_mode": list(cfg.stability.perturbation_mode),
            "c2_cap": cfg.stability.c2_cap,
        },
        "decay": {"m": cfg.decay.m, "slack_rel": cfg.decay.slack_rel},
        "klainerman": {
            "m": cfg.klainerman.m,
            "support_fraction": cfg.klainerman.support_fraction,
        },
        "linreg": {
            "forcing_amplitude": cfg.linreg.forcing_amplitude,
            "forcing_mode": list(cfg.linreg.forcing_mode),
            "forcing_omega": cfg.linreg.forcing_omega,
            "tol": cfg.linreg.tol,
        },
    }
    return json.dumps(data, indent=2) + "\n"


def _box_center(grid: Grid) -> tuple[float, ...]:
    if grid.origin_centered:
        return (0.0,) * grid.n
    return tuple(length / 2.0 for length in grid.lengths)


def _gaussian_values(grid: Grid, center: tuple[float, ...], width: float, amplitude: float):
    center = center if center else _box_center(grid)
    r2 = np.zeros(grid.shape)
    for axis in range(grid.n):
        r2 = r2 + (grid.coordinate_mesh(axis) - center[axis]) ** 2
    return amplitude * np.exp(-r2 / (2.0 * width**2))


def _sine_values(grid: Grid, mode: tuple[int, ...], amplitude: float):
    phase = np.zeros(grid.shape)
    k_norm_sq = 0.0
    for axis in range(grid.n):
        k_axis = 2.0 * math.pi * mode[axis] / grid.lengths[axis]
        phase = phase + k_axis * grid.coordinate_mesh(axis)
        k_norm_sq += k_axis**2
    k_norm = math.sqrt(k_norm_sq)
    return amplitude * np.sin(phase), -amplitude * k_norm * np.cos(phase)


def materialize_preset(preset: Preset, grid: Grid) -> tuple[Field, Field]:
    """Realize a preset on a grid as the initial pair (u0, u1).

    Gaussian presets are checked against the support monitor at t = 0: their
    active region (relative level 1e-8) must stay inside the admissible
    fraction of the smallest box side, else ConfigError.
    """
    if isinstance(preset, (GaussianBump, ZeroVelocityGaussian)):
        if preset.center and len(preset.center) != grid.n:
            raise ConfigError("preset.center", f"{len(preset.center)} components for a {grid.n}d grid")
        bump = _gaussian_values(grid, preset.center, preset.width, preset.amplitude)
        u0 = Field(grid, bump)
        u1 = Field(grid, bump.copy()) if isinstance(preset, GaussianBump) else Field.zeros(grid)
        radius = support_radius(SimState(u0, u1))
        limit = DEFAULT_SUPPORT_FRACTION * min(grid.lengths)
        if radius >= limit:
            raise ConfigError(
                "preset.width",
                f"Gaussian support radius {radius:.4g} reaches the monitor limit "
                f"{limit:.4g}; widen the box or narrow the bump",
            )
        return u0, u1
    if len(preset.mode) != grid.n:
        raise ConfigError("preset.mode", f"{len(preset.mode)} components for a {grid.n}d grid")
    u0_vals, u1_vals = _sine_values(grid, preset.mode, preset.amplitude)
    return Field(grid, u0_vals), Field(grid, u1_vals)


def _data_scale_target(cfg: RunConfig) -> tuple[float, int]:
    """Threshold value and tower order governing relative amplitudes."""
    record = thresholds(cfg.params, cfg.envelope)
    if cfg.params.nu > 0.0:
        return record.sqrt_e_half_max, cfg.decay.m
    m0 = cfg.grid.n // 2 + 2
    return record.sqrt_e_m0_max, m0


def initial_data(cfg: RunConfig) -> tuple[Field, Field]:
    """Materialize the configured preset, applying threshold-relative scaling.

    With relative_to_threshold set, the data are rescaled so the relevant
    tower at t = 0 satisfies sqrt(E(0)) = amplitude * threshold; the scaling
    is solved by a short fixed-point iteration because the towers are not
    exactly quadratic in the data for nonlinear models.
    """
    u0, u1 = materialize_preset(cfg.preset, cfg.grid)
    if not cfg.relative_to_threshold:
        return u0, u1
    threshold, m = _data_scale_target(cfg)
    if not math.isfinite(threshold):
        raise ConfigError("relative_to_threshold", "threshold is not finite for these parameters")
    target = cfg.preset.amplitude * threshold
    values0, values1 = u0.values, u1.values
    amp = cfg.preset.amplitude
    if amp == 0.0:
        return Field(cfg.grid, 0.0 * values0), Field(cfg.grid, 0.0 * values1)
    scale = 1e-6 / max(np.max(np.abs(values0)), np.max(np.abs(values1)), 1e-300)
    for _ in range(8):
        state = SimState(Field(cfg.grid, scale * values0), Field(cfg.grid, scale * values1))
        if cfg.params.nu > 0.0:
            jet = build_jet(state, cfg.params, m // 2 + 1, cfg.model)
            current = math.sqrt(energy_half_m(jet, m))
        else:
            jet = build_jet(state, cfg.params, m + 1, cfg.model)
            current = math.sqrt(energy_m(jet, m))
        if current == 0.0:
            raise ConfigError("preset", "zero data cannot be scaled to a threshold")
        ratio = target / current
        scale *= ratio
        if abs(ratio - 1.0) < 1e-12:
            break
    return Field(cfg.grid, scale * values0), Field(cfg.grid, scale * values1)


def with_overrides(
    cfg: RunConfig,
    *,
    out_dir: str | None = None,
    horizon: float | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> RunConfig:
    """Apply CLI-level overrides, returning a new config."""
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    if horizon is not None:
        cfg = replace(cfg, horizon=horizon)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if workers is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, workers=workers))
    return cfg
