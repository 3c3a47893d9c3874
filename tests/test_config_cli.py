"""Tests for the configuration schema, presets, and the command-line driver.

Contracts under test: parse/serialize round-trips exactly, unknown keys are
rejected with their dotted path, presets materialize to their documented
closed forms, threshold-relative scaling is exact at t = 0, and the CLI maps
outcomes onto its documented exit codes with a stable results layout.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuzlab import (
    ConfigError,
    Grid,
    GuardViolation,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    config,
    experiments,
)
from kuzlab.cli import main
from kuzlab.dynamics import cfl_dt, solve_linear_forced
from kuzlab.config import (
    GaussianBump,
    MeanZeroPeriodic,
    RunConfig,
    SineMode,
    ZeroVelocityGaussian,
    initial_data,
    linreg_forcing,
    materialize_preset,
    parse_config,
    serialize_config,
    with_overrides,
)
from kuzlab.energies import energy_half_m, energy_m, thresholds
from kuzlab.gamma import MAX_WORD_LENGTH
from kuzlab.io import read_reports_csv
from kuzlab.jets import build_jet
from helpers import count_ffts


_DEFAULT_TEXT = """\
{
  "model": "kuznetsov",
  "params": {
    "c": 1.0,
    "nu": 0.0,
    "eps": 0.1,
    "alpha": 1.0,
    "beta": 2.0,
    "hyp_floor": 0.1
  },
  "grid": {
    "n": 1,
    "points": [
      256
    ],
    "lengths": [
      6.283185307179586
    ],
    "origin_centered": false
  },
  "preset": {
    "kind": "sine_mode",
    "mode": [
      1
    ],
    "amplitude": 0.01
  },
  "scheme": "rk4",
  "cfl": 0.4,
  "dt": null,
  "horizon": 10.0,
  "report_every": 10,
  "energies": {
    "e_m_orders": [],
    "half_m": null
  },
  "envelope": {
    "B": null,
    "C_m": 1.0,
    "C_m0": 1.0,
    "C_inf": 1.0,
    "c0": 1.0,
    "c_embed": 1.0
  },
  "out_dir": null,
  "seed": 0,
  "relative_to_threshold": false,
  "sweep": {
    "eps_list": [
      0.2,
      0.1,
      0.05,
      0.025
    ],
    "tail_threshold": 0.01
  },
  "stability": {
    "perturbation": "sine",
    "perturbation_amplitude": 0.001,
    "perturbation_mode": [
      2
    ],
    "c2_cap": 100.0
  },
  "decay": {
    "m": 4,
    "slack_rel": 1e-08
  },
  "klainerman": {
    "m": 0,
    "support_fraction": 0.4
  },
  "linreg": {
    "forcing_amplitude": 1.0,
    "forcing_mode": [
      1
    ],
    "forcing_omega": 1.0,
    "tol": 0.01
  }
}
"""


def _positive_path_config(path: str, value: float) -> dict:
    """The smallest config that puts value at the given dotted path."""
    if path == "grid.lengths[0]":
        return {"grid": {"points": [64], "lengths": [value]}}
    if path == "grid.lengths":
        return {"grid": {"n": 1, "points": 64, "lengths": value}}
    if path == "sweep.eps_list[1]":
        return {"sweep": {"eps_list": [0.1, value]}}
    if path == "preset.width":
        return {"preset": {"kind": "gaussian_bump", "width": value}}
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


@st.composite
def _configs(draw) -> dict:
    """A schema-valid config that sets a value in every section.

    klainerman.m is drawn where parse_config accepts it on the drawn
    dimension n (m + n//2 + 1 <= 2).
    """
    pos = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 100))
    num = st.one_of(st.floats(-1e3, 1e3), st.integers(-100, 100))
    n = draw(st.integers(1, 3))
    modes = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    mode = draw(modes)
    kind = draw(st.sampled_from(["gaussian_bump", "sine_mode", "zero_velocity_gaussian", "mean_zero_periodic"]))
    if kind in ("gaussian_bump", "zero_velocity_gaussian"):
        center = draw(st.one_of(st.just([]), st.lists(num, min_size=n, max_size=n)))
        preset = {"kind": kind, "center": center, "width": draw(pos), "amplitude": draw(num)}
    else:
        if kind == "mean_zero_periodic":
            mode[0] = draw(st.sampled_from([-2, -1, 1, 3]))
        preset = {"kind": kind, "mode": mode, "amplitude": draw(num)}
    points = draw(st.lists(st.sampled_from([8, 16, 32, 64, 256]), min_size=n, max_size=n))
    return {
        "model": draw(st.sampled_from([k.value for k in ModelKind])),
        "params": {
            "c": draw(st.floats(0.1, 10.0)),
            "nu": draw(st.one_of(st.just(0), st.floats(0.0, 5.0))),
            "eps": draw(st.floats(0.01, 1.0)),
            "alpha": draw(pos),
            "beta": draw(pos),
            "hyp_floor": draw(st.floats(0.01, 0.99)),
        },
        "grid": draw(
            st.one_of(
                st.just({"n": n, "points": points[0], "lengths": 2.0}),
                st.builds(
                    lambda lengths, centered: {"points": points, "lengths": lengths, "origin_centered": centered},
                    st.lists(pos, min_size=n, max_size=n),
                    st.booleans(),
                ),
            )
        ),
        "preset": preset,
        "scheme": draw(st.sampled_from([s.value for s in Scheme])),
        "cfl": draw(pos),
        "dt": draw(st.one_of(st.none(), pos)),
        "horizon": draw(pos),
        "report_every": draw(st.integers(1, 50)),
        "energies": {
            "e_m_orders": draw(st.lists(st.integers(0, 5), max_size=3)),
            "half_m": draw(st.one_of(st.none(), st.sampled_from([0, 2, 4, 10]))),
        },
        "envelope": {
            "B": draw(st.one_of(st.none(), pos)),
            "C_m": draw(pos),
            "C_m0": draw(pos),
            "C_inf": draw(pos),
            "c0": draw(pos),
            "c_embed": draw(pos),
        },
        "out_dir": draw(st.one_of(st.none(), st.text(max_size=8))),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "relative_to_threshold": draw(st.booleans()),
        "sweep": {
            "eps_list": draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True)),
            "tail_threshold": draw(pos),
        },
        "stability": {
            "perturbation": draw(st.sampled_from(["sine", "noise"])),
            "perturbation_amplitude": draw(num),
            "perturbation_mode": draw(st.lists(st.integers(0, 4), max_size=3)),
            "c2_cap": draw(pos),
        },
        "decay": {"m": draw(st.sampled_from([2, 4, 6, 10])), "slack_rel": draw(pos)},
        "klainerman": {
            "m": draw(st.integers(0, MAX_WORD_LENGTH - n // 2 - 1)),
            "support_fraction": draw(st.floats(1e-3, 0.49)),
        },
        "linreg": {
            "forcing_amplitude": draw(num),
            "forcing_mode": draw(st.lists(st.integers(-3, 3), max_size=3)),
            "forcing_omega": draw(num),
            "tol": draw(pos),
        },
    }


@st.composite
def _runnable_configs(draw, command: str) -> dict:
    """A _configs draw reshaped so that command, klainerman or linreg, can run it.

    Klainerman: an origin-centred 16-point grid on a wide box, nu = 0 (so
    nu_eff = 0 for every kind) and a small Gaussian bump about one grid step
    wide, compact on that grid, over a horizon short against the box; on
    fewer points no Gaussian stays inside the support monitor. Linreg:
    nu > 0, c <= 1, sine data, and a forcing mode with one component per axis.
    """
    data = draw(_configs())
    n = data["grid"].get("n") or len(data["grid"]["points"])
    if command == "klainerman":
        length = draw(st.floats(500.0, 1000.0))
        return {
            **data,
            "params": {**data["params"], "nu": 0.0, "c": draw(st.floats(0.1, 1.0))},
            "grid": {"n": n, "points": 16, "lengths": length, "origin_centered": True},
            "preset": {
                "kind": "gaussian_bump",
                "width": draw(st.floats(0.8, 1.1)) * length / 16,
                "amplitude": draw(st.floats(1e-6, 1e-4)),
            },
            "cfl": draw(st.floats(0.05, 0.5)),
            "horizon": draw(st.floats(1e-4, 1e-3)),
            "relative_to_threshold": False,
            "klainerman": {**data["klainerman"], "support_fraction": draw(st.floats(0.4, 0.49))},
        }
    mode = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return {
        **data,
        "params": {**data["params"], "nu": draw(st.floats(0.01, 5.0)), "c": draw(st.floats(0.1, 1.0))},
        "preset": {"kind": "sine_mode", "mode": draw(mode), "amplitude": draw(st.floats(-1.0, 1.0))},
        "linreg": {**data["linreg"], "forcing_mode": draw(mode)},
    }


class TestParseSerialize:
    def test_empty_config_is_all_defaults(self) -> None:
        cfg = parse_config("{}")
        assert cfg == RunConfig()
        assert cfg.model is ModelKind.KUZNETSOV
        assert cfg.grid == Grid.cube(1, 256)
        assert cfg.preset == SineMode()

    def test_round_trip_is_identity(self) -> None:
        texts = [
            "{}",
            json.dumps(
                {
                    "model": "westervelt",
                    "params": {"c": 1.5, "nu": 0.25, "eps": 0.05},
                    "grid": {"n": 2, "points": [32, 64], "lengths": [6.0, 12.0], "origin_centered": True},
                    "preset": {"kind": "gaussian_bump", "width": 0.5, "amplitude": 0.02},
                    "scheme": "imex",
                    "dt": 0.01,
                    "horizon": 3.5,
                    "energies": {"e_m_orders": [0, 2], "half_m": 2},
                    "seed": 11,
                    "relative_to_threshold": True,
                    "decay": {"m": 2},
                }
            ),
            json.dumps(
                {
                    "preset": {"kind": "mean_zero_periodic", "mode": [2], "amplitude": 0.03},
                    "sweep": {"eps_list": [0.4, 0.2], "tail_threshold": 0.05},
                    "stability": {"perturbation": "noise", "perturbation_amplitude": 1e-4},
                    "envelope": {"B": 12.0, "C_m": 2.0},
                    "linreg": {"forcing_omega": 2.5},
                }
            ),
        ]
        for text in texts:
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_default_canonical_text(self) -> None:
        assert serialize_config(RunConfig()) == _DEFAULT_TEXT
        assert serialize_config(parse_config("{}")) == _DEFAULT_TEXT

    def test_integers_in_number_fields_serialize_as_floats(self) -> None:
        text = '{"cfl": 1, "params": {"c": 2}, "grid": {"n": 1, "points": 64, "lengths": 3}}'
        data = json.loads(serialize_config(parse_config(text)))
        assert data["cfl"] == 1.0 and isinstance(data["cfl"], float)
        assert isinstance(data["params"]["c"], float)
        assert data["grid"]["lengths"] == [3.0] and isinstance(data["grid"]["lengths"][0], float)

    @given(data=_configs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data) -> None:
        cfg = parse_config(json.dumps(data))
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_invalid_json_rejected(self) -> None:
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_unknown_top_level_key(self) -> None:
        with pytest.raises(ConfigError, match="colour"):
            parse_config('{"colour": 3}')

    def test_unknown_nested_key_has_dotted_path(self) -> None:
        with pytest.raises(ConfigError, match=r"params\.mass"):
            parse_config('{"params": {"mass": 1.0}}')
        with pytest.raises(ConfigError, match=r"sweep\.epss"):
            parse_config('{"sweep": {"epss": [0.1]}}')

    @pytest.mark.parametrize(
        "section, key",
        [
            ("energies", "klainerman_m"),
            ("envelope", "D_m"),
            ("envelope", "C1_stab"),
            ("envelope", "C2_stab"),
            ("envelope", "C_n_klainerman"),
            ("sweep", "workers"),
        ],
    )
    def test_retired_keys_are_unknown(self, section, key) -> None:
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(json.dumps({section: {key: 1}}))
        assert info.value.path == f"{section}.{key}"

    @pytest.mark.parametrize(
        "path",
        [
            "cfl",
            "dt",
            "horizon",
            "grid.lengths",
            "grid.lengths[0]",
            "preset.width",
            "sweep.eps_list[1]",
            "sweep.tail_threshold",
            "stability.c2_cap",
            "decay.slack_rel",
            "klainerman.support_fraction",
            "linreg.tol",
        ],
    )
    @pytest.mark.parametrize("value", [0, 0.0, -1.5])
    def test_positive_paths_reject_nonpositive(self, path, value) -> None:
        with pytest.raises(ConfigError, match="must be positive") as info:
            parse_config(json.dumps(_positive_path_config(path, value)))
        assert info.value.path == path
        parse_config(json.dumps(_positive_path_config(path, 0.25)))

    def test_error_paths(self) -> None:
        cases = {
            '{"grid": {"points": 64}}': "grid.n",
            '{"grid": {"n": 1}}': "grid.points",
            '{"grid": {"n": 1, "points": 64, "zz": 1}}': "grid.zz",
            '{"preset": {"kind": "box"}}': "preset.kind",
            '{"grid": {"n": 2, "points": 32}, "preset": {"mode": [1, 1.5]}}': "preset.mode[1]",
            '{"preset": {"kind": "gaussian_bump", "width": "a"}}': "preset.width",
            '{"preset": {"kind": "sine_mode", "width": 1.0}}': "preset.width",
            '{"seed": 1.5}': "seed",
            '{"seed": true}': "seed",
            '{"energies": {"e_m_orders": [1, 0.5]}}': "energies.e_m_orders[1]",
            '{"params": {"eps": 2.0}}': "params",
            "[1, 2]": "",
        }
        for text, path in cases.items():
            with pytest.raises(ConfigError) as info:
                parse_config(text)
            assert info.value.path == path, text

    def test_type_errors_are_config_errors(self) -> None:
        with pytest.raises(ConfigError, match="horizon"):
            parse_config('{"horizon": true}')
        with pytest.raises(ConfigError, match="horizon"):
            parse_config('{"horizon": -1.0}')
        with pytest.raises(ConfigError, match="model"):
            parse_config('{"model": "burgers"}')
        with pytest.raises(ConfigError, match="report_every"):
            parse_config('{"report_every": 0}')

    def test_physical_validation_surfaces_as_config_error(self) -> None:
        with pytest.raises(ConfigError, match="params"):
            parse_config('{"params": {"eps": 2.0}}')

    def test_mode_dimension_checked_against_grid(self) -> None:
        with pytest.raises(ConfigError, match="preset.mode"):
            parse_config('{"grid": {"n": 2, "points": 32}, "preset": {"kind": "sine_mode", "mode": [1]}}')

    def test_center_dimension_checked_against_grid(self) -> None:
        bad = {
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "gaussian_bump", "center": [0.0, 0.0]},
        }
        with pytest.raises(ConfigError, match="preset.center"):
            parse_config(json.dumps(bad))

    def test_mean_zero_requires_nonzero_first_mode(self) -> None:
        with pytest.raises(ConfigError):
            parse_config('{"preset": {"kind": "mean_zero_periodic", "mode": [0]}}')

    def test_with_overrides(self) -> None:
        cfg = RunConfig()
        out = with_overrides(cfg, out_dir="results/x", horizon=5.0, seed=3)
        assert out.out_dir == "results/x"
        assert out.horizon == 5.0
        assert out.seed == 3
        # untouched fields keep their values; the original is unchanged
        assert out.model is cfg.model
        assert cfg.out_dir is None


class TestPresets:
    def test_sine_mode_closed_form(self) -> None:
        grid = Grid.cube(1, 256)
        u0, u1 = materialize_preset(SineMode(mode=(3,), amplitude=0.02), grid)
        assert float(np.max(np.abs(u0.values))) == pytest.approx(0.02, rel=1e-6)
        x = grid.axis_coordinates(0)
        np.testing.assert_allclose(u0.values, 0.02 * np.sin(3 * x), atol=1e-15)
        np.testing.assert_allclose(u1.values, -0.02 * 3 * np.cos(3 * x), atol=1e-14)

    def test_sine_mode_is_unit_speed_traveling_profile(self) -> None:
        """u(x, t) = A sin(k(x - t)) solves the c = 1 wave equation; the preset
        pair is that profile and its time derivative at t = 0."""
        grid = Grid.cube(1, 128)
        a, k = 0.05, 2
        u0, u1 = materialize_preset(SineMode(mode=(k,), amplitude=a), grid)
        x = grid.axis_coordinates(0)
        t = 1e-3
        travel = a * np.sin(k * (x - t))
        np.testing.assert_allclose(
            u0.values + t * u1.values, travel, atol=2 * a * (k * t) ** 2
        )

    def test_gaussian_bump_integral(self) -> None:
        """The box integral matches A (2 pi)^{n/2} w^n on a roomy box."""
        grid = Grid.cube(2, 64, length=16.0, origin_centered=True)
        width, amp = 0.7, 0.03
        u0, u1 = materialize_preset(GaussianBump(width=width, amplitude=amp), grid)
        integral = grid.cell_volume * float(np.sum(u0.values))
        expected = amp * (2 * math.pi) ** 1.0 * width**2
        assert integral == pytest.approx(expected, rel=1e-10)
        np.testing.assert_array_equal(u0.values, u1.values)

    def test_zero_velocity_gaussian(self) -> None:
        grid = Grid.cube(1, 128, length=16.0, origin_centered=True)
        u0, u1 = materialize_preset(ZeroVelocityGaussian(width=0.5, amplitude=0.01), grid)
        assert float(np.max(np.abs(u1.values))) == 0.0
        assert float(np.max(u0.values)) == pytest.approx(0.01, rel=1e-12)

    def test_mean_zero_periodic_is_mean_zero(self) -> None:
        grid = Grid.cube(2, 32)
        u0, u1 = materialize_preset(MeanZeroPeriodic(mode=(2, 1), amplitude=0.05), grid)
        assert abs(float(np.mean(u0.values))) < 1e-16
        assert abs(float(np.mean(u1.values))) < 1e-16
        # zero mean along every first-axis line, the Poincare-admissible class
        assert float(np.max(np.abs(u0.values.mean(axis=0)))) < 1e-16

    def test_preset_rejects_wrong_mode_length(self) -> None:
        grid = Grid.cube(2, 32)
        with pytest.raises(ConfigError, match="mode"):
            materialize_preset(SineMode(mode=(1,)), grid)


# 1-d sine data scaled to the viscous threshold near the floor, where the
# scaling's fixed-point iteration converges slowly.
_SLOW_SCALING = {
    "params": {"nu": 1.0, "eps": 0.5},
    "grid": {"n": 1, "points": 64},
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 1.0},
    "relative_to_threshold": True,
    "decay": {"m": 2},
    "envelope": {"C_m": 0.05},
}


class TestThresholdRelativeScaling:
    def test_inviscid_scaling_is_exact(self) -> None:
        cfg = parse_config(
            json.dumps(
                {
                    "grid": {"n": 1, "points": 64},
                    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
                    "relative_to_threshold": True,
                }
            )
        )
        u0, u1 = initial_data(cfg)
        m0 = cfg.grid.n // 2 + 2
        jet = build_jet(SimState(u0, u1), cfg.params, m0 + 1, cfg.model)
        target = 0.5 * thresholds(cfg.params, cfg.envelope).sqrt_e_m0_max
        assert math.sqrt(energy_m(jet, m0)) == pytest.approx(target, rel=1e-10)

    def test_viscous_scaling_uses_half_tower(self) -> None:
        cfg = parse_config(
            json.dumps(
                {
                    "params": {"nu": 1.0},
                    "grid": {"n": 1, "points": 64},
                    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.25},
                    "relative_to_threshold": True,
                    "decay": {"m": 2},
                }
            )
        )
        u0, u1 = initial_data(cfg)
        jet = build_jet(SimState(u0, u1), cfg.params, 2, cfg.model)
        target = 0.25 * thresholds(cfg.params, cfg.envelope).sqrt_e_half_max
        assert math.sqrt(energy_half_m(jet, 2)) == pytest.approx(target, rel=1e-10)

    def test_undamped_wave_scales_to_the_inviscid_threshold(self) -> None:
        """The wave kind has nu_eff = 0 whatever nu is: its data scale to the
        inviscid m0-tower, as for nu = 0."""
        cfg = parse_config(
            json.dumps(
                {
                    "model": "wave",
                    "params": {"nu": 1.0},
                    "grid": {"n": 1, "points": 64},
                    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
                    "relative_to_threshold": True,
                }
            )
        )
        u0, u1 = initial_data(cfg)
        m0 = cfg.grid.n // 2 + 2
        jet = build_jet(SimState(u0, u1), cfg.params, m0 + 1, cfg.model)
        target = 0.5 * thresholds(cfg.params, cfg.envelope).sqrt_e_m0_max
        assert math.sqrt(energy_m(jet, m0)) == pytest.approx(target, rel=1e-10)

    def test_slow_fixed_point_meets_its_target(self) -> None:
        """Near the floor each tower shrinks the scaling's miss only by about
        0.6 (56 towers here); the data still meet the target to 1e-12."""
        cfg = parse_config(json.dumps(_SLOW_SCALING))
        u0, u1 = initial_data(cfg)
        jet = build_jet(SimState(u0, u1), cfg.params, 2, cfg.model)
        target = thresholds(cfg.params, cfg.envelope).sqrt_e_half_max
        assert math.sqrt(energy_half_m(jet, 2)) == pytest.approx(target, rel=1e-11)

    def test_unmet_target_is_a_guard_violation(self, tmp_path, capsys, monkeypatch) -> None:
        """A scaling that has not met its target when its towers run out exits 3
        naming the miss; it never hands on data scaled to a missed target."""
        monkeypatch.setattr(config, "_SCALING_ITERATIONS", 8)
        cfg = _write_config(tmp_path, "slow.json", {**_SLOW_SCALING, "horizon": 0.5})
        assert main(["decay", "--config", cfg, "--out", str(tmp_path / "res")]) == 3
        assert capsys.readouterr().err == (
            "guard violation: threshold-relative scaling missed its target after 8 towers: "
            "the last gives sqrt(E(0)) = 9.11999 against 8.94427\n"
        )
        assert not (tmp_path / "res").exists()

    def test_negative_amplitude_scales_to_its_magnitude(self, tmp_path, capsys) -> None:
        """A negative amplitude is a depression: the data scale to sqrt(E(0)) =
        |A| * threshold and keep the preset's sign, and the run exits 0."""
        payload = {
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": -0.5},
            "relative_to_threshold": True,
            "horizon": 0.5,
        }
        path = _write_config(tmp_path, "depression.json", payload)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "res")]) == 0
        assert capsys.readouterr().err == ""
        cfg = parse_config(json.dumps(payload))
        u0, u1 = initial_data(cfg)
        m0 = cfg.grid.n // 2 + 2
        jet = build_jet(SimState(u0, u1), cfg.params, m0 + 1, cfg.model)
        target = 0.5 * thresholds(cfg.params, cfg.envelope).sqrt_e_m0_max
        assert math.sqrt(energy_m(jet, m0)) == pytest.approx(target, rel=1e-10)
        preset_u0, preset_u1 = materialize_preset(cfg.preset, cfg.grid)
        np.testing.assert_array_equal(np.sign(u0.values), np.sign(preset_u0.values))
        np.testing.assert_array_equal(np.sign(u1.values), np.sign(preset_u1.values))
        assert u0.values[cfg.grid.shape[0] // 4] < 0.0

    def test_stalled_scaling_is_a_guard_violation(self, monkeypatch) -> None:
        """A tower that does not shrink the miss ends the iteration at once:
        with towers that ignore the scale, the second repeats the first's miss."""
        monkeypatch.setattr(config, "data_tower", lambda state, p, kind, m: 4.0)
        cfg = parse_config(json.dumps(_SLOW_SCALING))
        with pytest.raises(GuardViolation, match=r"after 2 towers \(the last did not shrink its miss\)"):
            initial_data(cfg)

    def test_absolute_amplitudes_without_flag(self) -> None:
        cfg = parse_config('{"preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.125}}')
        u0, _ = initial_data(cfg)
        assert float(np.max(np.abs(u0.values))) == pytest.approx(0.125, rel=1e-6)


def _write_config(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


_FAST_SIM = {
    "grid": {"n": 1, "points": 64},
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
    "horizon": 0.5,
    "report_every": 10,
}


_KLAINERMAN_GRID = {"n": 1, "points": 128, "lengths": [12.566370614359172], "origin_centered": True}


def _klainerman_at(n: int, m: int) -> dict:
    """A cheap centred Klainerman run at order m on an n-d grid: zero data
    pass every guard, and the ratio still sweeps words of length m + n//2 + 1."""
    return {
        "grid": {"points": [8] * n, "lengths": [64.0] * n, "origin_centered": True},
        "preset": {"kind": "sine_mode", "mode": [1] * n, "amplitude": 0.0},
        "horizon": 1.0,
        "klainerman": {"m": m},
    }

# Sine data scaled to 1000 times the smallness threshold: they reach the
# hyperbolicity floor while initial_data scales them.
_FLOORED = {
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 1000.0},
    "relative_to_threshold": True,
}

# 1-d sine data that break down: the spectral tail trips at t = 5.65 for
# eps = 0.2; at eps = 0.9 the hyperbolicity floor trips at t = 1.24.
_BREAKING = {
    "grid": {"n": 1, "points": 128},
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
    "horizon": 30.0,
}


# A Gaussian of radius 3.14 (relative level 1e-8) on the 2 pi box, past the
# Klainerman monitor's default limit 0.4 * 2 pi.
_WIDE_GAUSSIAN = {
    "grid": {"n": 1, "points": 64},
    "preset": {"kind": "gaussian_bump", "width": 2.0},
    "horizon": 0.5,
}

# The forced linear problem on 64 points: the CFL step at cfl 0.4 takes 26 steps to t = 1.
_LINREG = {"grid": {"n": 1, "points": 64}, "params": {"nu": 0.5, "eps": 0.2}, "horizon": 1.0}

# A forcing of frequency 903 that the CFL step on 8 points does not resolve:
# the recorded lhs passes rhs * (1 + tol) at t = 0.3 (3.2e3 against 2.5e2).
_UNRESOLVED_LINREG = {
    "grid": {"n": 1, "points": 8, "lengths": 2.0},
    "params": {"c": 0.5, "nu": 3.66, "eps": 0.74},
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 1e-6},
    "linreg": {"forcing_amplitude": 76.0, "forcing_mode": [3], "forcing_omega": 903.0},
    "dt": 2.0,
    "horizon": 0.3,
}


class TestCli:
    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("decay", {"params": {"nu": 1.0}, "decay": {"m": 3}}, "decay: m "),
            ("decay", {"params": {"nu": 1.0}, "decay": {"m": 12}}, "decay: m "),
            ("simulate", {"energies": {"half_m": 3}}, "energies: half_m "),
            ("simulate", {"energies": {"e_m_orders": [-1]}}, "energies: e_m_orders "),
            ("simulate", {"energies": {"e_m_orders": [6]}}, "energies: e_m_orders "),
            ("klainerman", {"grid": _KLAINERMAN_GRID, "klainerman": {"m": 5}}, "klainerman: m "),
            ("sweep", {"sweep": {"eps_list": [0.1, 0.1]}}, "sweep: eps_list "),
            ("sweep", {"sweep": {"eps_list": []}}, "sweep: eps_list "),
            ("linreg", {}, "params.nu: "),
            (
                "klainerman",
                {"grid": _KLAINERMAN_GRID, "klainerman": {"support_fraction": 0.5}},
                "klainerman: support_fraction ",
            ),
            (
                "klainerman",
                {"grid": _KLAINERMAN_GRID, "klainerman": {"support_fraction": 0.6}},
                "klainerman: support_fraction ",
            ),
            ("linreg", {"params": {"nu": 0.5, "c": 2.0}}, "params.c: "),
            # A mode of the wrong arity is a config error even for data whose
            # threshold scaling would reach the floor (exit 3) before any run.
            (
                "stability",
                {**_FLOORED, "stability": {"perturbation_mode": [1, 1]}},
                "stability.perturbation_mode: ",
            ),
            (
                "linreg",
                {**_FLOORED, "params": {"nu": 0.5}, "linreg": {"forcing_mode": [1, 1]}},
                "linreg.forcing_mode: ",
            ),
        ],
    )
    def test_schema_valid_preconditions_exit_2(self, tmp_path, capsys, command, payload, named) -> None:
        """Driver preconditions fail as config errors naming the key, not as tracebacks."""
        cfg = _write_config(tmp_path, "bad.json", {**_FAST_SIM, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys) -> None:
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys) -> None:
        assert main(["frobnicate", "--config", "x.json"]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys) -> None:
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_content(self, tmp_path, capsys) -> None:
        cfg = _write_config(tmp_path, "bad.json", {"mystery_key": 1})
        assert main(["simulate", "--config", cfg]) == 2
        assert "mystery_key" in capsys.readouterr().err

    def test_simulate_success_and_layout(self, tmp_path, capsys) -> None:
        cfg = _write_config(tmp_path, "sim.json", _FAST_SIM)
        out = tmp_path / "results"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        run_dir = out / "simulate"
        assert (run_dir / "config.json").exists()
        assert (run_dir / "verdict.json").exists()
        reports = read_reports_csv(run_dir / "reports.csv")
        assert reports[0].t == 0.0
        # config.json round-trips through the parser
        reparsed = parse_config((run_dir / "config.json").read_text())
        assert reparsed.horizon == 0.5
        verdict = json.loads((run_dir / "verdict.json").read_text())
        assert verdict["cause"] == "horizon_reached"

    def test_simulate_row_count_contract(self, tmp_path, capsys) -> None:
        payload = dict(_FAST_SIM)
        payload["dt"] = 0.01
        payload["horizon"] = 0.1  # 10 steps
        payload["report_every"] = 2
        cfg = _write_config(tmp_path, "rows.json", payload)
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        reports = read_reports_csv(out / "simulate" / "reports.csv")
        assert len(reports) == 1 + 10 // 2

    def test_guard_violation_exit_code(self, tmp_path, capsys) -> None:
        payload = dict(_FAST_SIM)
        payload["params"] = {"alpha": 1.0, "eps": 0.5}
        payload["preset"] = {"kind": "sine_mode", "mode": [1], "amplitude": 2.0}
        cfg = _write_config(tmp_path, "guard.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "g")]) == 3
        assert "guard violation" in capsys.readouterr().err

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys) -> None:
        cfg = _write_config(tmp_path, "sim.json", _FAST_SIM)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        assert main(["simulate", "--config", cfg, "--out", str(blocker / "sub")]) == 4
        assert "output error" in capsys.readouterr().err

    def test_sweep_single_point_no_fit(self, tmp_path, capsys) -> None:
        payload = {
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
            "horizon": 0.5,
            "sweep": {"eps_list": [0.1]},
        }
        cfg = _write_config(tmp_path, "sweep.json", payload)
        out = tmp_path / "res"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "sweep" / "verdict.json").read_text())
        assert verdict["slope"] is None
        assert len(verdict["rows"]) == 1
        assert verdict["rows"][0]["eps"] == 0.1

    def test_check_thresholds_prints_constants(self, tmp_path, capsys) -> None:
        payload = {"params": {"nu": 0.5}, "grid": {"n": 1, "points": 64}}
        cfg = _write_config(tmp_path, "thr.json", payload)
        out = tmp_path / "res"
        assert main(["check-thresholds", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "B" in text and "T_0" in text and "r_star" in text
        data = json.loads((out / "thresholds.json").read_text())
        assert data["B"] == pytest.approx(10.0)

    def test_check_thresholds_at_the_floor_writes_then_exits_4(self, tmp_path, capsys) -> None:
        """Data at the hyperbolicity floor have no E_m0(0): like a run's t = 0
        towers it is NaN, null in thresholds.json, and the command exits 4."""
        payload = {
            "grid": {"n": 1, "points": 64},
            "params": {"eps": 0.5, "hyp_floor": 0.9},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
        }
        cfg = _write_config(tmp_path, "floor.json", payload)
        assert main(["check-thresholds", "--config", cfg, "--out", str(tmp_path / "res")]) == 4
        assert "run failed: hyperbolicity factor" in capsys.readouterr().err
        written = json.loads((tmp_path / "res" / "thresholds.json").read_text())
        assert written["E_m0(0) of configured data"] is None
        assert written["T_0 (lifespan floor)"] is None
        assert written["B"] == 10.0

    def test_threshold_relative_data_at_the_floor_exit_3(self, tmp_path, capsys) -> None:
        """Data scaled to 100 thresholds reach the floor before any run: an
        initial-data guard violation."""
        payload = {
            **_FAST_SIM,
            "params": {"eps": 0.5},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 100.0},
            "relative_to_threshold": True,
        }
        cfg = _write_config(tmp_path, "rel.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "res")]) == 3
        assert "guard violation: threshold-relative data reach the floor" in capsys.readouterr().err

    def test_check_thresholds_guard_uses_model_alpha(self, tmp_path, capsys) -> None:
        """Westervelt's guard uses (gamma + 1)/c^2 = alpha + 2/c^2, as the drivers do."""
        payload = {"model": "westervelt", "params": {"eps": 0.2}, "grid": {"n": 1, "points": 64}}
        cfg = _write_config(tmp_path, "thr.json", payload)
        out = tmp_path / "res"
        assert main(["check-thresholds", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads((out / "thresholds.json").read_text())
        assert data["sup-norm guard 1/(2 alpha eps)"] == pytest.approx(1.0 / (2.0 * 3.0 * 0.2))

    def test_decay_run(self, tmp_path, capsys) -> None:
        payload = {
            "params": {"nu": 1.0, "eps": 0.1},
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.001},
            "scheme": "imex",
            "horizon": 0.5,
            "decay": {"m": 2},
        }
        cfg = _write_config(tmp_path, "decay.json", payload)
        out = tmp_path / "res"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "decay" / "verdict.json").read_text())
        assert verdict["monotone_ok"] is True
        assert verdict["bound_ok"] is True
        assert len(verdict["times"]) >= 2
        for series in ("e_theorem", "e_half", "s_half"):
            assert len(verdict[series]) == len(verdict["times"])

    def test_decay_run_with_stiff_modes(self, tmp_path, capsys) -> None:
        """A step so long that nu eps |k|^2 dt / 2 passes exp's range on most
        modes still has a finite propagator: the run reaches its horizon."""
        payload = {
            "grid": {"n": 1, "points": 256},
            "horizon": 2.0,
            "params": {"nu": 1.0, "eps": 1.0},
            "scheme": "imex",
            "dt": 0.5,
        }
        cfg = _write_config(tmp_path, "stiff.json", payload)
        out = tmp_path / "res"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "decay" / "verdict.json").read_text())
        assert verdict["times"][-1] == pytest.approx(2.0)

    def test_stability_run_identical_under_seed(self, tmp_path, capsys) -> None:
        payload = {
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.05},
            "horizon": 0.5,
            "stability": {"perturbation": "noise", "perturbation_amplitude": 1e-5},
            "seed": 42,
        }
        cfg = _write_config(tmp_path, "stab.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["stability", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["stability", "--config", cfg, "--out", str(out_b)]) == 0
        capsys.readouterr()
        verdict_a = (out_a / "stability" / "verdict.json").read_bytes()
        verdict_b = (out_b / "stability" / "verdict.json").read_bytes()
        assert verdict_a == verdict_b
        verdict = json.loads(verdict_a)
        assert verdict["envelope_ok"] is True

    def test_stability_tail_monitor_is_simulate_s(self, tmp_path, capsys) -> None:
        """sweep.tail_threshold ends the stability pair where it ends simulate's run."""
        ends = {}
        for threshold in (0.01, 0.001):
            payload = {**_BREAKING, "params": {"eps": 0.2}, "sweep": {"tail_threshold": threshold}}
            cfg = _write_config(tmp_path, f"tail-{threshold}.json", payload)
            out = tmp_path / f"out-{threshold}"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
            capsys.readouterr()
            simulate = json.loads((out / "simulate" / "verdict.json").read_text())
            stability = json.loads((out / "stability" / "verdict.json").read_text())
            assert simulate["cause"] == stability["cause"] == "spectral_under_resolution"
            assert stability["times"][-1] == simulate["t_star"]
            assert stability["resolved"] is False and stability["envelope_ok"] is False
            ends[threshold] = simulate["t_star"]
        assert ends[0.01] == pytest.approx(5.654450261780137, rel=1e-12)
        assert ends[0.001] < ends[0.01]

    @pytest.mark.parametrize(
        "command, payload, cause, series",
        [
            (
                "stability",
                {**_BREAKING, "params": {"eps": 0.9}, "sweep": {"tail_threshold": 1.0}},
                "hyperbolicity_breakdown",
                "d",
            ),
            (
                "decay",
                {**_BREAKING, "params": {"eps": 0.9, "nu": 0.0}, "horizon": 3.0, "decay": {"m": 2}},
                "hyperbolicity_breakdown",
                "e_theorem",
            ),
            (
                "klainerman",
                {
                    "grid": _KLAINERMAN_GRID,
                    "preset": {"kind": "zero_velocity_gaussian", "width": 0.4, "amplitude": 0.01},
                    "params": {"eps": 0.05},
                    "horizon": 1.0,
                    "klainerman": {"support_fraction": 0.01},
                },
                "support_wraparound",
                "ratios",
            ),
        ],
    )
    def test_mid_run_end_writes_its_directory_then_exits_4(
        self, tmp_path, capsys, command, payload, cause, series
    ) -> None:
        cfg = _write_config(tmp_path, "end.json", payload)
        out = tmp_path / "res"
        assert main([command, "--config", cfg, "--out", str(out)]) == 4
        assert f"run failed: {command} ended by {cause}" in capsys.readouterr().err
        run_dir = out / command
        verdict = json.loads((run_dir / "verdict.json").read_text())
        assert verdict["cause"] == cause
        reports = read_reports_csv(run_dir / "reports.csv")
        assert reports[0].t == 0.0
        assert reports[-1].t == verdict["times"][-1] < payload["horizon"]
        assert len(verdict[series]) == len(verdict["times"])

    @pytest.mark.parametrize(
        "command, grid, nu, scheme",
        [("decay", {"n": 1, "points": 128}, 0.5, "imex"), ("klainerman", _KLAINERMAN_GRID, 0.0, "rk4")],
    )
    def test_data_at_the_floor_write_their_directory_then_exit_4(
        self, tmp_path, capsys, command, grid, nu, scheme
    ) -> None:
        """Sine data whose factor starts below hyp_floor end the run at t = 0,
        and the directory still names that cause."""
        payload = {
            "grid": grid,
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
            "params": {"eps": 0.5, "nu": nu, "hyp_floor": 0.9},
            "scheme": scheme,
            "horizon": 3.0,
        }
        cfg = _write_config(tmp_path, "floor.json", payload)
        out = tmp_path / "res"
        assert main([command, "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"run failed: {command} ended by hyperbolicity_breakdown at t = 0 " in err
        verdict = json.loads((out / command / "verdict.json").read_text())
        assert verdict["cause"] == "hyperbolicity_breakdown"
        assert verdict["times"] == [0.0]
        assert [r.t for r in read_reports_csv(out / command / "reports.csv")] == [0.0]

    def test_simulate_at_the_floor_keeps_every_tower_column(self, tmp_path, capsys) -> None:
        """Data at the floor have no jet, so simulate's one t = 0 row holds NaN
        for every configured tower, and reports.csv keeps an e_m column for
        each configured order, as any other run of that config would."""
        payload = {
            "grid": {"n": 1, "points": 128},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
            "params": {"eps": 0.5, "nu": 0.5, "hyp_floor": 0.9},
            "scheme": "imex",
            "horizon": 3.0,
            "energies": {"e_m_orders": [1, 0], "half_m": 2},
        }
        out = tmp_path / "res"
        assert main(["simulate", "--config", _write_config(tmp_path, "floor.json", payload), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "simulate" / "verdict.json").read_text())["cause"] == "hyperbolicity_breakdown"
        (report,) = read_reports_csv(out / "simulate" / "reports.csv")
        assert report.t == 0.0 and [order for order, _ in report.e_m] == [0, 1]
        assert all(math.isnan(value) for _, value in report.e_m) and math.isnan(report.e_half_m)

    def test_klainerman_run(self, tmp_path, capsys) -> None:
        payload = {
            "grid": {"n": 1, "points": 128, "lengths": [12.566370614359172], "origin_centered": True},
            "preset": {"kind": "zero_velocity_gaussian", "width": 0.4, "amplitude": 0.01},
            "params": {"eps": 0.05},
            "horizon": 1.0,
            "report_every": 16,
        }
        cfg = _write_config(tmp_path, "klai.json", payload)
        out = tmp_path / "res"
        assert main(["klainerman", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "klainerman" / "verdict.json").read_text())
        assert verdict["max_ratio"] > 0
        assert len(verdict["times"]) >= 2
        assert len(verdict["ratios"]) == len(verdict["support_radii"]) == len(verdict["times"])

    def test_klainerman_support_limit_is_the_configured_fraction(self, tmp_path, capsys) -> None:
        """A bump of radius 17.5 on a side of 40 fits the limit 0.49 * 40 = 19.6
        that the run monitors, though not the default fraction's 16."""
        payload = {
            "grid": {"n": 1, "points": 128, "lengths": 40.0, "origin_centered": True},
            "preset": {"kind": "zero_velocity_gaussian", "width": 2.9},
            "klainerman": {"support_fraction": 0.49},
            "horizon": 0.5,
        }
        cfg = _write_config(tmp_path, "wide.json", payload)
        out = tmp_path / "res"
        assert main(["klainerman", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "klainerman" / "verdict.json").read_text())
        assert verdict["cause"] == "horizon_reached"
        assert verdict["times"] == [0.0, 0.5]
        assert verdict["support_radii"] == [17.5, 19.375]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "stability"])
    def test_wide_gaussian_runs_without_a_support_monitor(self, tmp_path, capsys, command) -> None:
        """A bump of radius 3.14 on the 2 pi box: only klainerman limits a support."""
        cfg = _write_config(tmp_path, "wide.json", _WIDE_GAUSSIAN)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        capsys.readouterr()

    def test_klainerman_data_past_the_limit_end_at_t0(self, tmp_path, capsys) -> None:
        """The support monitor is the only check of the support: at the default
        fraction the bump of radius 3.14 passes the limit 0.4 * 2 pi at t = 0."""
        payload = {
            "grid": {"n": 1, "points": 64, "origin_centered": True},
            "preset": {"kind": "zero_velocity_gaussian", "width": 2.0},
            "horizon": 0.5,
        }
        cfg = _write_config(tmp_path, "wide.json", payload)
        out = tmp_path / "res"
        assert main(["klainerman", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "run failed: klainerman ended by support_wraparound at t = 0 " in err
        verdict = json.loads((out / "klainerman" / "verdict.json").read_text())
        assert verdict["cause"] == "support_wraparound"
        assert verdict["times"] == [0.0]
        assert verdict["support_radii"][0] >= experiments.DEFAULT_SUPPORT_FRACTION * 2.0 * math.pi

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_klainerman_order_is_checked_against_the_dimension(self, tmp_path, capsys, n, m) -> None:
        """The ratio at m needs words of length m + n//2 + 1, and the sweep
        evaluates words up to length 2: within that a run exits 0, beyond it
        klainerman.m is a config error (exit 2), not a traceback."""
        cfg = _write_config(tmp_path, "klai.json", _klainerman_at(n, m))
        code = main(["klainerman", "--config", cfg, "--out", str(tmp_path / "res")])
        if m + n // 2 + 1 <= 2:
            assert code == 0
        else:
            assert code == 2
            assert "config error: klainerman.m: " in capsys.readouterr().err

    def test_wave_kind_decay_is_a_control(self, tmp_path, capsys) -> None:
        """The wave kind is undamped whatever nu is (nu_eff = 0), so its decay
        run withdraws the threshold and the monotonicity claim."""
        payload = {
            "model": "wave",
            "grid": {"n": 1, "points": 64},
            "params": {"nu": 1.0, "eps": 0.5},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
            "scheme": "imex",
            "horizon": 4.0,
            "decay": {"m": 2},
        }
        cfg = _write_config(tmp_path, "wave.json", payload)
        out = tmp_path / "res"
        assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "decay" / "verdict.json").read_text())
        assert verdict["monotone_ok"] is None
        assert verdict["threshold_value"] is None  # infinite, written as null

    def test_wave_kind_klainerman_is_inviscid(self, tmp_path, capsys) -> None:
        """nu > 0 leaves the wave kind undamped: its Klainerman run is
        inviscid and passes the guard."""
        payload = {
            "model": "wave",
            "grid": {"n": 1, "points": 128, "lengths": 40.0, "origin_centered": True},
            "params": {"nu": 1.0},
            "preset": {"kind": "zero_velocity_gaussian", "width": 1.25, "amplitude": 0.01},
            "horizon": 0.5,
        }
        cfg = _write_config(tmp_path, "wave.json", payload)
        assert main(["klainerman", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        assert capsys.readouterr().err == ""

    def test_linreg_run(self, tmp_path, capsys) -> None:
        payload = {
            "params": {"nu": 0.5, "eps": 0.2},
            "grid": {"n": 1, "points": 64},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
            "horizon": 1.0,
            "linreg": {"forcing_amplitude": 0.5, "forcing_mode": [1], "forcing_omega": 1.0},
        }
        cfg = _write_config(tmp_path, "linreg.json", payload)
        out = tmp_path / "res"
        assert main(["linreg", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "linreg" / "verdict.json").read_text())
        assert verdict["worst_margin"] >= -verdict["tol"]
        assert verdict["holds"] is True
        for series in ("lhs", "rhs", "margins"):
            assert len(verdict[series]) == len(verdict["times"])

    def test_linreg_writes_the_solver_result(self, tmp_path, capsys) -> None:
        """The subcommand's series are solve_linear_forced's on the config's data,
        forcing, horizon and stepping, and the run ends at the horizon."""
        payload = {
            "params": {"nu": 0.5, "eps": 0.2},
            "grid": {"n": 1, "points": 32},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
            "horizon": 1.0,
            "dt": 0.05,
            "report_every": 4,
            "linreg": {"forcing_amplitude": 0.5, "forcing_mode": [1], "forcing_omega": 1.0},
        }
        path = _write_config(tmp_path, "linreg.json", payload)
        out = tmp_path / "res"
        assert main(["linreg", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads((out / "linreg" / "verdict.json").read_text())
        cfg = parse_config(json.dumps(payload))
        direct = solve_linear_forced(
            *initial_data(cfg), linreg_forcing(cfg), cfg.horizon, cfg.params,
            dt=cfg.dt, cfl=cfg.cfl, report_every=cfg.report_every,
        )
        assert verdict["times"] == list(direct.times)
        assert verdict["lhs"] == list(direct.lhs)
        assert verdict["rhs"] == list(direct.rhs)
        assert verdict["margins"] == list(direct.margins)
        assert verdict["holds"] is direct.holds(cfg.linreg.tol) is True
        assert verdict["times"][-1] == cfg.horizon

    def test_linreg_steps_at_the_configured_cfl(self, tmp_path, capsys) -> None:
        """linreg takes the CFL step of the config's cfl, as every other
        subcommand does: its records fall on that step's multiples."""
        series = {}
        for cfl in (0.1, 0.4):
            path = _write_config(tmp_path, f"cfl{cfl}.json", {**_LINREG, "cfl": cfl})
            out = tmp_path / f"res{cfl}"
            assert main(["linreg", "--config", path, "--out", str(out)]) == 0
            capsys.readouterr()
            verdict = json.loads((out / "linreg" / "verdict.json").read_text())
            steps = math.ceil(_LINREG["horizon"] / cfl_dt(Grid.cube(1, 64), 1.0, cfl) - 1e-12)
            dt = _LINREG["horizon"] / steps
            recorded = [k for k in range(1, steps + 1) if k % 10 == 0 or k == steps]
            assert verdict["times"] == [0.0] + [k * dt for k in recorded]
            series[cfl] = [verdict[key] for key in ("times", "lhs", "rhs", "margins")]
        assert series[0.1] != series[0.4]

    def test_linreg_failed_inequality_writes_then_exits_4(self, tmp_path, capsys) -> None:
        """An inequality that fails beyond linreg.tol is the run's verdict,
        holds false, and the command exits 4 after writing its directory."""
        path = _write_config(tmp_path, "unresolved.json", _UNRESOLVED_LINREG)
        out = tmp_path / "res"
        assert main(["linreg", "--config", path, "--out", str(out)]) == 4
        assert "run failed: linreg ended with lhs > rhs * (1 + 0.01) -> " in capsys.readouterr().err
        verdict = json.loads((out / "linreg" / "verdict.json").read_text())
        assert verdict["holds"] is False
        assert verdict["worst_margin"] < -verdict["tol"]
        assert verdict["times"][-1] == 0.3
        assert verdict["lhs"][-1] > verdict["rhs"][-1] * 1.01

    def test_horizon_override_applies(self, tmp_path, capsys) -> None:
        cfg = _write_config(tmp_path, "sim.json", _FAST_SIM)
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--horizon", "0.25"]) == 0
        capsys.readouterr()
        reparsed = parse_config((out / "simulate" / "config.json").read_text())
        assert reparsed.horizon == 0.25
        reports = read_reports_csv(out / "simulate" / "reports.csv")
        assert reports[-1].t == pytest.approx(0.25, abs=1e-12)


_TINY = {
    "grid": {"n": 1, "points": 64},
    "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.01},
    "horizon": 0.5,
}

# One tiny run per subcommand: its config and its summary line.
_RUNS = [
    ("simulate", _TINY, "3 reports, cause = horizon_reached"),
    ("sweep", {**_TINY, "sweep": {"eps_list": [0.2, 0.1]}}, "2 points, slope = none"),
    (
        "stability",
        {**_TINY, "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.05}},
        "c2 = 0.0000, envelope_ok = True",
    ),
    (
        "decay",
        {**_TINY, "params": {"nu": 1.0}, "scheme": "imex", "decay": {"m": 2}},
        "monotone_ok = True, bound_ok = True",
    ),
    (
        "klainerman",
        {
            "grid": _KLAINERMAN_GRID,
            "preset": {"kind": "zero_velocity_gaussian", "width": 0.4, "amplitude": 0.01},
            "params": {"eps": 0.05},
            "horizon": 1.0,
            "report_every": 16,
        },
        "max ratio = 0.2112",
    ),
    ("linreg", {**_TINY, "params": {"nu": 0.5, "eps": 0.2}}, "worst margin = 0"),
]

_NOISE = {**_TINY, "stability": {"perturbation": "noise"}}


_SUBCOMMANDS = ("simulate", "sweep", "stability", "decay", "klainerman", "linreg", "check-thresholds")


class TestOneWriter:
    @pytest.mark.parametrize("command, payload, summary", _RUNS, ids=[run[0] for run in _RUNS])
    def test_run_subcommands_share_one_layout(
        self, tmp_path, monkeypatch, capsys, command, payload, summary
    ) -> None:
        """Each run prints one summary line and writes exactly the four common
        files, byte for byte the same on a second run."""
        written = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            cfg = _write_config(tmp_path / run, "cfg.json", payload)
            assert main([command, "--config", cfg, "--out", "res"]) == 0
            assert capsys.readouterr() == (f"{command}: {summary} -> {Path('res', command)}\n", "")
            written.append({p.name: p.read_bytes() for p in (tmp_path / run / "res" / command).iterdir()})
        assert set(written[0]) == {"config.json", "reports.csv", "telemetry.json", "verdict.json"}
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "command, payload, flags, key",
        [
            ("simulate", _TINY, ["--horizon", "0"], "horizon"),
            ("simulate", _TINY, ["--horizon", "-1"], "horizon"),
            ("simulate", _TINY, ["--horizon", "nan"], "horizon"),
            ("simulate", _TINY, ["--horizon", "inf"], "horizon"),
            ("stability", _NOISE, ["--seed", "-3"], "seed"),
            ("stability", {**_NOISE, "seed": -1}, [], "seed"),
            ("simulate", {**_TINY, "horizon": math.inf}, [], "horizon"),
            ("simulate", {**_TINY, "horizon": math.nan}, [], "horizon"),
            ("simulate", {**_TINY, "horizon": 10**400}, [], "horizon"),
            ("simulate", {**_TINY, "dt": math.nan}, [], "dt"),
            ("simulate", {**_TINY, "params": {"eps": -math.inf}}, [], "params.eps"),
            ("simulate", {"grid": {"n": 1, "points": 64, "lengths": [math.inf]}}, [], "grid.lengths[0]"),
            ("sweep", {**_TINY, "sweep": {"tail_threshold": math.nan}}, [], "sweep.tail_threshold"),
        ],
    )
    def test_bad_numbers_and_overrides_exit_2(self, tmp_path, capsys, command, payload, flags, key) -> None:
        """Non-finite numbers, a negative seed and out-of-range overrides are
        config errors naming the key; nothing is written."""
        cfg = _write_config(tmp_path, "bad.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_experiment_key_is_unknown(self, tmp_path, capsys, command) -> None:
        """The subcommand names the run: a config that still names an
        experiment is a config error, and nothing is written."""
        cfg = _write_config(tmp_path, "named.json", {**_TINY, "experiment": "simulate"})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: experiment: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [("simulate", _TINY), ("linreg", {**_TINY, "params": {"nu": 0.5, "eps": 0.2}})],
        ids=["simulate", "linreg"],
    )
    def test_telemetry_counts_the_run(self, tmp_path, monkeypatch, capsys, command, payload) -> None:
        """telemetry.json holds the transforms count_ffts counts over the same
        main call and one stepper call per step, ceil(horizon / dt), as many
        as the run planned, and stays out of the verdict."""
        cfg = _write_config(tmp_path, "cfg.json", payload)
        counts = count_ffts(monkeypatch)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        monkeypatch.undo()
        directory = tmp_path / "res" / command
        telemetry = json.loads((directory / "telemetry.json").read_text())
        steps = math.ceil(_TINY["horizon"] / cfl_dt(Grid.cube(1, 64), PhysicalParams().c))
        assert telemetry == {
            "forward_transforms": counts["forward"],
            "inverse_transforms": counts["inverse"],
            "stepper_calls": steps,
            "planned_steps": steps,
        }
        # linreg steps on spectra and keeps no final state, so it inverts nothing.
        assert counts["forward"] > 0 and (counts["inverse"] == 0) == (command == "linreg")
        verdict = json.loads((directory / "verdict.json").read_text())
        assert not set(telemetry) & set(verdict)

    def test_telemetry_plans_the_run(self, tmp_path, capsys) -> None:
        """planned_steps is the count the step rule gave the run: a sweep whose
        members all break down takes fewer steps, a decay run to its horizon all."""
        runs = (
            ("sweep", {**_BREAKING, "sweep": {"eps_list": [0.9, 0.2]}}),
            ("decay", {**_TINY, "params": {"nu": 0.5}, "scheme": "imex"}),
        )
        for command, payload in runs:
            cfg = _write_config(tmp_path, f"{command}.json", payload)
            assert main([command, "--config", cfg, "--out", str(tmp_path / "res")]) == 0
            telemetry = json.loads((tmp_path / "res" / command / "telemetry.json").read_text())
            grid = Grid.cube(1, payload["grid"]["points"])
            planned = math.ceil(payload["horizon"] / cfl_dt(grid, PhysicalParams().c) - 1e-12)
            assert telemetry["planned_steps"] == planned
            taken = telemetry["stepper_calls"]
            assert taken < planned if command == "sweep" else taken == planned

    def test_written_json_is_strict(self, tmp_path, capsys) -> None:
        """verdict.json, telemetry.json and thresholds.json parse as strict JSON,
        with null where a value is not finite: the towers of a decay run on
        data at the floor, and the sup-norm guard of a model without alpha."""

        def refuse(token: str) -> None:
            raise ValueError(f"non-standard JSON constant {token}")

        floor = {
            "grid": {"n": 1, "points": 128},
            "preset": {"kind": "sine_mode", "mode": [1], "amplitude": 0.5},
            "params": {"eps": 0.5, "nu": 0.5, "hyp_floor": 0.9},
            "scheme": "imex",
            "horizon": 3.0,
        }
        out = tmp_path / "res"
        assert main(["decay", "--config", _write_config(tmp_path, "floor.json", floor), "--out", str(out)]) == 4
        verdict = json.loads((out / "decay" / "verdict.json").read_text(), parse_constant=refuse)
        assert verdict["e_half_bound"] is None and verdict["sqrt_e_half_initial"] is None
        assert verdict["e_theorem"] == [None] and verdict["threshold_value"] > 0.0
        json.loads((out / "decay" / "telemetry.json").read_text(), parse_constant=refuse)
        wave = {"model": "damped_wave", "grid": {"n": 1, "points": 64}, "params": {"nu": 0.5}}
        assert main(["check-thresholds", "--config", _write_config(tmp_path, "wave.json", wave), "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads((out / "thresholds.json").read_text(), parse_constant=refuse)
        assert data["sup-norm guard 1/(2 alpha eps)"] is None and data["B"] == 10.0

    def test_decay_telemetry_steps_on_spectra(self, tmp_path, monkeypatch, capsys) -> None:
        """A 3-d IMEX decay run's telemetry reads, per step, 2 forward and 1
        inverse transform fewer than a step that round-trips its update through
        physical space (6 forward, 4n+6 inverse): the update's spectra go to
        the end-of-step evaluation as they are, and u is not formed."""
        n = 3
        payload = {
            "grid": {"n": n, "points": 8},
            "preset": {"kind": "sine_mode", "mode": [1, 1, 1], "amplitude": 0.001},
            "params": {"nu": 1.0, "eps": 0.1},
            "scheme": "imex",
            "horizon": 1.5,
            "report_every": 2,
            "decay": {"m": 2},
        }
        cfg = _write_config(tmp_path, "decay3.json", payload)
        counts = count_ffts(monkeypatch)
        in_steps = dict.fromkeys(counts, 0)
        real_advance = experiments._advance

        def advance(*args):
            before = dict(counts)
            out = real_advance(*args)
            for key in counts:
                in_steps[key] += counts[key] - before[key]
            return out

        monkeypatch.setattr(experiments, "_advance", advance)
        assert main(["decay", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        telemetry = json.loads((tmp_path / "res" / "decay" / "telemetry.json").read_text())
        steps = telemetry["stepper_calls"]
        round_trip = {"forward": 6, "inverse": 4 * n + 6}
        assert steps == 5
        for key, fewer in (("forward", 2), ("inverse", 1)):
            outside = counts[key] - in_steps[key]
            assert telemetry[f"{key}_transforms"] == outside + steps * (round_trip[key] - fewer)

    def test_overrides_pass_the_schema(self) -> None:
        with pytest.raises(ConfigError, match="must be finite") as info:
            with_overrides(RunConfig(), horizon=math.nan)
        assert info.value.path == "horizon"


# At most this many steps per run in the fuzz gate: a tiny cfl on a tiny box
# asks for millions of steps (4.8e6 for cfl = 1e-3 on a 16 x 8 grid of side
# 1e-3), a run that is slow, not wrong.
_FUZZ_STEPS = 32


def _capped(data: dict) -> dict:
    """data with at most 16 points per axis, and a horizon of at most 0.3 and
    at most _FUZZ_STEPS steps of the smaller of dt and the CFL step."""
    grid = dict(data["grid"])
    points = grid["points"]
    grid["points"] = [min(p, 16) for p in points] if isinstance(points, list) else min(points, 16)
    data = {**data, "grid": grid, "horizon": min(data["horizon"], 0.3)}
    try:
        cfg = parse_config(json.dumps(data))
    except ConfigError:  # every subcommand exits 2 before it steps
        return data
    step = min(cfl_dt(cfg.grid, cfg.params.c, cfg.cfl), cfg.dt or math.inf)
    return {**data, "horizon": min(cfg.horizon, _FUZZ_STEPS * step)}


# Centred Klainerman configs whose ratio needs words longer than the sweep
# evaluates (m + n//2 + 1 > 2). The gate always runs them: every drawn
# klainerman.m stays within that cap.
_KLAINERMAN_DRAWS = [_klainerman_at(n, m) for n, m in ((1, 2), (2, 1), (3, 2))]


class TestNoTraceback:
    def test_every_subcommand_ends_in_an_exit_code(self) -> None:
        """A config every section accepts ends each subcommand in exit 0, 2,
        3 or 4, never in a traceback; exits 0 and 4 leave the result file.
        About a quarter of the draws each are shaped to run klainerman and
        linreg, and over the draws each of the two exits 0 at least once."""
        codes: dict[str, set[int]] = {command: set() for command in _SUBCOMMANDS}

        @given(data=st.sampled_from([None, None, "klainerman", "linreg"]).flatmap(
            lambda command: _configs() if command is None else _runnable_configs(command)
        ))
        @example(data=_KLAINERMAN_DRAWS[0])
        @example(data=_KLAINERMAN_DRAWS[1])
        @example(data=_KLAINERMAN_DRAWS[2])
        @example(data=_UNRESOLVED_LINREG)
        @settings(max_examples=100, deadline=None, derandomize=True)
        def every_subcommand(data) -> None:
            data = _capped(data)
            with tempfile.TemporaryDirectory() as tmp:
                cfg = _write_config(Path(tmp), "cfg.json", data)
                for command in _SUBCOMMANDS:
                    out = Path(tmp, command)
                    code = main([command, "--config", cfg, "--out", str(out)])
                    assert code in (0, 2, 3, 4), command
                    codes[command].add(code)
                    if code in (0, 4):
                        result = "thresholds.json" if command == "check-thresholds" else f"{command}/verdict.json"
                        assert (out / result).is_file(), command

        every_subcommand()
        assert 0 in codes["klainerman"] and 0 in codes["linreg"], codes
