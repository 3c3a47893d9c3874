"""Tests for the on-disk formats: the report table and experiment directories.

The report table is checked for exact round-tripping (bit-level for float64
payloads, including NaN columns) and header rejection, and the experiment
directory for its layout.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kuzlab import EnergyReport, ModelKind, PhysicalParams
from kuzlab.io import (
    jsonable,
    read_reports_csv,
    report_columns,
    write_experiment_dir,
    write_reports_csv,
)


def _assert_reports_equal(got, expected) -> None:
    """Field-by-field equality with NaN == NaN (bit-exact otherwise)."""
    import dataclasses

    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for f in dataclasses.fields(EnergyReport):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), f.name
            else:
                assert va == vb, f.name


def _sample_reports() -> list[EnergyReport]:
    return [
        EnergyReport(
            t=0.0, e_wave=1.5, e_nonl=1.4999, f_nu=1.5,
            e_m=((0, 2.5), (2, 7.25)), e_half_m=3.125, s_half_m=0.5,
            min_hyp=1.0, div_accum=0.0,
        ),
        EnergyReport(
            t=0.125, e_wave=1.25, e_nonl=1.2499, f_nu=1.5,
            e_m=((0, 2.25), (2, 7.0)), e_half_m=3.0, s_half_m=0.4,
            min_hyp=0.975, div_accum=0.33333333333333331,
        ),
    ]


class TestReportTables:
    def test_columns_are_base_plus_sorted_orders(self) -> None:
        columns = report_columns(_sample_reports())
        assert columns[:4] == ["t", "e_wave", "e_nonl", "f_nu"]
        assert "e_m_0" in columns and "e_m_2" in columns
        assert columns.index("e_m_0") < columns.index("e_m_2")
        assert columns == [
            "t", "e_wave", "e_nonl", "f_nu", "e_m_0", "e_m_2", "e_half_m", "s_half_m",
            "e_1m", "e_inf_m", "min_hyp", "div_accum", "support_radius",
        ]
        assert report_columns([])[4] == "e_half_m"

    def test_csv_round_trip_exact(self, tmp_path) -> None:
        reports = _sample_reports()
        path = write_reports_csv(tmp_path / "reports.csv", reports)
        loaded = read_reports_csv(path)
        _assert_reports_equal(loaded, reports)

    def test_csv_preserves_nan_columns(self, tmp_path) -> None:
        reports = _sample_reports()
        assert math.isnan(reports[0].e_1m)
        loaded = read_reports_csv(write_reports_csv(tmp_path / "r.csv", reports))
        assert math.isnan(loaded[0].e_1m)
        assert math.isnan(loaded[0].support_radius)

    def test_csv_header_required(self, tmp_path) -> None:
        path = tmp_path / "bogus.csv"
        path.write_text("t,e_wave\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_reports_csv(path)

    def test_empty_report_list_round_trips(self, tmp_path) -> None:
        path = write_reports_csv(tmp_path / "empty.csv", [])
        assert read_reports_csv(path) == ()


class TestJsonable:
    def test_dataclass_enum_array_conversion(self) -> None:
        p = PhysicalParams(alpha=1.0, beta=2.0)
        out = jsonable({"p": p, "kind": ModelKind.WESTERVELT, "arr": np.array([1.0, 2.0])})
        assert out["p"]["alpha"] == 1.0
        assert out["kind"] == "westervelt"
        assert out["arr"] == [1.0, 2.0]
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable((1, 2)) == [1, 2]


class TestExperimentDir:
    def test_layout_and_readability(self, tmp_path) -> None:
        reports = _sample_reports()
        verdict = {"cause": "horizon_reached", "t_star": None}
        out = write_experiment_dir(
            tmp_path,
            "demo-run",
            '{"model": "wave"}\n',
            reports,
            verdict,
        )
        assert out == tmp_path / "demo-run"
        assert {path.name for path in out.iterdir()} == {"config.json", "reports.csv", "verdict.json"}
        assert (out / "config.json").read_text() == '{"model": "wave"}\n'
        _assert_reports_equal(read_reports_csv(out / "reports.csv"), reports)
        import json

        assert json.loads((out / "verdict.json").read_text()) == verdict
