"""Stable on-disk formats: the energy report table and experiment directories.

The energy report CSV is versioned: first line the comment
``# kuzlab-energy-report v1``, then a standard CSV header and rows. The
columns are ``EnergyReport``'s fields in order, with ``e_m`` expanded in
place as one ``e_m_<order>`` column per tower order in the run; a non-finite
value is written as ``nan`` or ``inf``, which ``float`` reads back.
``read_reports_csv`` reads the file back exactly.

Experiment results live one directory per experiment containing
``config.json``, ``reports.csv`` and ``verdict.json``. The verdict is strict
JSON with null for a non-finite value, and it carries each of the run's
series once, as lists.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .energies import EnergyReport

REPORT_FORMAT = "kuzlab-energy-report"
FORMAT_VERSION = 1

_SCALAR_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyReport) if f.name != "e_m")


def report_columns(reports: Sequence[EnergyReport]) -> list[str]:
    """EnergyReport's fields in order, with e_m expanded in place as e_m_<order>."""
    orders = sorted({order for r in reports for order, _ in r.e_m})
    columns: list[str] = []
    for f in dataclasses.fields(EnergyReport):
        if f.name == "e_m":
            columns.extend(f"e_m_{order}" for order in orders)
        else:
            columns.append(f.name)
    return columns


def _report_row(report: EnergyReport, columns: Sequence[str]) -> list[float]:
    values = {name: getattr(report, name) for name in _SCALAR_REPORT_FIELDS}
    values.update((f"e_m_{order}", value) for order, value in report.e_m)
    return [values.get(col, math.nan) for col in columns]


def _report_from_row(columns: Sequence[str], row: Sequence[float]) -> EnergyReport:
    values = dict(zip(columns, row))
    e_m = tuple(
        (int(col.removeprefix("e_m_")), values[col])
        for col in columns
        if col.startswith("e_m_")
    )
    return EnergyReport(e_m=e_m, **{name: values[name] for name in _SCALAR_REPORT_FIELDS})


def write_reports_csv(path: str | Path, reports: Sequence[EnergyReport]) -> Path:
    """Write the versioned energy-report CSV with one fixed column set."""
    path = Path(path)
    columns = report_columns(reports)
    with path.open("w", newline="") as fh:
        fh.write(f"# {REPORT_FORMAT} v{FORMAT_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for report in reports:
            writer.writerow(f"{v!r}" for v in _report_row(report, columns))
    return path


def read_reports_csv(path: str | Path) -> tuple[EnergyReport, ...]:
    path = Path(path)
    with path.open(newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith(f"# {REPORT_FORMAT} "):
            raise ValueError(f"{path}: missing {REPORT_FORMAT} header comment")
        reader = csv.reader(fh)
        columns = next(reader)
        reports = tuple(
            _report_from_row(columns, [float(cell) for cell in row])
            for row in reader
            if row
        )
    return reports


def jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses, enums and arrays to JSON values, non-finite floats to None."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return obj.item()
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps_strict(obj: Any) -> str:
    """obj as indented strict JSON, non-finite floats as null, with a newline."""
    return json.dumps(jsonable(obj), indent=2, allow_nan=False) + "\n"


def write_experiment_dir(
    root: str | Path,
    name: str,
    config_text: str,
    reports: Sequence[EnergyReport],
    verdict: Any,
) -> Path:
    """Materialize the stable results layout for one experiment.

    Creates ``<root>/<name>/`` holding ``config.json`` (the full provenance
    config), ``reports.csv`` and ``verdict.json``.
    """
    directory = Path(root) / name
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(config_text)
    write_reports_csv(directory / "reports.csv", reports)
    (directory / "verdict.json").write_text(dumps_strict(verdict))
    return directory
