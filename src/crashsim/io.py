"""CSV and JSON readers/writers for the batch front end.

All files are headered CSV with unit-suffixed column names; values are
written with 12 significant digits so write-then-read is an identity at that
precision. Every CSV goes through one writer, which renders BLOCK_ROWS rows
per ``%`` of a repeated row template and streams each block to the file, so
no more than one block's text is held in memory. Writes are atomic (temp
file in the target directory, then rename). Peaks files store m/s² in a
``peak_ms2`` column; a ``peak_g`` column (1 g = 9.80665 m/s²) is accepted on
read and written when requested. Labels holding a comma, a quote or a line
break are quoted as the csv module quotes them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .energy import EnergyBreakdown
from .errors import ConfigurationError, DomainError
from .identify import PeakObservation, StaticDeflectionSample

G_UNIT = 9.80665  # conversion for the optional peak_g column

PEAKS_COLUMNS = ("altitude_cm", "peak_ms2", "label")
PEAKS_COLUMNS_G = ("altitude_cm", "peak_g", "label")
STATICS_COLUMNS = ("force_n", "deflection_m")
TRAJECTORY_COLUMNS = ("t_s", "x_m", "v_ms", "a_ms2", "a_filtered_ms2")
ENERGY_COLUMNS = ("altitude_m", "e_spring_j", "e_damper_j", "e_collision_j",
                  "frac_spring", "frac_damper", "frac_collision")


# the one 12-significant-digit float format; "%.12g" % x and format(x, ".12g")
# render the same digits
_FLOAT = "%.12g"
BLOCK_ROWS = 4096  # rows rendered per `%` call: bounds the text held in memory


def fmt(value: float) -> str:
    return _FLOAT % float(value)


@contextmanager
def _atomic_open(path: Path):
    """A text handle on a temp file next to `path`, renamed over `path` when
    the block exits cleanly and removed when it raises."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _quote(field: str) -> str:
    """The csv module's minimal quoting: a field holding a comma, a quote or
    a line break is quoted, with its quotes doubled."""
    if any(ch in field for ch in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_csv(path: Path, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Atomically write a headered CSV of equal-length columns: float columns
    at 12 significant digits, object columns (already quoted text) as is."""
    template = ",".join("%s" if c.dtype == object else _FLOAT for c in columns) + "\n"
    with _atomic_open(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
            handle.write(template * len(block) % tuple(block.ravel().tolist()))


def write_peaks_csv(path: Path, observations: list[PeakObservation],
                    unit: str = "ms2") -> None:
    if unit == "ms2":
        header = PEAKS_COLUMNS
        scale = 1.0
    elif unit == "g":
        header = PEAKS_COLUMNS_G
        scale = 1.0 / G_UNIT
    else:
        raise ConfigurationError(f"unknown peak unit {unit!r} (expected 'ms2' or 'g')")
    _write_csv(path, header, [
        np.array([o.drop_altitude for o in observations]) * 100.0,
        np.array([o.measured_peak for o in observations]) * scale,
        np.array([_quote(o.label) for o in observations], dtype=object),
    ])


def _read_rows(path: Path, expected_any: list[tuple[str, ...]]):
    """Return (header, [(line_number, row), ...]) after validating the header
    against the accepted column sets. A row's line number is the file line
    on which its record starts; a quoted line break makes a record span
    lines."""
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ConfigurationError(f"{path}: file is empty (missing header)") from None
        if header not in expected_any:
            wanted = " or ".join(",".join(cols) for cols in expected_any)
            raise ConfigurationError(
                f"{path}: unexpected header {','.join(header)!r} (expected {wanted})"
            )
        rows = []
        line_no = reader.line_num + 1
        for row in reader:
            if row:
                rows.append((line_no, row))
            line_no = reader.line_num + 1
    return header, rows


def _parse_float(path: Path, line_no: int, name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{path}:{line_no}: bad {name} value {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{path}:{line_no}: non-finite {name} value {raw!r}")
    return value


def read_peaks_csv(path: Path) -> list[PeakObservation]:
    """Parse drop observations; altitude_cm converts to meters, peak_g
    converts to m/s². Malformed rows report the file line number."""
    header, rows = _read_rows(path, [PEAKS_COLUMNS, PEAKS_COLUMNS_G])
    scale = G_UNIT if header == PEAKS_COLUMNS_G else 1.0
    observations = []
    for line_no, row in rows:
        if len(row) != 3:
            raise ConfigurationError(
                f"{path}:{line_no}: expected 3 fields, got {len(row)}"
            )
        altitude_cm = _parse_float(path, line_no, "altitude", row[0])
        peak = _parse_float(path, line_no, "peak", row[1]) * scale
        try:
            observations.append(
                PeakObservation(drop_altitude=altitude_cm / 100.0,
                                measured_peak=peak, label=row[2])
            )
        except DomainError as exc:
            raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
    if not observations:
        raise DomainError(f"{path}: no data rows")
    return observations


def write_statics_csv(path: Path, samples: list[StaticDeflectionSample]) -> None:
    _write_csv(path, STATICS_COLUMNS, [np.array([s.force for s in samples]),
                                       np.array([s.deflection for s in samples])])


def read_statics_csv(path: Path) -> list[StaticDeflectionSample]:
    _, rows = _read_rows(path, [STATICS_COLUMNS])
    samples = []
    for line_no, row in rows:
        if len(row) != 2:
            raise ConfigurationError(
                f"{path}:{line_no}: expected 2 fields, got {len(row)}"
            )
        force = _parse_float(path, line_no, "force", row[0])
        deflection = _parse_float(path, line_no, "deflection", row[1])
        try:
            samples.append(StaticDeflectionSample(force=force, deflection=deflection))
        except DomainError as exc:
            raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
    if not samples:
        raise DomainError(f"{path}: no data rows")
    return samples


def write_trajectory_csv(path: Path, traj: Trajectory,
                         filtered: np.ndarray) -> None:
    _write_csv(path, TRAJECTORY_COLUMNS, [traj.time, traj.compression, traj.velocity,
                                          traj.acceleration, np.asarray(filtered)])


def write_energy_csv(path: Path,
                     curve: list[tuple[float, EnergyBreakdown]]) -> None:
    rows = [(h, eb.spring, eb.damper, eb.collision,
             eb.frac_spring, eb.frac_damper, eb.frac_collision) for h, eb in curve]
    _write_csv(path, ENERGY_COLUMNS,
               list(np.array(rows, dtype=float).reshape(-1, len(ENERGY_COLUMNS)).T))
