"""CSV and JSON readers/writers for the batch front end.

All files are headered CSV with unit-suffixed column names; values are
written with 12 significant digits so write-then-read is an identity at that
precision. Every CSV goes through one writer, which renders BLOCK_ROWS rows
at a time and streams each block to the file, so no more than one block's
text is held in memory. A block of RENDER_MIN_ROWS or more rows of floats
(a long trajectory) is rendered by `_render.render_floats`, a numpy
renderer that gives the bytes `"%.12g" %` gives; a shorter block, or one
holding labels, goes through one `%` of a repeated row template. Writes are
atomic (temp file in the target directory, created with the mode `open`
would give, then renamed). Peaks files store m/s² in a ``peak_ms2`` column;
a ``peak_g`` column (1 g = 9.80665 m/s²) is accepted on read and written
when requested. Labels holding a comma, a quote or a line break are quoted
as the csv module quotes them.
"""

from __future__ import annotations

import csv
import json
import math
import os
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
# rows rendered at a time: bounds the text and arrays held in memory; of
# 512-4096 rows, 1024 writes a 100 kHz trace fastest
BLOCK_ROWS = 1024
# render_floats costs ~0.1 ms a block whatever its size, `%` ~0.4 us a
# value. On 5 float columns they break even at 64-128 rows (median CPU
# time: 10 rows 0.12 ms against 0.02 ms, 64 rows 0.16 against 0.13 ms,
# 128 rows 0.22-0.24 against 0.24-0.28 ms, 1024 rows 0.9-1.6 against
# 2.1-2.4 ms; 2 CPUs, Python 3.11, numpy 2.4), so shorter blocks keep `%`
RENDER_MIN_ROWS = 128


def fmt(value: float) -> str:
    return _FLOAT % float(value)


@contextmanager
def _atomic_open(path: Path):
    """A text handle on a temp file next to `path`, renamed over `path` when
    the block exits cleanly and removed when it raises. The temp file gets
    the mode `open(path, "w")` gives a new file, 0o666 less the umask."""
    path = Path(path)
    # a str, not a Path: pathlib interns each part, and a fresh name per
    # write raised peak RSS ~0.6 MB over 3 200 `energy` ops
    tmp_name = os.path.join(path.parent, f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    floats = all(c.dtype == np.float64 for c in columns)
    with _atomic_open(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
            if floats and len(block) >= RENDER_MIN_ROWS:
                # imported here: runs that write only short CSVs (fit, energy)
                # skip the ~1 MB of peak memory its compile and tables take
                from ._render import render_floats
                handle.write(render_floats(block))
            else:
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


def _read_records(path: Path, headers: list[tuple[str, ...]],
                  fields: tuple[str | None, ...], record) -> list:
    """One record per non-empty row of a headered CSV.

    The header must be one of `headers`. Each row holds one field per entry
    of `fields`: a named field is parsed as a finite float, a None field is
    kept as text. `record(header, *values)` builds the record; errors name
    the file line on which the row's record starts (a quoted line break
    makes a record span lines), and a DomainError from `record` becomes a
    ConfigurationError there. A file with no data rows raises DomainError.
    """
    path = Path(path)
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ConfigurationError(f"{path}: file is empty (missing header)") from None
        if header not in headers:
            wanted = " or ".join(",".join(cols) for cols in headers)
            raise ConfigurationError(
                f"{path}: unexpected header {','.join(header)!r} (expected {wanted})"
            )
        line_no = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(fields):
                    raise ConfigurationError(
                        f"{path}:{line_no}: expected {len(fields)} fields, got {len(row)}"
                    )
                values = [raw if name is None else _parse_float(path, line_no, name, raw)
                          for name, raw in zip(fields, row)]
                try:
                    records.append(record(header, *values))
                except DomainError as exc:
                    raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
            line_no = reader.line_num + 1
    if not records:
        raise DomainError(f"{path}: no data rows")
    return records


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
    def observation(header, altitude_cm, peak, label):
        scale = G_UNIT if header == PEAKS_COLUMNS_G else 1.0
        return PeakObservation(drop_altitude=altitude_cm / 100.0,
                               measured_peak=peak * scale, label=label)

    return _read_records(path, [PEAKS_COLUMNS, PEAKS_COLUMNS_G],
                         ("altitude", "peak", None), observation)


def write_statics_csv(path: Path, samples: list[StaticDeflectionSample]) -> None:
    _write_csv(path, STATICS_COLUMNS, [np.array([s.force for s in samples]),
                                       np.array([s.deflection for s in samples])])


def read_statics_csv(path: Path) -> list[StaticDeflectionSample]:
    return _read_records(
        path, [STATICS_COLUMNS], ("force", "deflection"),
        lambda _, force, deflection: StaticDeflectionSample(force=force,
                                                             deflection=deflection))


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
