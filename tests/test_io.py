import csv
import dataclasses
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsim import (
    ConfigurationError,
    DomainError,
    DropScenario,
    PeakObservation,
    StaticDeflectionSample,
    filtered_series,
    simulate_contact,
)
from crashsim import io
from crashsim.dynamics import Termination, Trajectory
from crashsim.energy import energy_distribution_curve


def render_rows(header, rows) -> str:
    """Oracle: the one-value-at-a-time rendering the block writer replaced."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".12g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def assert_same_text(text: str, expected: str) -> None:
    """Report only the first differing line: a diff of two 100 000-line texts
    takes minutes."""
    got, want = text.split("\n"), expected.split("\n")
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        assert line == wanted, f"line {number}"
    assert len(got) == len(want)


def make_trajectory(columns) -> Trajectory:
    t, x, v, a = columns[:4]
    return Trajectory(t, x, v, a, np.zeros(len(t)), Termination.REBOUND, 1.0, 1.0, 9.81)


class TestPeaksCsv:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "peaks.csv"
        original = [
            PeakObservation(0.5, 597.826679763, "a"),
            PeakObservation(1.0, 845.454598470, "b"),
            PeakObservation(1.2345678, 1234.56789012, "c"),
        ]
        io.write_peaks_csv(path, original)
        parsed = io.read_peaks_csv(path)
        assert len(parsed) == 3
        for before, after in zip(original, parsed):
            assert after.drop_altitude == pytest.approx(before.drop_altitude, rel=1e-11)
            assert after.measured_peak == pytest.approx(before.measured_peak, rel=1e-11)
            assert after.label == before.label

    def test_g_unit_round_trip(self, tmp_path):
        path = tmp_path / "peaks_g.csv"
        original = [PeakObservation(1.0, 845.454598470, "x")]
        io.write_peaks_csv(path, original, unit="g")
        header = path.read_text().splitlines()[0]
        assert header == "altitude_cm,peak_g,label"
        parsed = io.read_peaks_csv(path)
        assert parsed[0].measured_peak == pytest.approx(845.454598470, rel=1e-11)

    def test_unknown_unit_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            io.write_peaks_csv(tmp_path / "x.csv", [], unit="furlongs")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        # the quoted label spans file lines 2 and 3, so `oops` is on line 4
        for text, line in [("50,597.8,ok\n100,not_a_number,bad\n", ":3:"),
                           ('50,597.8,"two\nlines"\n100,oops,bad\n', ":4:")]:
            path.write_text("altitude_cm,peak_ms2,label\n" + text)
            with pytest.raises(ConfigurationError, match=line):
                io.read_peaks_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("altitude_cm,peak_ms2,label\n50,597.8\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            io.read_peaks_csv(path)

    def test_invalid_domain_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("altitude_cm,peak_ms2,label\n-50,597.8,neg\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            io.read_peaks_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alt,peak\n1,2\n")
        with pytest.raises(ConfigurationError, match="header"):
            io.read_peaks_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            io.read_peaks_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "no_rows.csv"
        path.write_text("altitude_cm,peak_ms2,label\n")
        with pytest.raises(DomainError):
            io.read_peaks_csv(path)

    @pytest.mark.parametrize("label", ["", "a", "a b", " a", "run 3, cam B", 'say "hi"', '"',
                                       "a\rb", "a\nb", "a\tb", "a'b"])
    def test_labels_quoted_as_the_csv_module_quotes(self, tmp_path, label):
        path = tmp_path / "peaks.csv"
        io.write_peaks_csv(path, [PeakObservation(0.5, 100.0, label)])
        with open(path, newline="") as handle:
            written = handle.read().split("\n", 1)[1]
        with open(tmp_path / "oracle.csv", "w", newline="") as handle:
            csv.writer(handle).writerow(["50", "100", label])  # ends rows with \r\n
        with open(tmp_path / "oracle.csv", newline="") as handle:
            assert written == handle.read().removesuffix("\r\n") + "\n"
        assert io.read_peaks_csv(path)[0].label == label


class TestCsvRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(1e-4, 1e3), st.floats(1e-3, 1e6),
                                   st.text('abcxyz_019 ,"', max_size=8)),
                         min_size=1, max_size=20),
           unit=st.sampled_from(["ms2", "g"]))
    def test_peaks_identity_at_12_digits(self, rows, unit):
        observations = [PeakObservation(h, peak, label) for h, peak, label in rows]
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            io.write_peaks_csv(first, observations, unit=unit)
            parsed = io.read_peaks_csv(first)
            io.write_peaks_csv(second, parsed, unit=unit)
            assert second.read_text() == first.read_text()
        for before, after in zip(observations, parsed, strict=True):
            assert after.drop_altitude == pytest.approx(before.drop_altitude, rel=1e-11)
            assert after.measured_peak == pytest.approx(before.measured_peak, rel=1e-11)
            assert after.label == before.label

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1.0)),
                         min_size=1, max_size=20))
    def test_statics_identity_at_12_digits(self, rows):
        samples = [StaticDeflectionSample(f, x) for f, x in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "statics.csv"
            io.write_statics_csv(path, samples)
            parsed = io.read_statics_csv(path)
        for before, after in zip(samples, parsed, strict=True):
            assert after.force == float(io.fmt(before.force))
            assert after.deflection == float(io.fmt(before.deflection))


class TestStaticsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "statics.csv"
        original = [StaticDeflectionSample(7040.0 * x, x) for x in (0.001, 0.004, 0.009)]
        io.write_statics_csv(path, original)
        parsed = io.read_statics_csv(path)
        for before, after in zip(original, parsed):
            assert after.force == pytest.approx(before.force, rel=1e-11)
            assert after.deflection == pytest.approx(before.deflection, rel=1e-11)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("force_n,deflection_m\n10,0.001\noops,0.002\n")
        with pytest.raises(ConfigurationError, match=r":3:"):
            io.read_statics_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("force_n,deflection_m\n10,0.001,3\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            io.read_statics_csv(path)

    def test_invalid_domain_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("force_n,deflection_m\n-10,0.001\n")
        with pytest.raises(ConfigurationError, match=r":2:"):
            io.read_statics_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "no_rows.csv"
        path.write_text("force_n,deflection_m\n")
        with pytest.raises(DomainError):
            io.read_statics_csv(path)


class TestTrajectoryAndEnergyCsv:
    def test_trajectory_columns_and_rows(self, tmp_path, reference_params):
        scenario = DropScenario(0.5)
        traj = simulate_contact(reference_params, scenario)
        filtered = filtered_series(traj, scenario.sensor_cutoff)
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(path, traj, filtered)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,x_m,v_ms,a_ms2,a_filtered_ms2"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(traj.impact_velocity, rel=1e-11)

    def test_energy_columns(self, tmp_path, reference_params):
        curve = energy_distribution_curve(reference_params, DropScenario(0.0),
                                          [0.5, 20.0])
        path = tmp_path / "energy.csv"
        io.write_energy_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == ("altitude_m,e_spring_j,e_damper_j,e_collision_j,"
                            "frac_spring,frac_damper,frac_collision")
        assert len(lines) == 3
        last = lines[2].split(",")
        assert float(last[3]) > 0.0  # 20 m drop carries collision energy


class TestBlockWriter:
    """The block writer renders byte for byte what one `format(v, ".12g")`
    per value rendered."""

    @pytest.mark.parametrize("rows", [1, io.BLOCK_ROWS - 1, io.BLOCK_ROWS,
                                      io.BLOCK_ROWS + 1])
    def test_identity_at_block_edges(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
                   for _ in range(5)]
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(path, make_trajectory(columns), columns[4])
        assert_same_text(path.read_text(), render_rows(io.TRAJECTORY_COLUMNS, zip(*columns)))

    def test_identity_on_a_100_khz_horizon_trajectory(self, tmp_path, reference_params):
        params = dataclasses.replace(reference_params, damping=150.0)
        scenario = DropScenario(0.2, sample_rate=100_000.0)
        traj = simulate_contact(params, scenario)
        assert len(traj) == 100_001
        filtered = filtered_series(traj, scenario.sensor_cutoff)
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(path, traj, filtered)
        columns = (traj.time, traj.compression, traj.velocity, traj.acceleration, filtered)
        assert_same_text(path.read_text(), render_rows(io.TRAJECTORY_COLUMNS, zip(*columns)))

    def test_identity_on_edge_values(self, tmp_path):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-300,
                         123456789012.5, 0.1, math.inf, -math.inf, math.nan])
        columns = [edge, edge[::-1].copy(), np.roll(edge, 3), np.roll(edge, 5), -edge]
        path = tmp_path / "trajectory.csv"
        io.write_trajectory_csv(path, make_trajectory(columns), columns[4])
        assert_same_text(path.read_text(), render_rows(io.TRAJECTORY_COLUMNS, zip(*columns)))
        for value in edge:
            assert io.fmt(value) == format(float(value), ".12g")

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trajectory.csv"
        path.write_text("previous contents\n")
        rows = 2 * io.BLOCK_ROWS
        columns = [np.arange(rows, dtype=float)] * 5
        real_fdopen = os.fdopen
        written = []

        def fdopen_failing_after_first_block(*args, **kwargs):
            handle = real_fdopen(*args, **kwargs)
            real_write = handle.write

            def write(text):
                if len(written) == 2:  # the header and one block are out
                    handle.flush()
                    assert any(p.suffix == ".tmp" for p in tmp_path.iterdir())
                    raise OSError("disk full")
                written.append(text)
                return real_write(text)

            handle.write = write
            return handle

        monkeypatch.setattr(os, "fdopen", fdopen_failing_after_first_block)
        with pytest.raises(OSError, match="disk full"):
            io.write_trajectory_csv(path, make_trajectory(columns), columns[4])
        assert written[1].count("\n") == io.BLOCK_ROWS
        assert path.read_bytes() == b"previous contents\n"
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWrite:
    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        io.atomic_write_text(path, "new contents")
        assert path.read_text() == "new contents"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_fmt_uses_12_significant_digits(self):
        assert io.fmt(np.pi) == "3.14159265359"
        assert io.fmt(1.0) == "1"
