import csv
import inspect
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crashsim import STANDARD_GRAVITY, DropScenario, cli, identify, io
from crashsim._kernels import STOP_SLACK
from crashsim.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def default_of(function, name):
    return inspect.signature(function).parameters[name].default


def run_child(*args):
    """`python -m crashsim` in a child process, so a search that never ends
    fails its test at the timeout instead of hanging the suite."""
    return subprocess.run([sys.executable, "-m", "crashsim", *map(str, args)],
                          capture_output=True, text=True, timeout=60)


class TestSimulate:
    def test_rebound_regime(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "100") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"] == "rebound"
        assert summary["x_max"] < 0.016
        assert set(summary) == {"impact_velocity", "raw_peak", "proper_peak",
                                "filtered_peak", "termination", "x_max"}
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t_s,x_m,v_ms,a_ms2,a_filtered_ms2"
        assert len(lines) > 100

    def test_collision_regime(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "2000") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"] == "collision"

    def test_zero_altitude_reads_one_g(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "0") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["raw_peak"] == pytest.approx(9.81)
        assert summary["impact_velocity"] == 0.0
        assert summary["x_max"] == 0.0
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 2

    def test_ceiling_drop_impact_velocity(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "262") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["impact_velocity"] == pytest.approx(7.17, abs=0.01)

    def test_invalid_params_exit_2_without_files(self, tmp_path):
        out = tmp_path / "sub"
        assert run_cli("--out-dir", out, "simulate", "--altitude-cm", "100",
                       "--mass", "-1") == 2
        assert not (out / "summary.json").exists()

    def test_numerical_blowup_exit_3(self, tmp_path):
        # omega*dt ~ 1e75 far exceeds pi: events could fall between steps
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "100",
                       "--mass", "1e-8", "--stiffness", "1e150", "--damping", "0",
                       "--sample-rate-hz", "1500") == 3

    def test_stiff_frame_at_low_rate_exit_3(self, tmp_path, capsys):
        # omega_n/fs ~ 3.2 > pi: a 500 us step could hold both a peak and a dip
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "50",
                       "--sample-rate-hz", "2000", "--stiffness", "1e7") == 3
        assert "sample period" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    # a 1e306 m drop crosses the 16 mm stroke within a few ulp of the 50 us
    # step, where the event solve cannot locate it: it used to end at
    # 16.077 mm; a 1e28 m drop is still located on the stroke
    @pytest.mark.parametrize("altitude_cm,code", [("1e308", 3), ("1e30", 0)])
    def test_unresolved_event_exit_3(self, tmp_path, altitude_cm, code):
        proc = run_child("--out-dir", tmp_path, "simulate", "--altitude-cm", altitude_cm)
        assert proc.returncode == code, proc.stderr
        if code == 3:
            assert "not resolved" in proc.stderr
            assert not (tmp_path / "summary.json").exists()
        else:
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["termination"] == "collision"
            assert summary["x_max"] == pytest.approx(0.016, rel=STOP_SLACK)

    def test_static_sag_past_the_stroke_exit_3(self, tmp_path):
        # x_eq = m*g/k = 3.4e15 m rounds y = x - x_eq to ~0.5 m: it used to
        # end as a collision at x = 0 with two samples at t = 0
        proc = run_child("--out-dir", tmp_path, "simulate", "--altitude-cm", "100",
                         "--gravity", "1e20")
        assert proc.returncode == 3, proc.stderr
        assert "static sag" in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "trajectory.csv").exists()

    def test_other_gravity_summary_matches_trajectory(self, tmp_path):
        g = 1.62
        assert run_cli("--out-dir", tmp_path, "simulate", "--altitude-cm", "100",
                       "--gravity", g) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        t, x, v, a, a_filtered = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                                            skiprows=1, unpack=True)
        assert summary["termination"] == "rebound"
        assert summary["impact_velocity"] == pytest.approx(math.sqrt(2.0 * g), rel=1e-14)
        assert v[0] == pytest.approx(summary["impact_velocity"], rel=1e-11)
        assert summary["x_max"] == pytest.approx(float(np.max(x)), rel=1e-11)
        assert summary["raw_peak"] == pytest.approx(float(np.max(np.abs(a))), rel=1e-11)
        proper = float(np.max(np.abs(a - g)))
        assert summary["proper_peak"] == pytest.approx(proper, rel=1e-11)
        assert proper != pytest.approx(float(np.max(np.abs(a - 9.81))), rel=1e-3)
        assert summary["filtered_peak"] == pytest.approx(float(np.max(a_filtered)), rel=1e-11)
        # the filter's warm start passes the first reading |a - g| through
        assert a_filtered[0] == pytest.approx(abs(a[0] - g), rel=1e-11)

    def test_defaults_are_the_model_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["simulate", "--altitude-cm", "100"])
        assert cli._scenario(args, args.altitude_cm / 100.0) == DropScenario(1.0)
        assert args.gravity == STANDARD_GRAVITY
        args = parser.parse_args(["energy", "--altitudes-cm", "100"])
        assert args.threshold_cap_m == default_of(cli.collision_threshold_altitude, "altitude_cap")
        args = parser.parse_args(["fit", "--peaks", "p.csv", "--stiffness", "1"])
        assert args.tolerance == default_of(cli.fit_damping, "tolerance")


class TestSynth:
    def test_noiseless_repeats_identical(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "50,100,150",
                       "--repeats", "3", "--noise", "0") == 0
        rows = (tmp_path / "peaks.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        peaks_by_altitude = {}
        for row in rows:
            altitude, peak, _ = row.split(",")
            peaks_by_altitude.setdefault(altitude, set()).add(peak)
        assert all(len(values) == 1 for values in peaks_by_altitude.values())

    def test_seeded_runs_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run_cli("--out-dir", out, "--seed", "5", "synth",
                           "--altitudes-cm", "50,150", "--repeats", "4",
                           "--noise", "0.05") == 0
        assert (a_dir / "peaks.csv").read_bytes() == (b_dir / "peaks.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli("--out-dir", a_dir, "--seed", "1", "synth",
                "--altitudes-cm", "100", "--noise", "0.05")
        run_cli("--out-dir", b_dir, "--seed", "2", "synth",
                "--altitudes-cm", "100", "--noise", "0.05")
        assert (a_dir / "peaks.csv").read_text() != (b_dir / "peaks.csv").read_text()

    def test_noise_level_matches_sample_std(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "--seed", "9", "synth",
                       "--altitudes-cm", "100", "--repeats", "1000",
                       "--noise", "0.05") == 0
        observations = io.read_peaks_csv(tmp_path / "peaks.csv")
        peaks = np.array([o.measured_peak for o in observations])
        assert 0.04 < np.std(peaks) / np.mean(peaks) < 0.06

    def test_negative_noise_exit_2(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "100",
                       "--noise", "-0.1") == 2

    def test_zero_repeats_exit_2(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "100",
                       "--repeats", "0") == 2

    def test_nonpositive_altitude_exit_2_before_simulating(self, tmp_path, capsys):
        out = tmp_path / "sub"
        for altitudes, bad in (("0,80", "0"), ("80,-5", "-5")):
            assert run_cli("--out-dir", out, "synth", "--altitudes-cm", altitudes,
                           "--write-traces") == 2
            err = capsys.readouterr().err
            assert "--altitudes-cm" in err
            assert f"got {bad} cm" in err
            assert not out.exists()

    def test_write_traces(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "50,100",
                       "--write-traces") == 0
        assert (tmp_path / "trace_50cm.csv").exists()
        assert (tmp_path / "trace_100cm.csv").exists()

    def test_close_altitudes_keep_their_own_traces_and_labels(self, tmp_path):
        # 6 significant digits would name both 123.457 cm, so one trace
        # overwrote the other and two rows shared a label
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm",
                       "123.4567,123.4568", "--repeats", "1", "--write-traces") == 0
        assert sorted(p.name for p in tmp_path.glob("trace_*.csv")) == [
            "trace_123.4567cm.csv", "trace_123.4568cm.csv"]
        labels = [o.label for o in io.read_peaks_csv(tmp_path / "peaks.csv")]
        assert labels == ["synth_h123.4567cm_r0", "synth_h123.4568cm_r0"]


class TestFit:
    def test_round_trip_recovers_damping(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "50,100,150",
                       "--repeats", "5", "--noise", "0", "--damping", "46") == 0
        assert run_cli("--out-dir", tmp_path, "fit",
                       "--peaks", tmp_path / "peaks.csv", "--stiffness", "7040") == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["damping"] == pytest.approx(46.0, abs=0.5)
        assert result["stiffness_source"] == "supplied"
        assert result["peak_convention"] == "filtered"
        assert result["n_observations"] == 15

    def test_statics_file_measures_stiffness(self, tmp_path):
        statics = tmp_path / "statics.csv"
        statics.write_text("force_n,deflection_m\n7.04,0.001\n35.2,0.005\n70.4,0.01\n")
        run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "100",
                "--repeats", "2")
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--statics", statics) == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["stiffness"] == pytest.approx(7040.0, rel=1e-9)
        assert result["stiffness_source"] == "measured"

    def test_g_unit_round_trip(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "--unit", "g", "synth",
                       "--altitudes-cm", "50,100,150", "--repeats", "3") == 0
        header = (tmp_path / "peaks.csv").read_text().splitlines()[0]
        assert header == "altitude_cm,peak_g,label"
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--stiffness", "7040") == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["damping"] == pytest.approx(46.0, abs=0.5)

    def test_malformed_row_exit_2_names_line(self, tmp_path, capsys):
        peaks = tmp_path / "peaks.csv"
        peaks.write_text("altitude_cm,peak_ms2,label\n50,597.8,ok\n100,oops,x\n")
        assert run_cli("fit", "--peaks", peaks, "--stiffness", "7040") == 2
        assert ":3:" in capsys.readouterr().err

    def test_invalid_params_exit_2_without_files(self, tmp_path, capsys):
        (tmp_path / "peaks.csv").write_text("altitude_cm,peak_ms2,label\n100,500,a\n")
        out = tmp_path / "sub"
        for flag, value, message in [("--mass", "-1", "mass must be > 0"),
                                     ("--gravity", "nan", "gravity must be finite")]:
            assert run_cli("--out-dir", out, "fit", "--peaks", tmp_path / "peaks.csv",
                           "--stiffness", "7040", flag, value) == 2
            assert message in capsys.readouterr().err
            assert not (out / "fit.json").exists()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert run_cli("fit", "--peaks", tmp_path / "absent.csv",
                       "--stiffness", "7040") == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_explicit_bracket(self, tmp_path):
        run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "100",
                "--repeats", "2")
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--stiffness", "7040", "--c-low", "30", "--c-high", "60") == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["bracket"] == [30.0, 60.0]


    def test_narrow_bracket_result_inside(self, tmp_path):
        run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "100",
                "--repeats", "2")
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--stiffness", "7040", "--c-high", "0.0005") == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert 0.0 <= result["damping"] <= 0.0005

    def test_tolerance_below_float_spacing_returns(self, tmp_path):
        # 5e-15 N·s/m is under the float spacing of the refined cell near 46
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "50,100,150",
                       "--repeats", "5", "--damping", "46") == 0
        proc = run_child("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                         "--stiffness", "7040", "--tolerance", "5e-15")
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "fit.json").read_text())
        low, high = result["bracket"]
        assert low <= result["damping"] <= high

    def test_numerical_blowup_exit_3(self, tmp_path):
        (tmp_path / "peaks.csv").write_text("altitude_cm,peak_ms2,label\n100,500,a\n")
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--mass", "1e-8", "--stiffness", "1e150",
                       "--sample-rate-hz", "1500") == 3

    @pytest.mark.parametrize("c_high", ["1e8", "1e300"])
    def test_wide_bracket_finds_damping(self, tmp_path, c_high):
        # the grid starts at most 1e-3*c_crit above c_low however wide the
        # bracket, and a loss past the float range ranks last as inf
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "50,100,150",
                       "--repeats", "5", "--damping", "46") == 0
        proc = run_child("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                         "--stiffness", "7040", "--c-high", c_high)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["damping"] == pytest.approx(46.0, abs=0.01)
        assert result["at_boundary"] is False

    def test_nan_loss_exit_3(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "peaks.csv").write_text("altitude_cm,peak_ms2,label\n100,500,a\n")

        def nan_peaks(params, scenario, dampings, altitudes, use_raw_peak=False):
            return np.full((len(dampings), len(altitudes)), math.nan), None

        monkeypatch.setattr(identify, "drop_peaks", nan_peaks)
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--stiffness", "7040") == 3
        assert "loss is NaN" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_stroke_margins_per_altitude(self, tmp_path):
        # criterion 2's gap at the fitted damping: the 1.5 m drop overshoots
        # the 16 mm stroke by 0.57 mm
        assert run_cli("--out-dir", tmp_path, "synth", "--altitudes-cm", "150,50,100,50",
                       "--repeats", "2", "--damping", "46") == 0
        assert run_cli("--out-dir", tmp_path, "fit", "--peaks", tmp_path / "peaks.csv",
                       "--stiffness", "7040") == 0
        margins = json.loads((tmp_path / "fit.json").read_text())["stroke_margins"]
        assert [set(row) for row in margins] == [{"altitude_m", "stroke_margin_m"}] * 3
        assert [row["altitude_m"] for row in margins] == [0.5, 1.0, 1.5]
        assert [round(row["stroke_margin_m"] * 1000.0, 2) for row in margins] == [
            6.37, 2.44, -0.57]


class TestExtremeDamping:
    # alpha*alpha overflows past alpha ~1.3e154: the factored discriminant
    # keeps such a frame finite, and a rate c/m past the float range is refused
    @pytest.mark.parametrize("command", [("simulate", "--altitude-cm", "100"),
                                         ("energy", "--altitudes-cm", "100")])
    def test_huge_damping_finite_or_exit_3(self, tmp_path, command):
        proc = run_child("--out-dir", tmp_path, *command, "--damping", "1e300")
        assert "Warning" not in proc.stderr
        assert proc.returncode in (0, 3), proc.stderr
        if proc.returncode == 0:
            for path in tmp_path.glob("*.json"):
                report = json.loads(path.read_text())
                rows = report.get("altitudes", [report])
                assert all(math.isfinite(value) for row in rows for value in row.values()
                           if isinstance(value, float))

    @pytest.mark.parametrize("command", [("simulate", "--altitude-cm", "100"),
                                         ("energy", "--altitudes-cm", "0,100")])
    def test_overflowing_damping_rate_exit_3(self, tmp_path, command):
        proc = run_child("--out-dir", tmp_path, *command, "--damping", "1e300",
                         "--mass", "1e-10", "--stiffness", "1e-3")
        assert proc.returncode == 3, proc.stderr
        assert "overflow" in proc.stderr and "Warning" not in proc.stderr


class TestEnergy:
    def test_reference_curve(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy",
                       "--altitudes-cm", "50,100,500,2000") == 0
        lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        # no collision share at 50 and 100 cm
        assert float(rows[0][6]) == 0.0
        assert float(rows[1][6]) == 0.0
        # the 20 m row still stores+dissipates over 30% of the budget
        assert float(rows[3][4]) + float(rows[3][5]) > 0.30

        report = json.loads((tmp_path / "energy.json").read_text())
        assert report["collision_threshold_altitude_m"] == pytest.approx(1.398, abs=0.01)
        assert len(report["altitudes"]) == 4
        assert "damper_paper_rule_j" in report["altitudes"][0]
        assert "damper_closed_rule_j" not in report["altitudes"][0]

    def test_zero_altitude_row(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "0") == 0
        row = (tmp_path / "energy.csv").read_text().splitlines()[1].split(",")
        assert all(float(value) == 0.0 for value in row)

    def test_huge_clearance_threshold_null(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "100",
                       "--clearance-mm", "1000", "--threshold-cap-m", "50") == 0
        report = json.loads((tmp_path / "energy.json").read_text())
        assert report["collision_threshold_altitude_m"] is None

    def test_threshold_bisection_below_float_spacing_returns(self, tmp_path):
        # with a 1e6 m stroke the threshold lies near 5.6e15 m, where the
        # float spacing (1 m) exceeds the 1 mm bisection tolerance
        proc = run_child("--out-dir", tmp_path, "energy", "--altitudes-cm", "100",
                         "--threshold-cap-m", "1e30", "--clearance-mm", "1e9")
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "energy.json").read_text())
        assert math.isfinite(report["collision_threshold_altitude_m"])

    def test_nonpositive_threshold_cap_exit_2(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "100",
                       "--threshold-cap-m", "0") == 2

    def test_threshold_cap_without_finite_impact_velocity_exit_2(self, tmp_path, capsys):
        # sqrt(2*g*h) overflows for a 1e308 m cap; refused before any drop
        out = tmp_path / "out"
        assert run_cli("--out-dir", out, "energy", "--altitudes-cm", "100",
                       "--threshold-cap-m", "1e308") == 2
        assert "altitude_cap" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_report_stroke_margin(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "150,2000") == 0
        rows = json.loads((tmp_path / "energy.json").read_text())["altitudes"]
        assert [round(row["stroke_margin_m"] * 1000.0, 2) for row in rows] == [-0.57, -44.13]
        header = (tmp_path / "energy.csv").read_text().splitlines()[0]
        assert "margin" not in header

    def test_bad_altitude_list_exit_2(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "50,oops") == 2


class TestEntryPoint:
    def test_module_help(self):
        proc = run_child("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "synth" in proc.stdout


def output_files(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


class TestSharedParser:
    """main parses through one parser per process: no call may leave state
    in it that changes a later call."""

    def test_sequence_matches_fresh_interpreters(self, tmp_path, capsys):
        statics = tmp_path / "statics.csv"
        statics.write_text("force_n,deflection_m\n7.04,0.001\n35.2,0.005\n70.4,0.01\n")
        peaks = tmp_path / "in-process" / "2" / "peaks.csv"
        sequence = [
            ("simulate", "--altitude-cm", "100"),
            ("energy", "--altitudes-cm", "50,100,150"),
            ("--seed", "3", "synth", "--altitudes-cm", "50,100", "--repeats", "2",
             "--noise", "0.05", "--write-traces"),
            ("fit", "--peaks", peaks, "--stiffness", "7040"),
            ("--unit", "g", "fit", "--peaks", peaks, "--statics", statics, "--raw-peaks"),
            ("simulate", "--altitude-cm", "2000", "--damping", "20", "--sample-rate-hz", "5000",
             "--max-time", "0.5"),
        ]
        for i, argv in enumerate(sequence):
            shared, fresh = tmp_path / "in-process" / str(i), tmp_path / "child" / str(i)
            assert run_cli("--out-dir", shared, *argv) == 0
            stdout = capsys.readouterr().out
            proc = run_child("--out-dir", fresh, *argv)
            assert proc.returncode == 0, proc.stderr
            assert stdout == proc.stdout
            assert output_files(shared) == output_files(fresh)

    def test_rejection_between_good_calls(self, tmp_path, capsys):
        good = ("simulate", "--altitude-cm", "100", "--damping", "30")
        assert run_cli("--out-dir", tmp_path / "before", *good) == 0
        with pytest.raises(SystemExit) as rejected:
            run_cli("--out-dir", tmp_path / "rejected", "simulate", "--damping", "30")
        assert rejected.value.code == 2
        message = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--damping", "30"])
        assert message == capsys.readouterr().err
        assert "--altitude-cm" in message
        assert run_cli("--out-dir", tmp_path / "after", *good) == 0
        assert not (tmp_path / "rejected").exists()
        assert output_files(tmp_path / "before") == output_files(tmp_path / "after")

    @pytest.mark.parametrize("command", [(), ("simulate",), ("fit",), ("energy",), ("synth",)])
    def test_help_matches_fresh_parser(self, command, capsys):
        texts = []
        for parse in (main, main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as done:
                parse([*command, "--help"])
            assert done.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].startswith(f"usage: {' '.join(('crashsim', *command))} ")


# extreme finite values: signed zero, the smallest subnormal and normal
# numbers, both sides of the square range (alpha**2 overflows past ~1.3e154),
# and the largest float
EXTREMES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-150, 1e150, 1e300,
            1.7976931348623157e308]
EXTREMES += [-value for value in EXTREMES]
INT_EXTREMES = [-2**63, -1, 0, 1, 2**31, 2**63 - 1]
SCENARIO = ("--mass", "--gravity", "--clearance-mm", "--cutoff-hz", "--sample-rate-hz")
NUMERIC_OPTIONS = {
    "simulate": SCENARIO + ("--damping", "--stiffness", "--altitude-cm", "--max-time"),
    "energy": SCENARIO + ("--damping", "--stiffness", "--threshold-cap-m"),
    "synth": SCENARIO + ("--damping", "--stiffness", "--noise"),
    "fit": SCENARIO + ("--c-low", "--c-high", "--tolerance"),
}


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fit_inputs")
    assert main(["--out-dir", str(base), "synth", "--altitudes-cm", "50,100,150",
                 "--repeats", "2"]) == 0
    (base / "statics.csv").write_text("force_n,deflection_m\n7.04,0.001\n35.2,0.005\n")
    return base


@st.composite
def extreme_argvs(draw, fit_inputs):
    """An argv in which up to four numeric options take an extreme finite
    value and the others keep their defaults."""
    command = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    value = st.sampled_from(EXTREMES)
    argv = []
    if draw(st.integers(0, 3)) == 0:
        argv += ["--seed", draw(st.sampled_from(INT_EXTREMES))]
    argv.append(command)
    for option in draw(st.lists(st.sampled_from(NUMERIC_OPTIONS[command]), max_size=4,
                                unique=True)):
        argv += [option, repr(draw(value))]
    if command == "simulate" and "--altitude-cm" not in argv:
        argv += ["--altitude-cm", "100"]
    if command in ("energy", "synth"):
        altitudes = draw(st.lists(value | st.just(100.0), min_size=1, max_size=3))
        argv += ["--altitudes-cm", ",".join(map(repr, altitudes))]
    if command == "synth":
        if draw(st.integers(0, 3)) == 0:
            argv += ["--repeats", draw(st.sampled_from(INT_EXTREMES))]
        if draw(st.booleans()):
            argv.append("--write-traces")
    if command == "fit":
        argv += ["--peaks", fit_inputs / "peaks.csv"]
        argv += (["--stiffness", repr(draw(value))] if draw(st.booleans())
                 else ["--statics", fit_inputs / "statics.csv"])
    if command in ("fit", "synth") and draw(st.booleans()):
        argv.append("--raw-peaks")
    return [str(arg) for arg in argv]


def numbers_in(path):
    """Every number a JSON or CSV output holds (CSV labels are skipped)."""
    if path.suffix == ".json":
        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [n for child in node for n in walk(child)]
            return [node] if isinstance(node, float) else []
        return walk(json.loads(path.read_text()))
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    numbers = []
    for cell in (cell for row in rows for cell in row):
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    return numbers


def run_checked(argv):
    """main(argv) into a fresh output directory with RuntimeWarnings raised
    as errors; returns the exit code once an exit-0 run's files are checked
    to hold only finite numbers, a simulated collision to end on its stroke
    and a trajectory's time to increase strictly."""
    argv = [str(arg) for arg in argv]
    with tempfile.TemporaryDirectory() as scratch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = Path(scratch) / "out"
        try:
            code = main(["--out-dir", str(out), *argv])
        except SystemExit as exc:
            code = exc.code
        if code == 0:
            for path in out.iterdir():
                assert all(math.isfinite(n) for n in numbers_in(path)), path.name
            summary = out / "summary.json"
            report = json.loads(summary.read_text()) if summary.exists() else {}
            if report.get("termination") == "collision":
                stroke = cli.build_parser().parse_args(argv).clearance_mm / 1000.0
                assert report["x_max"] <= stroke * (1.0 + STOP_SLACK)
            trajectory = out / "trajectory.csv"
            if trajectory.exists():
                time = np.loadtxt(trajectory, delimiter=",", skiprows=1, usecols=0, ndmin=1)
                assert np.all(np.diff(time) > 0.0), "trajectory time does not increase"
        return code


class TestExtremeOptions:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_finite_outputs(self, fit_inputs, data):
        assert run_checked(data.draw(extreme_argvs(fit_inputs))) in (0, 2, 3)

    # what the test above found: tracebacks, RuntimeWarnings, inf in the
    # output, and runs that never end (kept here with inputs that end anyway)
    @pytest.mark.parametrize("argv, code, message", [
        (("--seed", "-1", "synth", "--altitudes-cm", "100"), 2, "seed"),
        (("synth", "--altitudes-cm", "0", "--repeats", 2**63 - 1), 2, "repeats"),
        (("simulate", "--altitude-cm", "100", "--max-time", "1e300"), 2, "samples"),
        (("simulate", "--altitude-cm", "100", "--max-time", "1e300",
          "--sample-rate-hz", "1e300"), 2, "samples"),
        (("energy", "--altitudes-cm", "0", "--sample-rate-hz", "1e150"), 2, "samples"),
        (("simulate", "--altitude-cm", "100", "--mass", "1e300", "--stiffness", "1e-300"),
         2, "stiffness/mass"),
        (("simulate", "--altitude-cm", "100", "--gravity", "1e300"), 3, "scales overflow"),
        (("fit", "--stiffness", "1e-300"), 3, "scales overflow"),
        (("fit", "--stiffness", "7040", "--c-high", "5e-324"), 2, "bracket"),
        (("fit", "--stiffness", "7040", "--c-high", "1.7976931348623157e308"), 3, "overflow"),
        (("energy", "--altitudes-cm", "2.2250738585072014e-308", "--gravity", "1e150",
          "--clearance-mm", "1e150"), 3, "energy share"),
        (("energy", "--altitudes-cm", "1e150,1e6", "--gravity", "1e-300",
          "--stiffness", "2.2250738585072014e-308"), 0, None),
        (("simulate", "--altitude-cm", "2.2250738585072014e-308", "--mass", "1e6",
          "--gravity", "1e-300", "--stiffness", "1.7976931348623157e308"), 0, None),
        (("simulate", "--altitude-cm", "1e300"), 3, "not resolved"),
    ])
    def test_found_cases(self, fit_inputs, capsys, argv, code, message):
        if argv[0] == "fit":
            argv = ("fit", "--peaks", fit_inputs / "peaks.csv", *argv[1:])
        assert run_checked(argv) == code
        if message is not None:
            assert message in capsys.readouterr().err
