import json
import math
import subprocess
import sys

import numpy as np
import pytest

from crashsim import STANDARD_GRAVITY, DropScenario, cli, io
from crashsim.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


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

    def test_defaults_are_the_model_defaults(self):
        args = cli.build_parser().parse_args(["simulate", "--altitude-cm", "100"])
        assert cli._scenario(args, args.altitude_cm / 100.0) == DropScenario(1.0)
        assert args.gravity == STANDARD_GRAVITY


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

    def test_bad_altitude_list_exit_2(self, tmp_path):
        assert run_cli("--out-dir", tmp_path, "energy", "--altitudes-cm", "50,oops") == 2


class TestEntryPoint:
    def test_module_help(self):
        proc = run_child("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "synth" in proc.stdout
