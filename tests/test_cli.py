import os
import subprocess
import sys
from pathlib import Path

import pytest

import junctionlab.cli as cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WORKED = ["--n0", "1e18", "--nb", "1e15", "--ld", "10"]


class TestSolve:
    def test_worked_example(self, capsys):
        code, out, _ = run(["solve", *WORKED, "--bias", "10"], capsys)
        assert code == 0
        assert "W_SC = 0.283896 um" in out
        assert "C_b = 36.4901 nF/cm^2" in out
        assert "V_bi = 0.773844 V" in out
        assert "reverse < 76.5558 V" in out

    def test_forward_bias_total_potential(self, capsys):
        code, out, _ = run(["solve", *WORKED, "--bias", "-0.3"], capsys)
        assert code == 0
        assert "total potential 0.473844 V" in out

    def test_punch_through_exit_2(self, capsys):
        code, _, err = run(["solve", *WORKED, "--bias", "100"], capsys)
        assert code == 2
        assert "76.5558" in err

    def test_byte_stable(self, capsys):
        _, out1, _ = run(["solve", *WORKED, "--bias", "10"], capsys)
        _, out2, _ = run(["solve", *WORKED, "--bias", "10"], capsys)
        assert out1 == out2

    def test_ld_from_recipe(self, capsys):
        # D_i = 2.5e-13 cm^2/s, t_d = 40000 s -> L_d = 2 um
        code, out, _ = run(["solve", "--n0", "1e18", "--nb", "1e15",
                            "--di", "2.5e-13", "--td", "40000", "--bias", "0"], capsys)
        assert code == 0

    def test_missing_ld_usage_error(self, capsys):
        code, _, err = run(["solve", "--n0", "1e18", "--nb", "1e15",
                            "--bias", "1"], capsys)
        assert code == 64

    @pytest.mark.parametrize("flags, window", [
        (["--ld", "1", "--bias", "1"], "reverse < 772.522 V"),
        (["--ld", "10", "--xj", "0.1", "--bias", "77325"], "reverse < 77328.8 V"),
    ])
    def test_deep_regime_prints_deep_window(self, flags, window, capsys):
        # the general window is invalid (first) or lower (second) here
        code, out, _ = run(["solve", "--n0", "1e18", "--nb", "1e15", *flags,
                            "--regime", "deep"], capsys)
        assert code == 0
        assert window in out

    def test_bad_flag_exit_64(self, capsys):
        try:
            code = cli.main(["solve", "--bogus"])
        except SystemExit as e:
            code = e.code
        assert code == 64


class TestSweepCmd:
    def test_sweep_matches_solve_digits(self, tmp_path, capsys):
        out_file = tmp_path / "sw.csv"
        code, out, _ = run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
                            "--steps", "11", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "v_bias_V,c_b_F_per_m2,w_sc_m"
        assert len(lines) == 12
        v, c, w = lines[-1].split(",")
        assert float(v) == 10.0
        import junctionlab as jl
        si = jl.get_material("Si")
        spec = jl.JunctionSpec(material=si,
                               profile=jl.GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))
        r = jl.solve(spec, jl.Bias(10.0, "reverse"))
        assert float(c) == r.c_b
        assert float(w) == r.w_sc

    def test_csv_round_trip_lossless(self, tmp_path, capsys):
        out_file = tmp_path / "sw.csv"
        run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
             "--steps", "11", "--out", str(out_file)], capsys)
        from junctionlab import deserialize, serialize
        data = out_file.read_bytes()
        assert serialize(deserialize(data, "csv"), "csv") == data

    def test_single_step_usage_error(self, tmp_path, capsys):
        code, _, _ = run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
                          "--steps", "1", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 64

    def test_unwritable_path_exit_73(self, capsys):
        code, _, _ = run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
                          "--steps", "3", "--out", "/nonexistent/dir/x.csv"], capsys)
        assert code == 73

    def test_json_format_feeds_fit(self, tmp_path, capsys):
        out_file = tmp_path / "sw.json"
        run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
             "--steps", "11", "--format", "json", "--out", str(out_file)], capsys)
        code, out, _ = run(["fit", "--data", str(out_file), "--nb", "1e15"], capsys)
        assert code == 0


class TestFitCmd:
    def test_round_trip_via_two_subcommands(self, tmp_path, capsys):
        out_file = tmp_path / "sw.csv"
        run(["sweep", *WORKED, "--vstart", "0", "--vstop", "20",
             "--steps", "21", "--out", str(out_file)], capsys)
        code, out, _ = run(["fit", "--data", str(out_file), "--nb", "1e15"], capsys)
        assert code == 0
        n0_line = next(l for l in out.splitlines() if l.startswith("N0"))
        ld_line = next(l for l in out.splitlines() if l.startswith("L_d"))
        n0 = float(n0_line.split("=")[1].split()[0])
        ld = float(ld_line.split("=")[1].split()[0])
        assert abs(n0 - 1e18) / 1e18 < 1e-3
        assert abs(ld - 10.0) / 10.0 < 1e-3

    def test_short_data_exit_65(self, tmp_path, capsys):
        f = tmp_path / "short.csv"
        f.write_text("v_bias_V,c_b_F_per_m2\n0.0,1e-4\n1.0,9e-5\n2.0,8e-5\n3.0,7e-5\n")
        code, _, err = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("v_bias_V,c_b_F_per_m2\n0.0,1e-4\nabc,1\n")
        code, _, err = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65
        assert "line 3" in err

    def test_unreadable_file_exit_65(self, capsys):
        code, _, _ = run(["fit", "--data", "/no/such/file.csv", "--nb", "1e15"], capsys)
        assert code == 65


class TestOracleCmd:
    def test_paper_model_agrees(self, capsys):
        code, out, _ = run(["oracle", *WORKED, "--bias", "10"], capsys)
        assert code == 0
        assert "deviation" in out

    def test_net_model_diagnostic_exit_0(self, capsys):
        code, out, _ = run(["oracle", *WORKED, "--bias", "10", "--model", "net"], capsys)
        assert code == 0

    def test_two_sided_emit_profile(self, tmp_path, capsys):
        prof = tmp_path / "prof.csv"
        code, out, _ = run(["oracle", *WORKED, "--bias", "10", "--two-sided",
                            "--emit-profile", str(prof)], capsys)
        assert code == 0
        lines = prof.read_text().splitlines()
        assert lines[0] == "x_m,E_V_per_m,u_V"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        e_max = max(abs(e) for _, e, _ in rows)
        assert abs(rows[0][1]) <= 1e-9 * e_max
        assert abs(rows[-1][1]) <= 1e-9 * e_max


class TestMaterialsCmd:
    def test_builtin_listing(self, capsys):
        code, out, _ = run(["materials"], capsys)
        assert code == 0
        for name in ("Si", "Ge", "GaAs"):
            assert name in out

    def test_user_file_adds_material(self, tmp_path, capsys):
        f = tmp_path / "mats.csv"
        f.write_text("name,eps_r,n_i_cm3,temp_K\n4H-SiC,9.7,8.2e-9,300\n")
        code, out, _ = run(["materials", "--file", str(f)], capsys)
        assert code == 0
        assert "4H-SiC" in out

    def test_invalid_eps_r_exit_65(self, tmp_path, capsys):
        f = tmp_path / "mats.csv"
        f.write_text("name,eps_r,n_i_cm3,temp_K\nbad,0.5,1e10,300\n")
        code, _, _ = run(["materials", "--file", str(f)], capsys)
        assert code == 65

    def test_env_var_material_file(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "mats.csv"
        f.write_text("name,eps_r,n_i_cm3,temp_K\nInP,12.5,1.3e7,300\n")
        monkeypatch.setenv("JUNCTIONLAB_MATERIALS", str(f))
        code, out, _ = run(["materials"], capsys)
        assert code == 0
        assert "InP" in out

    def test_unit_round_trip_echo(self, capsys):
        # cm^-3 in, cm^-3 out, no stray powers of ten
        _, out, _ = run(["materials"], capsys)
        assert "n_i = 1e+10 cm^-3" in out  # Si


class TestExitCodes:
    def test_out_of_window_sweep_exit_2(self, tmp_path, capsys):
        code, _, err = run(["sweep", *WORKED, "--vstart", "0", "--vstop", "100",
                            "--steps", "11", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "bias 80 V" in err

    def test_deep_sweep_past_general_bound(self, tmp_path, capsys):
        out_file = tmp_path / "deep.csv"
        code, _, _ = run(["sweep", *WORKED, "--xj", "0.1", "--regime", "deep",
                          "--vstart", "0", "--vstop", "77325", "--steps", "5",
                          "--out", str(out_file)], capsys)
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 6

    @pytest.mark.parametrize("flags", [["--ld", "-1"], ["--ld", "10", "--temp", "-3"],
                                       ["--di", "-1", "--td", "10"]])
    def test_invalid_junction_flag_exit_64(self, flags, capsys):
        code, _, err = run(["solve", "--n0", "1e18", "--nb", "1e15", *flags,
                            "--bias", "1"], capsys)
        assert code == 64
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--n0", "--nb", "--ld", "--xj", "--vbi",
                                      "--temp", "--bias"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_64(self, flag, value, capsys):
        argv = {"--n0": "1e18", "--nb": "1e15", "--ld": "10", "--bias": "1"}
        argv[flag] = value
        try:
            code = cli.main(["solve", *(t for kv in argv.items() for t in kv)])
        except SystemExit as e:
            code = e.code
        assert code == 64
        assert "finite" in capsys.readouterr().err

    def test_nan_row_in_curve_exit_65(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("v_bias_V,c_b_F_per_m2\n0.0,1e-4\nnan,9e-5\n2.0,8e-5\n"
                     "3.0,7e-5\n4.0,6e-5\n")
        code, _, _ = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65

    def test_json_curve_missing_key_exit_65(self, tmp_path, capsys):
        f = tmp_path / "missing.json"
        f.write_text('{"points": [{"v_bias": 0.0, "w_sc": 1e-7}], "spec": null}')
        code, _, err = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65
        assert "c_b" in err

    CURVES = {
        "bad.csv": "v_bias_V,c_b_F_per_m2\n0.0,1e-4\nabc,1\n",
        "abc.json": '{"points": [{"v_bias": "abc", "c_b": 1e-4}], "spec": null}',
        "short.csv": "v_bias_V,c_b_F_per_m2\n0.0,1e-4\n1.0,9e-5\n2.0,8e-5\n3.0,7e-5\n",
        "five.csv": "v_bias_V,c_b_F_per_m2\n0.0,1e-4\n1.0,9e-5\n2.0,8e-5\n3.0,7e-5\n"
                    "4.0,6e-5\n",
    }

    # one case per row of cli._ERROR_EXITS, via the error class named
    @pytest.mark.parametrize("argv, code, prefix", [
        (["fit", "--data", "{tmp}/bad.csv", "--nb", "1e15"], 65,
         "bad data (line 3): "),                                      # CurveFormatError
        (["fit", "--data", "{tmp}/abc.json", "--nb", "1e15"], 65,
         "bad data: non-numeric"),                                    # CurveFormatError
        (["fit", "--data", "{tmp}/short.csv", "--nb", "1e15"], 65,
         "bad data: "),                                               # InsufficientDataError
        (["fit", "--data", "{tmp}/five.csv", "--nb", "1e-30"], 65,
         "bad data: "),                                               # UnfittableDataError
        (["solve", *WORKED, "--bias", "100"], 2, "punch-through: "),  # PunchThroughError
        (["sweep", *WORKED, "--vstart", "0", "--vstop", "100", "--steps", "11",
          "--out", "{tmp}/x.csv"], 2, "punch-through: bias 80 V"),   # PunchThroughError
        (["solve", *WORKED, "--bias", "-1"], 2, "error: "),           # FlatBandError
        (["oracle", *WORKED, "--xj", "0.001", "--bias", "10", "--two-sided"], 2,
         "error: SCR reaches the surface"),                           # SurfaceReachedError
        (["fit", "--data", "{tmp}/five.csv", "--nb", "1e15", "--temp", "-3"], 64,
         "error: "),                                                  # ValueError
        (["fit", "--data", "{tmp}/five.csv", "--nb", "1e15", "--temp", "0",
          "--fit-vbi"], 64, "error: "),                               # ValueError
    ])
    def test_error_table(self, argv, code, prefix, tmp_path, capsys):
        for name, text in self.CURVES.items():
            (tmp_path / name).write_text(text)
        got, _, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
        assert got == code
        assert err.startswith(prefix)
        assert "Traceback" not in err

    def test_nan_bias_under_optimize(self):
        # python -O strips asserts, so the rejection must not rest on one
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-m", "junctionlab.cli", "solve",
                               *WORKED, "--bias", "nan"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 64
        assert "finite" in proc.stderr and "Traceback" not in proc.stderr
