import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import junctionlab.cli as cli
from junctionlab import (Bias, GaussianProfile, JunctionSpec, Q, get_material,
                         total_potential)

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
        # the CLI's own conversion: 10 * 1e-6 is not the double nearest 1e-5
        spec = jl.JunctionSpec(material=si, profile=jl.GaussianProfile(
            n0=1e24, l_d=10 * cli.UM_TO_M, n_b=1e21))
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
        for argv in (["sweep", *WORKED, "--vstart", "0", "--vstop", "10",
                      "--steps", "3", "--out", "/nonexistent/dir/x.csv"],
                     ["oracle", *WORKED, "--bias", "10",
                      "--emit-profile", "/nonexistent/dir/p.csv"]):
            code, _, err = run(argv, capsys)
            assert code == 73
            assert err.startswith("error: cannot write /nonexistent/dir/")

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

    def test_stall_sweep_fits_vbi(self, tmp_path, capsys):
        out_file = tmp_path / "cv.csv"
        run(["sweep", "--n0", "3.8e18", "--nb", "1.1e15", "--ld", "8.3", "--vstart", "-0.4",
             "--vstop", "52", "--steps", "31", "--out", str(out_file)], capsys)
        code, out, _ = run(["fit", "--data", str(out_file), "--nb", "1.1e15", "--fit-vbi"],
                           capsys)
        assert code == 0
        assert "V_bi = 0.81082 V\n" in out

    def test_unreadable_file_exit_65(self, capsys):
        code, _, err = run(["fit", "--data", "/no/such/file.csv", "--nb", "1e15"], capsys)
        assert code == 65
        assert err.startswith("error: cannot read /no/such/file.csv: ")


# stdout of `oracle --bias 10` on the worked junction, pinned to the digit
ORACLE_PAPER = (
    "model: paper\n"
    "closed-form W_SC = 0.283896436 um\n"
    "numerical  W_SC = 0.283896436 um\n"
    "deviation = 0 um (0 relative)\n"
)
ORACLE_NET = (
    "model: net\n"
    "closed-form W_SC = 0.283896436 um\n"
    "numerical  W_SC = 1.07876599 um\n"
    "deviation = 0.79487 um (2.79986 relative)\n"
)
ORACLE_TWO_SIDED = ORACLE_PAPER + (
    "two-sided net W_SC = 5.65572945 um [24.0688292, 29.7245587] um\n"
    "two-sided vs closed-form deviation = 18.9218 relative (diagnostic)\n"
)


class TestOracleCmd:
    @pytest.mark.parametrize("flags, golden", [
        (["--model", "paper"], ORACLE_PAPER),
        (["--model", "net"], ORACLE_NET),
        (["--two-sided"], ORACLE_TWO_SIDED),
    ], ids=["paper", "net", "two-sided"])
    def test_worked_junction_golden(self, flags, golden, capsys):
        code, out, err = run(["oracle", *WORKED, "--bias", "10", *flags], capsys)
        assert (code, out, err) == (0, golden, "")

    def test_paper_model_agrees(self, capsys):
        code, out, _ = run(["oracle", *WORKED, "--bias", "10"], capsys)
        assert code == 0
        assert "deviation" in out

    def test_net_model_diagnostic_exit_0(self, capsys):
        code, out, _ = run(["oracle", *WORKED, "--bias", "10", "--model", "net"], capsys)
        assert code == 0

    def test_narrow_scr_near_flat_band(self, capsys):
        # 23 uV short of flat band W is 4.9 fm against x_j = 303 um, so
        # x_right - x_left would be a few hundred ulps of x_j: the oracle
        # solves for W itself and agrees with the closed form
        code, out, _ = run(["oracle", "--n0", "1e20", "--nb", "1e16", "--ld", "100",
                            "--bias", "-0.9524"], capsys)
        assert code == 0
        deviation = out.splitlines()[-1]
        assert float(deviation.split("(")[1].split()[0]) <= 1e-12, deviation

    def test_two_sided_reaches_the_surface_near_unit_ratio(self, capsys):
        # N0/N_B = 1.0000001: x_j is 3.2 nm and the diffused side holds
        # ~3e-14 C/m^2, where a 1.6 V region needs ~2e-4 C/m^2
        code, _, err = run(["oracle", "--n0", "1.0000001e15", "--nb", "1e15", "--ld", "10",
                            "--bias", "1", "--two-sided"], capsys)
        assert code == 2
        assert err.startswith("error: SCR reaches the surface: ")

    def test_net_model_near_flat_band(self, capsys):
        # 1.3 nV from flat band the net charge is linear in x - x_j over
        # the 11 pm region, rho = a*(x - x_j) with a = 2*q*N_B*x_j/L_d^2,
        # so W = sqrt(2*eps*V/(a*x_j))
        bias = -0.77384358
        code, out, _ = run(["oracle", *WORKED, "--bias", str(bias), "--model", "net"],
                           capsys)
        assert code == 0
        spec = JunctionSpec(material=get_material("Si"),
                            profile=GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))
        v = total_potential(spec, Bias.from_signed(bias))
        a = 2.0 * Q * 1e21 * spec.x_j / 1e-10
        w = math.sqrt(2.0 * spec.eps * v / (a * spec.x_j))
        line = out.splitlines()[2]
        assert line.startswith("numerical  W_SC = ")
        assert abs(float(line.split()[3]) * 1e-6 - w) <= 1e-6 * w

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

    def test_blank_row_skipped(self, tmp_path, capsys):
        f = tmp_path / "mats.csv"
        f.write_text("name,eps_r,n_i_cm3,temp_K\n\nInP,12.5,1.3e7,300\n\n")
        code, out, _ = run(["materials", "--file", str(f)], capsys)
        assert code == 0
        assert "InP" in out

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read material file "),
        (b"name,eps_r\nInP,12.5\n", ":1: bad header"),
        (b"name,eps_r,n_i_cm3,temp_K\nInP,12.5,1.3e7\n", ":2: wrong column count"),
        (b"name,eps_r,n_i_cm3,temp_K\nIn\xff,12.5,1.3e7,300\n", "cannot read material file "),
    ], ids=["missing", "bad-header", "column-count", "not-utf8"])
    def test_bad_material_file_exit_65(self, content, message, tmp_path, capsys):
        f = tmp_path / "mats.csv"
        if content is not None:
            f.write_bytes(content)
        code, _, err = run(["materials", "--file", str(f)], capsys)
        assert code == 65
        assert err.startswith("error: ") and message in err

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

    def test_oracle_deviation_exit_4(self, capsys):
        # the shallow closed form drops -x_j, which the paper-model oracle keeps
        code, out, _ = run(["oracle", *WORKED, "--bias", "10", "--regime", "shallow"], capsys)
        assert code == 4
        assert "(0.989" in out

    def test_deep_sweep_past_general_bound(self, tmp_path, capsys):
        out_file = tmp_path / "deep.csv"
        code, _, _ = run(["sweep", *WORKED, "--xj", "0.1", "--regime", "deep",
                          "--vstart", "0", "--vstop", "77325", "--steps", "5",
                          "--out", str(out_file)], capsys)
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 6

    @pytest.mark.parametrize("flags", [["--ld", "-1"], ["--ld", "10", "--temp", "-3"],
                                       ["--di", "-1", "--td", "10"], ["--ld", "1e300"],
                                       ["--ld", "1e160"], ["--ld", "1e-200"],
                                       ["--ld", "10", "--material", "Unobtainium"]])
    def test_invalid_junction_flag_exit_64(self, flags, capsys):
        code, _, err = run(["solve", "--n0", "1e18", "--nb", "1e15", *flags,
                            "--bias", "1"], capsys)
        assert code == 64
        assert "Traceback" not in err

    def test_diffusion_length_overflow_exit_64(self, capsys):
        code, out, err = run(["solve", "--n0", "1e18", "--nb", "1e15", "--di", "1e204",
                              "--td", "1e200", "--bias", "1"], capsys)
        assert code == 64
        assert out == ""
        assert err == ("error: diffusion length 2*sqrt(d_i*t_d) is outside the float range "
                       "for d_i = 1e+200 m^2/s, t_d = 1e+200 s\n")

    @pytest.mark.parametrize("flag", ["--n0", "--nb", "--ld", "--xj", "--vbi",
                                      "--temp", "--bias"])
    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_flag_exit_64(self, flag, value, capsys):
        argv = {"--n0": "1e18", "--nb": "1e15", "--ld": "10", "--bias": "1"}
        argv[flag] = value
        try:
            code = cli.main(["solve", *(t for kv in argv.items() for t in kv)])
        except SystemExit as e:
            code = e.code
        assert code == 64
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spaced, joined", [
        (["solve", *WORKED, "--bias", "-1e-3"], ["solve", *WORKED, "--bias=-1e-3"]),
        (["solve", *WORKED, "--bias", "-1E-1"], ["solve", *WORKED, "--bias=-1E-1"]),
        (["sweep", *WORKED, "--vstart", "-3e-1", "--vstop", "1", "--steps", "3",
          "--out", "{tmp}/x.csv"],
         ["sweep", *WORKED, "--vstart=-3e-1", "--vstop", "1", "--steps", "3",
          "--out", "{tmp}/x.csv"]),
    ])
    def test_negative_value_in_scientific_notation(self, spaced, joined, tmp_path, capsys):
        # argparse before Python 3.13 took "-1e-3" for an option, not a
        # value, and exited 64; it must read as "--bias=-1e-3" does
        outcomes = []
        for argv in (spaced, joined):
            code, out, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
            written = (tmp_path / "x.csv").read_bytes() if argv[0] == "sweep" else b""
            outcomes.append((code, out, err, written))
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]

    def test_negative_infinite_value_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", *WORKED, "--bias", "-inf"])
        assert exc.value.code == 64
        assert "argument --bias: expected one argument" in capsys.readouterr().err

    def test_fit_whose_residuals_overflow_exit_65(self, tmp_path, capsys):
        # at 1e-300 K V_bi is ~2.6e-303 V and the residual at 0 V
        # overflows, so the fit's normal equations are never definite
        curve = str(tmp_path / "c.csv")
        assert run(["sweep", *WORKED, "--vstart", "0", "--vstop", "10", "--steps", "21",
                    "--out", curve], capsys)[0] == 0
        code, out, err = run(["fit", "--data", curve, "--nb", "1e15", "--temp", "1e-300"],
                             capsys)
        assert (code, out, err) == (65, "", "bad data: no valid model anywhere the fit "
                                            "searched\n")

    def test_nan_row_in_curve_exit_65(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("v_bias_V,c_b_F_per_m2\n0.0,1e-4\nnan,9e-5\n2.0,8e-5\n"
                     "3.0,7e-5\n4.0,6e-5\n")
        code, _, _ = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65

    def test_non_positive_width_in_curve_exit_65(self, tmp_path, capsys):
        f = tmp_path / "negative.csv"
        f.write_text("v_bias_V,c_b_F_per_m2,w_sc_m\n0.0,1e-3,-5.0\n")
        code, out, err = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert (code, out) == (65, "")
        assert "width must be finite and positive, got -5 at 0 V" in err

    @pytest.mark.parametrize("name", ["bad.csv", "bad.json"])
    def test_non_utf8_curve_exit_65(self, name, tmp_path, capsys):
        f = tmp_path / name
        f.write_bytes(b"v_bias_V,c_b_F_per_m2\n0.0,1e-4\n\xff\n")
        code, _, err = run(["fit", "--data", str(f), "--nb", "1e15"], capsys)
        assert code == 65
        assert err.startswith("bad data: not UTF-8: ")

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
        "big.json": json.dumps({"points": [{"v_bias": 10 ** 400 + k, "c_b": 1e-4}
                                           for k in range(5)], "spec": None}),
        "deep.json": "[" * 100_000,
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
        (["fit", "--data", "{tmp}/big.json", "--nb", "1e15"], 65,
         "bad data: number too large"),                               # CurveFormatError
        (["fit", "--data", "{tmp}/five.csv", "--nb", "0"], 64,
         "error: background N_B must be finite and positive"),        # ValueError
        (["fit", "--data", "{tmp}/five.csv", "--nb=-1e15"], 64,
         "error: background N_B must be finite and positive"),        # ValueError
        (["fit", "--data", "{tmp}/deep.json", "--nb", "1e15"], 65,
         "bad data: invalid JSON: "),                                 # CurveFormatError
        (["oracle", "--n0", "1e18", "--nb", "1e15", "--ld", "1e12", "--bias", "1",
          "--two-sided"], 2, "error: integral over [2.62826e+06, 2.62826e+06] not "
         "resolved in 200 panels"),                                   # ArithmeticError
        (["oracle", *WORKED, "--bias", "1", "--two-sided", "--xj", "28"], 2,
         "error: rho does not change sign at x_j"),                   # ArithmeticError
    ])
    def test_error_table(self, argv, code, prefix, tmp_path, capsys):
        for name, text in self.CURVES.items():
            (tmp_path / name).write_text(text)
        got, _, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
        assert got == code
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--bias", "1"],
        ["solve", "--bias", "1", "--regime", "shallow"],
        ["sweep", "--vstart", "0", "--vstop", "1", "--steps", "3", "--out", "{tmp}/x.csv"],
        ["sweep", "--vstart", "0", "--vstop", "1", "--steps", "3", "--out", "{tmp}/x.csv",
         "--regime", "shallow"],
        ["oracle", "--bias", "1"],
        ["oracle", "--bias", "1", "--regime", "shallow"],
    ])
    def test_junction_square_past_the_float_range_exit_2(self, argv, tmp_path, capsys):
        # x_j/L_d = 1e299, whose square overflows; exp(-(x_j/L_d)^2) is
        # 0.0 from x_j/L_d = 27.3 on, so no potential is supportable
        code, out, err = run([argv[0], *WORKED, "--xj", "1e300",
                              *(a.format(tmp=tmp_path) for a in argv[1:])], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("punch-through: ")
        assert err.endswith("junction invalid even unbiased: supportable potential "
                            "0 V <= v_bi = 0.773844 V\n")

    def test_junction_square_past_the_float_range_deep_exit_0(self, capsys):
        # the deep regime takes exp(-(x_j/L_d)^2) as unity
        code, out, _ = run(["solve", *WORKED, "--xj", "1e300", "--bias", "1",
                            "--regime", "deep"], capsys)
        assert code == 0
        assert "W_SC = 0.0478947 um" in out

    @pytest.mark.parametrize("row", ["Big,11.7,1e300,300", "Tiny,11.7,1e-300,300"])
    def test_material_n_i_square_past_the_float_range_exit_65(self, row, tmp_path, capsys,
                                                               monkeypatch):
        f = tmp_path / "mats.csv"
        f.write_text("name,eps_r,n_i_cm3,temp_K\n" + row + "\n")
        monkeypatch.setenv("JUNCTIONLAB_MATERIALS", str(f))
        code, out, err = run(["solve", *WORKED, "--bias", "1",
                              "--material", row.split(",")[0]], capsys)
        assert code == 65
        assert out == ""
        assert err.startswith(f"error: {f}:2: n_i^2 must be a positive finite float")

    @pytest.mark.parametrize("flags, missing", [
        (["--guess-n0", "2e18"], "--guess-ld"),
        (["--guess-ld", "5"], "--guess-n0"),
        (["--guess-vbi", "0.5"], "--guess-n0 and --guess-ld"),
        (["--guess-n0", "2e18", "--guess-vbi", "0.5", "--fit-vbi"], "--guess-ld"),
    ])
    def test_partial_guess_exit_64(self, flags, missing, tmp_path, capsys):
        (tmp_path / "five.csv").write_text(self.CURVES["five.csv"])
        code, out, err = run(["fit", "--data", str(tmp_path / "five.csv"), "--nb", "1e15",
                              *flags], capsys)
        assert code == 64
        assert out == ""
        assert err == ("error: a fit guess needs both --guess-n0 and --guess-ld; "
                       f"missing {missing}\n")

    @pytest.mark.parametrize("flags, bad", [
        (["--guess-n0", "-1", "--guess-ld", "5"], "initial guess N0 must be finite and "
                                                  "positive, got -1e+06 m^-3"),
        (["--guess-n0", "2e18", "--guess-ld", "0"], "initial guess L_d must be finite and "
                                                    "positive, got 0 m"),
        (["--guess-n0", "1e303", "--guess-ld", "5"], "initial guess N0 must be finite and "
                                                     "positive, got inf m^-3"),
        (["--guess-n0", "1e15", "--guess-ld", "5"], "initial guess N0 must exceed N_B = "
                                                    "1e+21 m^-3, got 1e+21 m^-3"),
    ])
    def test_bad_guess_exit_64(self, flags, bad, tmp_path, capsys):
        (tmp_path / "five.csv").write_text(self.CURVES["five.csv"])
        code, _, err = run(["fit", "--data", str(tmp_path / "five.csv"), "--nb", "1e15",
                            *flags], capsys)
        assert code == 64
        assert err == f"error: {bad}\n"

    def test_nan_bias_under_optimize(self):
        # python -O strips asserts, so the rejection must not rest on one
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-m", "junctionlab.cli", "solve",
                               *WORKED, "--bias", "nan"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 64
        assert "finite" in proc.stderr and "Traceback" not in proc.stderr
