import json
import math
import random
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from junctionlab import (Bias, CvCurve, GaussianProfile, JunctionSpec,
                         deserialize, fit, get_material, serialize, solve,
                         sweep, validity_window)
from junctionlab import cvtools
from junctionlab.cvtools import CSV_HEADER
from junctionlab.errors import (CurveFormatError, FlatBandError,
                                InsufficientDataError, JunctionError,
                                PunchThroughError)

SI = get_material("Si")
WORKED = JunctionSpec(material=SI, profile=GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))


class TestSweep:
    def test_endpoint_matches_single_solve(self):
        curve = sweep(WORKED, 0.0, 10.0, 11)
        v, c, w = curve.points[-1]
        r = solve(WORKED, Bias(10.0, "reverse"))
        assert v == 10.0
        assert c == r.c_b
        assert w == r.w_sc
        assert_allclose(w, 2.84e-7, rtol=5e-3)

    def test_every_point_equals_per_point_solve(self):
        curve = sweep(WORKED, -0.5, 20.0, 15)
        for v, c, w in curve.points:
            r = solve(WORKED, Bias.from_signed(v))
            assert c == r.c_b and w == r.w_sc

    def test_capacitance_strictly_decreasing_on_reverse_sweep(self):
        curve = sweep(WORKED, 0.0, 50.0, 100)
        cs = [c for _, c, _ in curve.points]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError):
            sweep(WORKED, 5.0, 5.0, 2)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            sweep(WORKED, 0.0, 10.0, 1)

    def test_out_of_window_names_offender(self):
        # first offending grid point of [0, 100] x 11 is 80 V
        with pytest.raises(JunctionError, match="80"):
            sweep(WORKED, 0.0, 100.0, 11)


class TestSerialization:
    def test_csv_round_trip(self):
        curve = sweep(WORKED, 0.0, 10.0, 11)
        back = deserialize(serialize(curve, "csv"), "csv")
        assert back.points == curve.points
        assert back.spec_echo is None

    def test_json_round_trip_with_spec(self):
        curve = sweep(WORKED, 0.0, 10.0, 11)
        back = deserialize(serialize(curve, "json"), "json")
        assert back.points == curve.points
        assert back.spec_echo == WORKED

    def test_csv_header_contract(self):
        curve = sweep(WORKED, 0.0, 10.0, 3)
        data = serialize(curve, "csv")
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == CSV_HEADER
        assert b"\r" not in data

    def test_empty_curve_is_header_only(self):
        curve = CvCurve(points=())
        assert serialize(curve, "csv") == (CSV_HEADER + "\n").encode()
        assert len(deserialize(serialize(curve, "csv"), "csv")) == 0

    def test_json_spec_null_for_measured(self):
        curve = CvCurve(points=((0.0, 1e-4, None),))
        obj = json.loads(serialize(curve, "json"))
        assert obj["spec"] is None

    @pytest.mark.parametrize("make", [
        lambda: sweep(WORKED, -0.3, 10.0, 41),
        lambda: CvCurve(points=((-0.25, 3.1e-3, None), (0.0, 1e-4, None), (1.5, 7.0e-5, None))),
        lambda: CvCurve(points=()),
        lambda: CvCurve(points=tuple(tuple(np.float64(x) for x in p)
                                     for p in sweep(WORKED, -0.3, 10.0, 41).points),
                        spec_echo=WORKED),
    ], ids=["sweep", "measured", "empty", "numpy"])
    def test_json_bytes_match_json_dumps(self, make):
        # the writer is held to the bytes json.dumps gives for the same curve
        curve = make()
        spec = None if curve.spec_echo is None else cvtools._spec_to_dict(curve.spec_echo)
        obj = {"points": [{"v_bias": v, "c_b": c, "w_sc": w} for v, c, w in curve.points],
               "spec": spec}
        assert serialize(curve, "json") == (json.dumps(obj) + "\n").encode()

    def test_json_round_trip_bools_and_ints(self):
        # written as floats, as the CSV writer writes them
        curve = CvCurve(points=((False, True, None), (True, 2.0, None), (2, 3, 4)))
        data = serialize(curve, "json")
        assert data.startswith(b'{"points": [{"v_bias": 0.0, "c_b": 1.0, "w_sc": null}, ')
        for fmt in ("csv", "json"):
            back = deserialize(serialize(curve, fmt), fmt)
            assert back.points == ((0.0, 1.0, None), (1.0, 2.0, None), (2.0, 3.0, 4.0))
            assert all(type(x) is float for p in back.points for x in p if x is not None)

    def test_json_ints_read_as_floats(self):
        data = b'{"points": [{"v_bias": 0, "c_b": 1e-4}, {"v_bias": 1.5, "c_b": 2, "w_sc": 3}], "spec": null}'
        back = deserialize(data, "json")
        assert back.points == ((0.0, 1e-4, None), (1.5, 2.0, 3.0))
        assert all(type(x) is float for p in back.points for x in p if x is not None)

    def test_measured_csv_without_w_column(self):
        data = b"v_bias_V,c_b_F_per_m2\n0.0,1e-4\n1.0,9e-5\n"
        curve = deserialize(data, "csv")
        assert curve.points == ((0.0, 1e-4, None), (1.0, 9e-5, None))

    def test_malformed_row_reports_line(self):
        data = (CSV_HEADER + "\n0.0,1e-4,1e-7\nabc,1,2\n").encode()
        with pytest.raises(CurveFormatError) as exc:
            deserialize(data, "csv")
        assert exc.value.line == 3

    def test_wrong_column_count_reports_line(self):
        data = (CSV_HEADER + "\n0.0,1e-4\n").encode()
        with pytest.raises(CurveFormatError) as exc:
            deserialize(data, "csv")
        assert exc.value.line == 2

    def test_non_monotone_bias_rejected(self):
        data = (CSV_HEADER + "\n1.0,1e-4,1e-7\n0.5,2e-4,5e-8\n").encode()
        with pytest.raises(CurveFormatError):
            deserialize(data, "csv")

    def test_bad_header_rejected(self):
        with pytest.raises(CurveFormatError) as exc:
            deserialize(b"volts,farads\n", "csv")
        assert exc.value.line == 1

    @pytest.mark.parametrize("fmt, data", [
        ("csv", b"v_bias_V,c_b_F_per_m2\n0.0,1e-4\n\xff\n"),
        ("json", b'{"points": [], "spec": "\xff"}')], ids=["csv", "json"])
    def test_non_utf8_rejected(self, fmt, data):
        with pytest.raises(CurveFormatError, match="^not UTF-8: "):
            deserialize(data, fmt)

    def test_unknown_format_rejected(self):
        curve = sweep(WORKED, 0.0, 10.0, 3)
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            serialize(curve, "xml")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            deserialize(serialize(curve, "csv"), "xml")


class TestFit:
    truth = JunctionSpec(material=SI,
                         profile=GaussianProfile(n0=3.7e23, l_d=2.3e-6, n_b=5e20))

    def make_curve(self, n=25):
        return sweep(self.truth, -0.4, 1.2, n)

    def test_noiseless_round_trip(self):
        r = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True)
        assert r.objective < 1e-12
        assert abs(r.n0_hat - 3.7e23) / 3.7e23 < 1e-3
        assert abs(r.ld_hat - 2.3e-6) / 2.3e-6 < 1e-3
        assert abs(r.vbi_hat - self.truth.v_bi) / self.truth.v_bi < 1e-3
        assert r.converged

    def test_noiseless_without_vbi_fitting(self):
        r = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=False)
        assert r.objective < 1e-12
        assert abs(r.n0_hat - 3.7e23) / 3.7e23 < 1e-3
        assert abs(r.ld_hat - 2.3e-6) / 2.3e-6 < 1e-3

    def test_noisy_recovery_within_5_percent(self):
        # 1% multiplicative Gaussian noise, fixed documented seed
        rng = np.random.default_rng(20240817)
        pts = tuple((v, c * (1.0 + 0.01 * rng.standard_normal()), None)
                    for v, c, _ in self.make_curve().points)
        r = fit(CvCurve(points=pts), SI, 300.0, 5e20, fit_vbi=True)
        assert abs(r.n0_hat - 3.7e23) / 3.7e23 < 0.05
        assert abs(r.ld_hat - 2.3e-6) / 2.3e-6 < 0.05
        assert abs(r.vbi_hat - self.truth.v_bi) / self.truth.v_bi < 0.05

    def test_initial_guess_honored(self):
        r = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=False,
                initial_guess=(5e23, 2e-6, 0.7))
        assert r.objective < 1e-12

    @pytest.mark.parametrize("guess, bad", [
        ((-1e24, 2e-6, 0.7), "N0 must be finite and positive, got -1e+24 m^-3"),
        ((0.0, 2e-6, 0.7), "N0 must be finite and positive, got 0 m^-3"),
        ((math.inf, 2e-6, 0.7), "N0 must be finite and positive, got inf m^-3"),
        ((math.nan, 2e-6, 0.7), "N0 must be finite and positive, got nan m^-3"),
        ((5e23, 0.0, 0.7), "L_d must be finite and positive, got 0 m"),
        ((5e23, -2e-6, 0.7), "L_d must be finite and positive, got -2e-06 m"),
        ((5e23, math.nan, 0.7), "L_d must be finite and positive, got nan m"),
        ((5e23, 2e-6, math.nan), "V_bi must be finite, got nan V"),
    ])
    def test_bad_initial_guess_rejected(self, guess, bad):
        with pytest.raises(ValueError, match=f"^initial guess {re.escape(bad)}$"):
            fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True, initial_guess=guess)

    def test_deterministic(self):
        a = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True)
        b = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True)
        assert a == b

    def test_search_past_the_float_range(self):
        # data too flat for any junction above this background: trial points
        # overflow N0*N_B, which counts as no model there, not as bad input
        curve = CvCurve(points=tuple((float(k), 1e-3 * (1 - 0.1 * k), None) for k in range(5)))
        assert math.isfinite(fit(curve, SI, 300.0, 1e22).objective)

    def test_insufficient_data(self):
        curve = sweep(self.truth, 0.0, 1.0, 4)
        with pytest.raises(InsufficientDataError):
            fit(curve, SI, 300.0, 5e20)


@pytest.mark.parametrize("fit_vbi", [False, True])
def test_residuals_equal_per_point_solve(fit_vbi):
    # measured points past the forward edge (flat band), inside the window
    # and past the reverse edge, at and around both edges
    n0, l_d, n_b = 1e24, 1e-5, 1e21
    theta = [math.log(math.log(n0 / n_b)), math.log(l_d)] + ([0.7] if fit_vbi else [])
    profile = GaussianProfile(n0=n_b * math.exp(math.exp(theta[0])), l_d=math.exp(theta[1]),
                              n_b=n_b)
    spec = JunctionSpec(material=SI, profile=profile, v_bi=0.7 if fit_vbi else None)
    window = validity_window(spec)
    lo, hi = -window.v_max_forward, window.v_max_reverse
    biases = sorted({-3.0, lo, math.nextafter(lo, 0.0), -0.2, 0.0, 10.0,
                     math.nextafter(hi, 0.0), hi, hi + 1.0, 1e3})
    curve = CvCurve(points=tuple((v, 1e-4 / (2.0 + v / 100.0), None) for v in biases))
    res = cvtools._residuals(theta, curve, SI, 300.0, n_b, fit_vbi)
    expected = []
    for v, c, _ in curve.points:
        if v >= window.v_max_reverse:
            expected.append(1e3 * (1.0 + v - window.v_max_reverse))
        elif -v >= window.v_max_forward:
            expected.append(1e3 * (1.0 - v - window.v_max_forward))
        else:
            expected.append((solve(spec, Bias.from_signed(v)).c_b - c) / c)
    assert res == expected
    assert sum(1 for v in biases if lo < v < hi) == 5


def test_fit_with_a_point_at_the_window_edge():
    # solve and cv_points decide a point to within about one ulp of
    # V_bi + V, not by validity_window's bound, so they reject this bias
    # one ulp below v_max_reverse; at the initial guess that is a model
    # failure for the residuals, not an exception out of fit
    n_b = 1.7371276234774217e20
    guess = (math.exp(54.560642462025044), math.exp(-12.797225550169417), 0.7)
    spec = JunctionSpec(material=SI, profile=GaussianProfile(n0=guess[0], l_d=guess[1], n_b=n_b))
    edge = math.nextafter(validity_window(spec).v_max_reverse, 0.0)
    with pytest.raises(PunchThroughError):
        solve(spec, Bias(edge, "reverse"))
    below = [edge * k / 5.0 for k in range(5)]
    pts = tuple((v, c, None) for v, c, _ in cvtools.cv_points(spec, below))
    curve = CvCurve(points=pts + ((edge, 0.5 * pts[-1][1], None),))
    r = fit(curve, SI, 300.0, n_b, initial_guess=guess)
    assert math.isfinite(r.objective)


def _panel(seed, count):
    """Seeded junctions in the acceptance ranges (N0 in [1e22, 1e26] m^-3,
    10 <= N0/N_B <= 1e4, L_d in [0.1, 100] um), each with a sweep from
    30-70 % of V_bi forward to 70-95 % of the reverse window."""
    rng = random.Random(seed)
    panel = []
    while len(panel) < count:
        lg_nb = rng.uniform(19.0, 23.0)
        lg_n0 = lg_nb + rng.uniform(1.0, min(26.0 - lg_nb, 4.0))
        profile = GaussianProfile(n0=float(f"{10.0 ** lg_n0:.3g}"),
                                  l_d=float(f"{10.0 ** rng.uniform(-7.0, -4.0):.3g}"),
                                  n_b=float(f"{10.0 ** lg_nb:.3g}"))
        spec = JunctionSpec(material=SI, profile=profile)
        try:
            v_max = validity_window(spec).v_max_reverse
        except JunctionError:
            continue
        if v_max > 0.1 * spec.v_bi:
            panel.append((spec, -rng.uniform(0.3, 0.7) * spec.v_bi,
                          rng.uniform(0.7, 0.95) * v_max))
    return panel


def assert_recovered(r, spec):
    assert r.converged
    assert abs(r.n0_hat - spec.profile.n0) / spec.profile.n0 < 1e-3
    assert abs(r.ld_hat - spec.profile.l_d) / spec.profile.l_d < 1e-3
    assert abs(r.vbi_hat - spec.v_bi) / spec.v_bi < 1e-3


class TestFitRecovery:
    """Noiseless curves fit back to their junction within 1e-3."""

    @pytest.mark.parametrize("fit_vbi", [True, False])
    @pytest.mark.parametrize("spec, v_start, v_stop", _panel(0, 20),
                             ids=[f"junction{i}" for i in range(20)])
    def test_seeded_panel(self, spec, v_start, v_stop, fit_vbi):
        curve = sweep(spec, v_start, v_stop, 51)
        assert_recovered(fit(curve, SI, 300.0, spec.profile.n_b, fit_vbi=fit_vbi), spec)

    def test_stall_reproduction(self):
        # a simplex fit once stopped here "converged" with V_bi = 0.806652 V
        spec = JunctionSpec(material=SI,
                            profile=GaussianProfile(n0=3.8e24, l_d=8.3e-6, n_b=1.1e21))
        curve = sweep(spec, -0.4, 52.0, 31)
        assert_recovered(fit(curve, SI, 300.0, 1.1e21, fit_vbi=True), spec)

    @pytest.mark.parametrize("vbi", [5.0, 0.0, -3.0])
    def test_guessed_vbi_outside_the_bounds_starts_on_them(self, vbi):
        # the stall junction from a guess whose V_bi lies outside [0.05, 2] V:
        # the guess is moved into the box, and the fit still recovers it
        spec = JunctionSpec(material=SI,
                            profile=GaussianProfile(n0=3.8e24, l_d=8.3e-6, n_b=1.1e21))
        curve = sweep(spec, -0.4, 52.0, 31)
        assert_recovered(fit(curve, SI, 300.0, 1.1e21, fit_vbi=True,
                             initial_guess=(1e25, 5e-6, vbi)), spec)

    def test_criterion_10_junction_51_points_fixed_vbi(self):
        curve = sweep(TestFit.truth, -0.4, 1.2, 51)
        assert_recovered(fit(curve, SI, 300.0, 5e20, fit_vbi=False), TestFit.truth)


class TestDeepSweep:
    """sweep leaves validity to solve, so each regime keeps its own window."""

    SPEC = JunctionSpec(material=SI, profile=WORKED.profile, x_j=1e-7)

    def test_deep_sweep_past_the_general_bound(self):
        curve = sweep(self.SPEC, 0.0, 77325.0, 5, "deep")
        assert len(curve) == 5
        assert_allclose(curve.points[-1][2], 31.48e-6, rtol=1e-3)
        for v, c, w in curve.points:
            r = solve(self.SPEC, Bias.from_signed(v), "deep")
            assert c == r.c_b and w == r.w_sc

    def test_past_the_deep_bound(self):
        with pytest.raises(PunchThroughError, match="77400") as exc:
            sweep(self.SPEC, 0.0, 77400.0, 5, "deep")
        scale = self.SPEC.potential_scale
        assert exc.value.v_max_reverse == scale * 1.0 - self.SPEC.v_bi

    def test_forward_past_flat_band(self):
        with pytest.raises(FlatBandError):
            sweep(WORKED, -1.0, 0.0, 5)


class TestNonFinite:
    @pytest.mark.parametrize("point", [(math.nan, 1e-4, None), (math.inf, 1e-4, None),
                                       (0.0, math.nan, None), (0.0, math.inf, 1e-7),
                                       (0.0, 1e-4, math.nan), (0.0, 1e-4, -math.inf)])
    def test_curve_rejects_non_finite(self, point):
        with pytest.raises(CurveFormatError):
            CvCurve(points=(point,))

    def test_csv_nan_row(self):
        data = (CSV_HEADER + "\n0.0,1e-4,1e-7\nnan,1e-4,1e-7\n").encode()
        with pytest.raises(CurveFormatError):
            deserialize(data, "csv")

    @pytest.mark.parametrize("point", [
        b'{"v_bias": "abc", "c_b": 1e-4}', b'{"v_bias": 0.0, "c_b": "x"}',
        b'{"v_bias": null, "c_b": 1e-4}', b'{"v_bias": 0.0, "c_b": 1e-4, "w_sc": "w"}',
        b'{"v_bias": true, "c_b": 1e-4}', b'{"v_bias": 0.0, "c_b": 1e-4, "w_sc": true}',
        pytest.param(b'{"v_bias": 1' + b'0' * 400 + b', "c_b": 1e-4}', id="1e400"),
        pytest.param(b'{"v_bias": 1' + b'0' * 5000 + b', "c_b": 1e-4}', id="1e5000")])
    def test_json_non_numeric_value(self, point):
        with pytest.raises(CurveFormatError):
            deserialize(b'{"points": [' + point + b'], "spec": null}', "json")

    def test_json_non_numeric_reported_before_overflow(self):
        # every point is checked for a non-number before an overflow is reported
        big = b'{"v_bias": 0.0, "c_b": 1' + b'0' * 400 + b'}'
        for points in (big + b', {"v_bias": 1.0, "c_b": "x"}', b'{"v_bias": 1.0, "c_b": "x"}, ' + big):
            with pytest.raises(CurveFormatError, match="non-numeric value 'x' in JSON curve"):
                deserialize(b'{"points": [' + points + b'], "spec": null}', "json")
        with pytest.raises(CurveFormatError, match="number too large for a float"):
            deserialize(b'{"points": [' + big + b'], "spec": null}', "json")

    @pytest.mark.parametrize("w_sc", ["-5.0", "0.0", "-0.0"])
    def test_csv_non_positive_width(self, w_sc):
        data = (CSV_HEADER + f"\n0.0,1e-3,{w_sc}\n").encode()
        with pytest.raises(CurveFormatError, match="width must be finite and positive"):
            deserialize(data, "csv")

    @pytest.mark.parametrize("w_sc", [b"-5.0", b"0.0", b"-1e-300"])
    def test_json_non_positive_width(self, w_sc):
        data = b'{"points": [{"v_bias": 0.0, "c_b": 1e-3, "w_sc": ' + w_sc + b'}], "spec": null}'
        with pytest.raises(CurveFormatError, match="width must be finite and positive"):
            deserialize(data, "json")

    def test_json_nan_value(self):
        data = b'{"points": [{"v_bias": 0.0, "c_b": NaN, "w_sc": null}], "spec": null}'
        with pytest.raises(CurveFormatError):
            deserialize(data, "json")


@pytest.mark.parametrize("data", [
    b'{"points": [{"v_bias": 0.0, "w_sc": null}], "spec": null}',
    b'{"spec": null}',
    b'{"points": [[0.0, 1e-4]], "spec": null}',
    b'[1, 2]',
])
def test_json_missing_key_is_format_error(data):
    with pytest.raises(CurveFormatError):
        deserialize(data, "json")


def test_json_bad_spec_is_format_error():
    obj = json.loads(serialize(sweep(WORKED, 0.0, 1.0, 3), "json"))
    del obj["spec"]["profile"]["n0"]
    with pytest.raises(CurveFormatError):
        deserialize(json.dumps(obj).encode(), "json")


def test_json_spec_number_too_large_is_format_error():
    obj = json.loads(serialize(sweep(WORKED, 0.0, 1.0, 3), "json"))
    obj["spec"]["profile"]["n0"] = 10 ** 400
    with pytest.raises(CurveFormatError):
        deserialize(json.dumps(obj).encode(), "json")


class TestFitWrongBackground:
    """The worked 21-point sweep (0-20 V) fitted with a wrong ``n_b``,
    which no junction matches exactly: each objective is held at the
    value the fit reached when this test was written, with a 1e-6
    relative margin.

    At ``n_b`` = 1e24 m^-3, the true N0, the fit ends at 15.64 (V_bi
    fixed) and 26.2 (fitted, where the solve uses up its 2000 evaluations
    and reports not converged), an rms relative residual near 1, so that
    row is recorded here and not held.
    """

    curve = sweep(WORKED, 0.0, 20.0, 21)

    @pytest.mark.parametrize("n_b, fit_vbi, objective", [
        (1e16, False, 0.02163670619076184),
        (1e23, False, 0.10210843935813214),
        (1e23, True, 0.04107836434358691),
        (1e19, True, 1.0295353387842995e-07),
        (1e20, True, 8.701487380403036e-08),
        (1e22, True, 3.658046632226245e-05),
        (1e20, False, 0.016317699798144215),  # stops on a decrease within 1e-15 of it
    ])
    def test_objective_held(self, n_b, fit_vbi, objective):
        r = fit(self.curve, SI, 300.0, n_b, fit_vbi=fit_vbi)
        assert r.objective <= objective * (1.0 + 1e-6)


class TestLevenbergMarquardt:
    """cvtools._levenberg_marquardt on problems with a known answer."""

    NO_BOUND = [-math.inf, -math.inf], [math.inf, math.inf]

    def test_rosenbrock(self):
        theta, _, evaluations, converged = cvtools._levenberg_marquardt(
            lambda t: [10.0 * (t[1] - t[0] ** 2), 1.0 - t[0]], [-1.2, 1.0], *self.NO_BOUND)
        assert converged
        assert_allclose(theta, [1.0, 1.0], rtol=0, atol=1e-12)
        assert evaluations <= 56

    def test_minimum_outside_the_box_ends_on_the_bound(self):
        theta, _, _, converged = cvtools._levenberg_marquardt(
            lambda t: [t[0] - 3.0, t[1] - 1.0], [0.0, 0.0], self.NO_BOUND[0], [math.inf, 0.5])
        assert converged
        assert theta[1] == 0.5
        assert abs(theta[0] - 3.0) <= 1e-6

    def test_evaluation_limit(self):
        # exp(-t) has no minimum: each step lowers the sum by a fixed share
        calls = []

        def fun(t):
            calls.append(t)
            return [math.exp(-t[0])]
        _, _, evaluations, converged = cvtools._levenberg_marquardt(
            fun, [1.0], [-math.inf], [math.inf])
        assert not converged
        assert evaluations == len(calls) == 2000

    def test_evaluation_limit_inside_a_jacobian(self):
        # two unknowns and every step accepted: a step costs two Jacobian
        # columns and a trial, so the 2000th evaluation is the first column
        # of a Jacobian, and the limit stops the solve before the second
        calls = []

        def fun(t):
            calls.append(list(t))
            return [math.exp(-t[0]), math.exp(-t[1])]
        _, _, evaluations, converged = cvtools._levenberg_marquardt(
            fun, [1.0, 1.0], *self.NO_BOUND)
        assert not converged
        assert evaluations == len(calls) == 2000
        accepted, column = calls[-2], calls[-1]
        assert column[0] != accepted[0] and column[1] == accepted[1]

    def test_overflowing_jacobian_stops_unconverged(self):
        # J^T J = [[inf, inf], [inf, inf]]: every Cholesky fails, and the
        # retries, which evaluate nothing, must not go on for ever
        theta, r, evaluations, converged = cvtools._levenberg_marquardt(
            lambda t: [1e300 * (t[0] + t[1])], [1.0, 1.0], *self.NO_BOUND)
        assert not converged
        assert (theta, r, evaluations) == ([1.0, 1.0], [2e300], 3)

    @pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["indefinite", "singular"])
    def test_cholesky_rejects_a_matrix_not_positive_definite(self, a):
        assert cvtools._cholesky_solve(a, [1.0, 1.0]) is None
        assert cvtools._cholesky_solve([[4.0, 2.0], [2.0, 3.0]], [2.0, 1.0]) == [0.5, 0.0]

    def test_failed_cholesky_retries_with_more_damping(self, monkeypatch):
        # no natural problem was found whose damped normal equations fail
        # the factorisation, so the first one is made to fail
        real = cvtools._cholesky_solve
        diagonals = []

        def fail_once(a, b):
            diagonals.append([a[i][i] for i in range(len(a))])
            return None if len(diagonals) == 1 else real(a, b)
        monkeypatch.setattr(cvtools, "_cholesky_solve", fail_once)
        theta, _, _, converged = cvtools._levenberg_marquardt(
            lambda t: [10.0 * (t[1] - t[0] ** 2), 1.0 - t[0]], [-1.2, 1.0], *self.NO_BOUND)
        assert converged
        assert_allclose(theta, [1.0, 1.0], rtol=0, atol=1e-12)
        assert all(d1 > d0 for d0, d1 in zip(*diagonals[:2]))
