import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from junctionlab import (Bias, CvCurve, GaussianProfile, JunctionSpec,
                         deserialize, fit, get_material, serialize, solve,
                         sweep)
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

    def test_deterministic(self):
        a = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True)
        b = fit(self.make_curve(), SI, 300.0, 5e20, fit_vbi=True)
        assert a == b

    def test_insufficient_data(self):
        curve = sweep(self.truth, 0.0, 1.0, 4)
        with pytest.raises(InsufficientDataError):
            fit(curve, SI, 300.0, 5e20)


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
        b'{"v_bias": true, "c_b": 1e-4}'])
    def test_json_non_numeric_value(self, point):
        with pytest.raises(CurveFormatError):
            deserialize(b'{"points": [' + point + b'], "spec": null}', "json")

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
