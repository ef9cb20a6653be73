import math

import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from junctionlab import (Bias, GaussianProfile, JunctionSpec, Q, Regime,
                         capacitance, default_vbi, get_material, solve,
                         total_potential, validity_window, w_sc_deep,
                         w_sc_general, w_sc_shallow)
from junctionlab.closedform import log_argument, w_sc_from_potential
from junctionlab.errors import (DegenerateJunctionError,
                                EquilibriumInvalidError, FlatBandError,
                                PunchThroughError)

SI = get_material("Si")

# worked junction: N0 = 1e18 cm^-3, N_B = 1e15 cm^-3, L_d = 10 um, Si, 300 K
WORKED = JunctionSpec(material=SI, profile=GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))


def random_specs(n, seed=0):
    """Randomized valid junctions over the physical parameter ranges."""
    import numpy as np
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        n_b = 10.0 ** rng.uniform(19.0, 23.0)
        n0 = n_b * 10.0 ** rng.uniform(1.0, 4.0)
        l_d = 10.0 ** rng.uniform(-7.0, -4.0)
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=SI, profile=profile)
        try:
            validity_window(spec)
        except EquilibriumInvalidError:
            continue
        out.append(spec)
    return out


class TestBiasAndPotential:
    def test_reverse_addition(self):
        assert_allclose(total_potential(WORKED, Bias(10.0, "reverse")),
                        WORKED.v_bi + 10.0, rtol=1e-15)

    def test_forward_subtraction(self):
        spec = JunctionSpec(material=SI, profile=WORKED.profile, v_bi=0.774)
        assert_allclose(total_potential(spec, Bias(0.3, "forward")), 0.474, rtol=1e-12)

    def test_flat_band_rejected(self):
        spec = JunctionSpec(material=SI, profile=WORKED.profile, v_bi=0.774)
        with pytest.raises(FlatBandError):
            total_potential(spec, Bias(0.774, "forward"))

    def test_signed_bias_mapping(self):
        assert Bias.from_signed(2.0) == Bias(2.0, "reverse")
        assert Bias.from_signed(-0.3) == Bias(0.3, "forward")
        assert Bias.from_signed(-0.3).signed == -0.3

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            Bias(-1.0, "reverse")


class TestDefaultVbi:
    def test_worked_value(self):
        v = default_vbi(WORKED.profile, SI, 300.0)
        assert_allclose(v, 0.77385, atol=1e-4)

    def test_degenerate_rejected(self):
        mat = get_material("Ge")  # n_i = 2.4e19
        profile = GaussianProfile(n0=2.4e19 * 1.5, l_d=1e-6, n_b=2.4e19 / 1.5)
        # N0 * N_B = n_i^2 exactly
        with pytest.raises(DegenerateJunctionError):
            default_vbi(profile, mat, 300.0)

    def test_doubling_ni_lowers_by_2vtln2(self):
        from junctionlab import Material, thermal_voltage
        m1 = SI
        m2 = Material("Si2", SI.eps_r, 2.0 * SI.n_i, 300.0)
        v1 = default_vbi(WORKED.profile, m1, 300.0)
        v2 = default_vbi(WORKED.profile, m2, 300.0)
        assert_allclose(v1 - v2, 2.0 * thermal_voltage(300.0) * math.log(2.0), rtol=1e-12)


class TestValidityWindow:
    def test_worked_value(self):
        w = validity_window(WORKED)
        # (q N0 L_d^2 / 2 eps) * 1e-3 - v_bi
        scale = Q * 1e24 * 1e-10 / (2.0 * SI.eps)
        assert_allclose(w.v_max_reverse, scale * 1e-3 - WORKED.v_bi, rtol=1e-14)
        assert_allclose(w.v_max_reverse, 76.56, rtol=1e-3)
        assert w.v_max_forward == WORKED.v_bi

    def test_window_by_bisection_on_log_argument(self):
        # independent check: the Eq.-12 argument reaches zero exactly at
        # v_bi + v_max_reverse
        w = validity_window(WORKED)
        lo, hi = 0.0, 1e4
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_argument(WORKED, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert_allclose(0.5 * (lo + hi), w.v_max_reverse + WORKED.v_bi, rtol=1e-10)

    def test_equilibrium_invalid_small_ld(self):
        profile = GaussianProfile(n0=1e24, l_d=1e-6, n_b=1e21)
        spec = JunctionSpec(material=SI, profile=profile)
        with pytest.raises(EquilibriumInvalidError):
            validity_window(spec)


class TestWscGeneral:
    def test_zero_potential_collapses(self):
        r = w_sc_from_potential(WORKED, 0.0, Regime.GENERAL)
        assert r.w_sc == pytest.approx(0.0, abs=1e-20)

    def test_worked_example(self):
        r = w_sc_general(WORKED, Bias(10.0, "reverse"))
        assert_allclose(r.w_sc, 2.84e-7, rtol=5e-3)
        assert_allclose(r.c_b, 3.65e-4, rtol=5e-3)

    def test_divergence_near_punch_through(self):
        # W grows monotonically without bound as the log argument -> 0+
        scale = WORKED.potential_scale
        exp_term = math.exp(-(WORKED.x_j / WORKED.profile.l_d) ** 2)
        l_d, x_j = WORKED.profile.l_d, WORKED.x_j
        w_prev = 0.0
        for a in (1e-6, 1e-9):
            v_total = (exp_term - a) * scale
            r = w_sc_from_potential(WORKED, v_total, Regime.GENERAL)
            assert r.w_sc > w_prev
            assert_allclose(r.w_sc, l_d * math.sqrt(-math.log(a)) - x_j, rtol=1e-9)
            w_prev = r.w_sc

    def test_punch_through_raises_with_window(self):
        with pytest.raises(PunchThroughError) as exc:
            w_sc_general(WORKED, Bias(100.0, "reverse"))
        assert_allclose(exc.value.v_max_reverse,
                        validity_window(WORKED).v_max_reverse, rtol=1e-12)

    def test_back_substitution_identity(self):
        # Plug W back into the moment identity's closed antiderivative
        for spec in random_specs(20, seed=3):
            window = validity_window(spec)
            v_r = 0.5 * window.v_max_reverse
            r = w_sc_general(spec, Bias(v_r, "reverse"))
            l_d, x_j = spec.profile.l_d, spec.x_j
            lhs = spec.potential_scale * (
                math.exp(-(x_j / l_d) ** 2)
                - math.exp(-((r.w_sc + x_j) / l_d) ** 2))
            assert_allclose(lhs, r.total_potential, rtol=1e-10)


class TestRegimes:
    @pytest.mark.parametrize("v_r", [0.0, 1.0, 10.0, 50.0])
    def test_shallow_minus_general_is_xj(self, v_r):
        g = w_sc_general(WORKED, Bias(v_r, "reverse"))
        s = w_sc_shallow(WORKED, Bias(v_r, "reverse"))
        assert_allclose(s.w_sc - g.w_sc, WORKED.x_j, rtol=1e-12)

    def test_xj_zero_makes_shallow_equal_general(self):
        spec = JunctionSpec(material=SI, profile=WORKED.profile, x_j=0.0)
        g = w_sc_general(spec, Bias(1.0, "reverse"))
        s = w_sc_shallow(spec, Bias(1.0, "reverse"))
        assert g.w_sc == s.w_sc

    def test_shallow_worked_value(self):
        s = w_sc_shallow(WORKED, Bias(10.0, "reverse"))
        assert_allclose(s.w_sc, 2.65665e-5, rtol=1e-5)

    def test_deep_matches_shallow_log_argument_for_small_xj(self):
        # the two log arguments differ by exactly 1 - exp(-1e-4) ~ 1e-4
        spec = JunctionSpec(material=SI, profile=WORKED.profile,
                            x_j=0.01 * WORKED.profile.l_d)
        for v_r in (0.1, 1.0, 10.0):
            s = w_sc_shallow(spec, Bias(v_r, "reverse"))
            d = w_sc_deep(spec, Bias(v_r, "reverse"))
            assert abs(d.log_argument - s.log_argument) / d.log_argument < 1.1e-4

    def test_deep_matches_shallow_width_at_strong_depletion(self):
        # width agreement needs the potential term to dominate the
        # exponential deviation; probe half the supportable potential
        spec = JunctionSpec(material=SI, profile=WORKED.profile,
                            x_j=0.01 * WORKED.profile.l_d)
        for frac in (0.3, 0.5, 0.9):
            v_total = frac * spec.potential_scale
            s = w_sc_from_potential(spec, v_total, Regime.SHALLOW)
            d = w_sc_from_potential(spec, v_total, Regime.DEEP)
            assert abs(d.w_sc - s.w_sc) / s.w_sc < 1e-3

    def test_deep_zero_potential(self):
        r = w_sc_from_potential(WORKED, 0.0, Regime.DEEP)
        assert r.w_sc == 0.0

    def test_deep_abrupt_junction_limit(self):
        # for tiny log-argument deviation the deep form tends to the
        # textbook abrupt-junction width
        u = 1e-4
        v_total = u * WORKED.potential_scale
        d = w_sc_from_potential(WORKED, v_total, Regime.DEEP)
        w_abrupt = math.sqrt(2.0 * WORKED.eps * v_total / (Q * WORKED.profile.n0))
        assert abs(d.w_sc - w_abrupt) / w_abrupt < 1e-4

    def test_deep_punch_through(self):
        with pytest.raises(PunchThroughError):
            w_sc_from_potential(WORKED, 1.01 * WORKED.potential_scale, Regime.DEEP)


class TestCapacitance:
    @pytest.mark.parametrize("regime", ["general", "shallow", "deep"])
    def test_cb_times_w_is_eps(self, regime):
        r = solve(WORKED, Bias(10.0, "reverse"), regime)
        assert_allclose(r.c_b * r.w_sc, WORKED.eps, rtol=1e-12)
        assert capacitance(WORKED, Bias(10.0, "reverse"), regime) == r.c_b

    def test_monotone_in_reverse_bias(self):
        window = validity_window(WORKED)
        vs = [window.v_max_reverse * 0.99 * i / 99.0 for i in range(100)]
        cs = [capacitance(WORKED, Bias(v, "reverse")) for v in vs]
        ws = [solve(WORKED, Bias(v, "reverse")).w_sc for v in vs]
        assert all(a > b for a, b in zip(cs, cs[1:]))
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_auto_regime_is_general(self):
        assert solve(WORKED, Bias(10.0, "reverse"), "auto").regime is Regime.GENERAL


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0))
def test_regime_algebra_property(v_r):
    g = w_sc_general(WORKED, Bias(v_r, "reverse"))
    s = w_sc_shallow(WORKED, Bias(v_r, "reverse"))
    assert_allclose(s.w_sc - g.w_sc, WORKED.x_j, rtol=1e-12)


def test_spec_invariants():
    r = w_sc_general(WORKED, Bias(10.0, "reverse"))
    exp_term = math.exp(-(WORKED.x_j / WORKED.profile.l_d) ** 2)
    assert 0.0 < r.log_argument <= exp_term
    with pytest.raises(ValueError):
        JunctionSpec(material=SI, profile=WORKED.profile, temp=-1.0)
    with pytest.raises(ValueError):
        JunctionSpec(material=SI, profile=WORKED.profile, x_j=-1e-6)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_bias_rejects_non_finite(value):
    with pytest.raises(ValueError):
        Bias(value, "reverse")
    with pytest.raises(ValueError):
        Bias.from_signed(value)


@pytest.mark.parametrize("field", ["temp", "x_j", "v_bi"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        JunctionSpec(material=SI, profile=WORKED.profile, **{field: value})


def test_deep_punch_through_carries_the_deep_bound():
    # with a shallow x_j the deep regime's bound lies above the general one
    spec = JunctionSpec(material=SI, profile=WORKED.profile, x_j=1e-7)
    deep_bound = spec.potential_scale * log_argument(spec, 0.0, Regime.DEEP) - spec.v_bi
    assert validity_window(spec).v_max_reverse < deep_bound
    with pytest.raises(PunchThroughError) as exc:
        w_sc_deep(spec, Bias(77400.0, "reverse"))
    assert exc.value.v_max_reverse == deep_bound


@pytest.mark.parametrize("regime", ["general", "shallow", "deep"])
def test_window_is_the_punch_through_bound_of_its_regime(regime):
    spec = JunctionSpec(material=SI, profile=WORKED.profile, x_j=1e-7)
    with pytest.raises(PunchThroughError) as exc:
        solve(spec, Bias(77400.0, "reverse"), regime)
    assert validity_window(spec, regime).v_max_reverse == exc.value.v_max_reverse


def test_general_window_formula_unchanged():
    for spec in [WORKED, *random_specs(20, seed=3)]:
        exp_term = math.exp(-(spec.x_j / spec.profile.l_d) ** 2)
        expected = spec.potential_scale * exp_term - spec.v_bi
        assert validity_window(spec).v_max_reverse == expected
        assert validity_window(spec, "shallow").v_max_reverse == expected


def test_deep_window_where_general_is_invalid():
    # N0 = 1e18 cm^-3, N_B = 1e15 cm^-3, L_d = 1 um: the exponential term
    # leaves too little charge in general, none is dropped in deep
    spec = JunctionSpec(material=SI, profile=GaussianProfile(n0=1e24, l_d=1e-6, n_b=1e21))
    with pytest.raises(EquilibriumInvalidError):
        validity_window(spec)
    assert_allclose(validity_window(spec, "deep").v_max_reverse, 772.522, rtol=1e-6)


def test_equilibrium_invalid_from_solve():
    spec = JunctionSpec(material=SI, profile=GaussianProfile(n0=1e24, l_d=1e-6, n_b=1e21))
    with pytest.raises(EquilibriumInvalidError) as exc:
        solve(spec, Bias(0.0, "reverse"))
    assert exc.value.v_max_reverse <= 0.0
