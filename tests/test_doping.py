import math

import mpmath
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from junctionlab import (DiffusionRecipe, GaussianProfile, Polarity, Q,
                         charge_density, diffusion_length, doping_at,
                         junction_depth)
from junctionlab.errors import NoJunctionError


def bisect_junction(profile, lo, hi, tol=1e-12):
    """Independent root-finder on doping_at(x) - N_B, for cross-checking."""
    f = lambda x: doping_at(profile, x) - profile.n_b
    assert f(lo) > 0 > f(hi)
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDiffusionLength:
    def test_worked_value(self):
        assert_allclose(diffusion_length(DiffusionRecipe(d_i=2.5e-17, t_d=3600.0)),
                        6.0e-7, rtol=1e-12)

    def test_sqrt_identity(self):
        assert diffusion_length(DiffusionRecipe(d_i=0.25, t_d=1.0)) == 1.0

    @given(st.floats(min_value=1e-20, max_value=1e-10),
           st.floats(min_value=1.0, max_value=1e6))
    def test_quadrupling_time_doubles_length(self, d_i, t_d):
        base = diffusion_length(DiffusionRecipe(d_i=d_i, t_d=t_d))
        assert_allclose(diffusion_length(DiffusionRecipe(d_i=d_i, t_d=4.0 * t_d)),
                        2.0 * base, rtol=1e-14)

    @given(st.floats(min_value=1e-20, max_value=1e-10),
           st.floats(min_value=1.0, max_value=1e6))
    def test_square_matches_product(self, d_i, t_d):
        l_d = diffusion_length(DiffusionRecipe(d_i=d_i, t_d=t_d))
        assert_allclose(l_d ** 2, 4.0 * d_i * t_d, rtol=1e-14)

    def test_nonpositive_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                DiffusionRecipe(d_i=bad, t_d=100.0)
            with pytest.raises(ValueError):
                DiffusionRecipe(d_i=1e-17, t_d=bad)

    @pytest.mark.parametrize("d_i, t_d", [(1e200, 1e200), (1e160, 1e160), (1e-160, 1e-170)])
    def test_product_outside_float_range_rejected(self, d_i, t_d):
        # finite, positive inputs whose product overflows or underflows
        with pytest.raises(ValueError, match=r"d_i = .* t_d = "):
            diffusion_length(DiffusionRecipe(d_i=d_i, t_d=t_d))


class TestDopingAt:
    profile = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)

    def test_surface_value(self):
        assert doping_at(self.profile, 0.0) == 1e24

    def test_one_diffusion_length(self):
        assert_allclose(doping_at(self.profile, 1e-5), 1e24 / math.e, rtol=1e-14)

    def test_at_junction_depth(self):
        assert_allclose(doping_at(self.profile, 2.62826e-5), 1.0e21, rtol=1e-4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            doping_at(self.profile, -1e-9)

    @given(st.floats(min_value=0.0, max_value=1e-4),
           st.floats(min_value=1e-9, max_value=1e-4))
    def test_monotone_decreasing(self, x, dx):
        assert doping_at(self.profile, x + dx) < doping_at(self.profile, x)


class TestJunctionDepth:
    def test_ratio_e_gives_l_d(self):
        p = GaussianProfile(n0=math.e * 1e21, l_d=3e-6, n_b=1e21)
        assert_allclose(junction_depth(p), 3e-6, rtol=1e-14)

    def test_worked_value_against_bisection(self):
        p = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
        xj = junction_depth(p)
        assert abs(xj - 2.62826e-5) < 1e-10 or abs(xj - 2.62826e-5) < 1e-9
        assert_allclose(xj, bisect_junction(p, 0.0, 1e-3), rtol=1e-11)

    def test_no_junction_rejected_at_construction(self):
        with pytest.raises(NoJunctionError):
            GaussianProfile(n0=1e21, l_d=1e-5, n_b=1e21)
        with pytest.raises(NoJunctionError):
            GaussianProfile(n0=1e20, l_d=1e-5, n_b=1e21)
        with pytest.raises(NoJunctionError, match="background"):
            GaussianProfile(n0=1e24, l_d=1e-5, n_b=0.0)

    @given(st.floats(min_value=1e20, max_value=1e26),
           st.floats(min_value=1.5, max_value=1e6),
           st.floats(min_value=1e-7, max_value=1e-4))
    def test_is_root_of_doping_minus_background(self, n_b, ratio, l_d):
        p = GaussianProfile(n0=n_b * ratio, l_d=l_d, n_b=n_b)
        xj = junction_depth(p)
        assert_allclose(doping_at(p, xj), n_b, rtol=1e-12)


class TestChargeDensity:
    profile = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)

    def test_paper_model_surface(self):
        assert charge_density(self.profile, 0.0, "paper") == Q * 1e24

    def test_paper_model_one_length(self):
        assert_allclose(charge_density(self.profile, 1e-5, "paper"),
                        1.602176634e-19 * 1e24 / math.e, rtol=1e-14)
        assert_allclose(charge_density(self.profile, 1e-5, "paper"), 5.894e4, rtol=1e-3)

    def test_net_model_zero_at_junction(self):
        xj = junction_depth(self.profile)
        assert abs(charge_density(self.profile, xj, "net")) < 1e-12 * Q * 1e21

    def test_net_model_signs(self):
        xj = junction_depth(self.profile)
        assert charge_density(self.profile, 0.5 * xj, "net") > 0
        assert charge_density(self.profile, 2.0 * xj, "net") < 0

    def test_polarity_flips_net_sign_only(self):
        flipped = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21,
                                  polarity=Polarity.ACCEPTOR_INTO_N)
        x = 1e-5
        assert charge_density(flipped, x, "net") == -charge_density(self.profile, x, "net")
        assert charge_density(flipped, x, "paper") == charge_density(self.profile, x, "paper")

    def test_net_changes_sign_exactly_once(self):
        xj = junction_depth(self.profile)
        xs = [xj * i / 500.0 for i in range(1, 1000)]
        signs = [charge_density(self.profile, x, "net") > 0 for x in xs]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1

    def test_net_model_near_junction_against_mpmath(self):
        # across +-1.25 nm of x_j, the worked junction's two-sided SCR at
        # 1e-9 V, N(x) - N_B is 6.4e-4 of N_B at most: computed as a
        # difference it would cancel to 2.5e-12 of its largest value
        xj = junction_depth(self.profile)
        xs = [xj + 1.25e-9 * (i - 100) / 100 for i in range(201)]
        with mpmath.workdps(40):
            n0, l_d, n_b = (mpmath.mpf(v) for v in (1e24, 1e-5, 1e21))
            ref = [float(mpmath.mpf(Q) * (n0 * mpmath.exp(-(mpmath.mpf(x) / l_d) ** 2) - n_b))
                   for x in xs]
        err = max(abs(charge_density(self.profile, x, "net") - r) for x, r in zip(xs, ref))
        assert err <= 2e-13 * max(map(abs, ref))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            charge_density(self.profile, 0.0, "bogus")

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="from the surface inward"):
            charge_density(self.profile, -1e-9)


@pytest.mark.parametrize("field", ["n0", "l_d", "n_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite(field, value):
    params = dict(n0=1e24, l_d=1e-5, n_b=1e21)
    params[field] = value
    with pytest.raises(ValueError):
        GaussianProfile(**params)
