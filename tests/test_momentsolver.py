import collections
import math
import random
import re
import threading
import time
import types

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from junctionlab import (Bias, ChargeProfile, GaussianProfile, HeteroStack,
                         JunctionSpec, Material, Polarity, Q, get_material,
                         junction_depth, moment_integral,
                         reconstruct_field_potential, solve_hetero,
                         solve_one_sided, solve_two_sided, validity_window,
                         w_sc_general)
from junctionlab import momentsolver
from junctionlab.errors import (JunctionError, StackExhaustedError,
                                SurfaceReachedError, UnreachablePotentialError)

SI = get_material("Si")
WORKED_PROFILE = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
WORKED = JunctionSpec(material=SI, profile=WORKED_PROFILE)


def gaussian_moment_closed_form(n0, l_d, eps, a, b):
    """Closed antiderivative of x*q*N0*exp(-x^2/L^2)/eps on [a, b]."""
    pref = Q * n0 * l_d ** 2 / (2.0 * eps)
    return pref * (math.exp(-(a / l_d) ** 2) - math.exp(-(b / l_d) ** 2))


class TestMomentIntegral:
    def test_constant_charge(self):
        rho = ChargeProfile.step(2.5, scale=1.0)
        assert_allclose(moment_integral(rho, 4.0, 0.0, 3.0),
                        2.5 * 9.0 / (2.0 * 4.0), rtol=1e-12)

    def test_gaussian_matches_antiderivative(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        a, b = WORKED.x_j, WORKED.x_j + 3e-7
        expected = gaussian_moment_closed_form(1e24, 1e-5, SI.eps, a, b)
        assert_allclose(moment_integral(rho, SI.eps, a, b), expected, rtol=1e-10)

    def test_gaussian_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n0 = 10.0 ** rng.uniform(22.0, 26.0)
            l_d = 10.0 ** rng.uniform(-7.0, -4.0)
            a = l_d * rng.uniform(0.0, 3.0)
            b = a + l_d * rng.uniform(0.01, 3.0)
            p = GaussianProfile(n0=n0, l_d=l_d, n_b=n0 / 100.0)
            rho = ChargeProfile.paper(p)
            expected = gaussian_moment_closed_form(n0, l_d, SI.eps, a, b)
            assert_allclose(moment_integral(rho, SI.eps, a, b), expected, rtol=1e-10)

    def test_linear_density(self):
        rho = ChargeProfile(fn=lambda x: x, scale=1.0)
        assert_allclose(moment_integral(rho, 1.0, -1.0, 1.0), 2.0 / 3.0, rtol=1e-12)

    def test_reversed_interval_rejected(self):
        rho = ChargeProfile.step(1.0)
        with pytest.raises(ValueError):
            moment_integral(rho, 1.0, 1.0, 0.5)

    def test_degenerate_interval_is_zero(self):
        rho = ChargeProfile.step(1.0)
        assert moment_integral(rho, 1.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("solve", [
        lambda rho, eps: moment_integral(rho, eps, 0.0, 1e-6),
        lambda rho, eps: solve_one_sided(rho, eps, 0.0, 1.0),
    ], ids=["moment_integral", "solve_one_sided"])
    @pytest.mark.parametrize("eps", [SI.eps, HeteroStack(layers=((SI, 1e-3),))],
                             ids=["constant", "stack"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_integrand(self, value, eps, solve):
        # a constant permittivity is divided by directly, a stack's is called
        # at each node: both reach the same check
        rho = ChargeProfile(fn=lambda x: value, scale=1e-6)
        with pytest.raises(ArithmeticError, match=r"^non-finite integrand at x = "):
            solve(rho, eps)

    def test_infinite_upper_limit(self):
        rho = ChargeProfile(fn=lambda x: math.exp(-x * x), scale=1.0)
        assert_allclose(moment_integral(rho, 1.0, 0.0, math.inf), 0.5, rtol=1e-12)

    def test_divergent_upper_limit_raises(self):
        # |rho| tends to q*N_B at depth, so the moment to inf grows like x^2
        rho = ChargeProfile.net_magnitude(WORKED_PROFILE)
        with pytest.raises(ArithmeticError, match=r", inf\] not resolved in 200 panels"):
            moment_integral(rho, SI.eps, WORKED.x_j, math.inf)

    @pytest.mark.parametrize("a, b", [(WORKED.x_j, math.inf), (0.0, math.inf),
                                      (WORKED.x_j, 1.0)],
                             ids=["xj-inf", "zero-inf", "xj-1m"])
    def test_narrow_charge_over_a_wide_interval(self, a, b):
        # a 10 um Gaussian on an interval metres long: one panel's nodes
        # would all fall where it has underflowed to 0
        rho = ChargeProfile.paper(WORKED_PROFILE)
        expected = gaussian_moment_closed_form(1e24, 1e-5, SI.eps, a, b)
        assert_allclose(moment_integral(rho, SI.eps, a, b), expected, rtol=1e-12)


def _counted(fn):
    """fn, and the list of points it is called at."""
    xs = []

    def f(x):
        xs.append(x)
        return fn(x)
    return f, xs


class TestQuadratureRule:
    """momentsolver._quad: QUADPACK's qk21 run adaptively as qagse runs it,
    or, for a warm increment, a panel of Kronrod's 7-point rule before qk15."""

    def test_gauss_nodes_and_weights(self):
        gauss = [(x, wg) for x, _, wg in momentsolver._GK21[2] if wg]
        nodes = sorted([-x for x, _ in gauss] + [x for x, _ in gauss])
        weights = [wg for _, wg in sorted(gauss, key=lambda g: -g[0])]
        x_ref, w_ref = np.polynomial.legendre.leggauss(10)
        assert_allclose(nodes, x_ref, rtol=0, atol=2e-16)
        assert_allclose(weights + weights[::-1], w_ref, rtol=0, atol=2e-16)
        # and the Kronrod weights integrate the constant 1 over [-1, 1] to 2
        kronrod = 2.0 * sum(wk for _, wk, _ in momentsolver._GK21[2])
        assert abs(kronrod + momentsolver._GK21[0] - 2.0) <= 4e-16

    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (-3.0, -1.0), (3.0, 3.5), (1e-3, 1.0)])
    def test_kronrod_exact_to_degree_30(self, a, b):
        for k in range(31):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = momentsolver._qk(lambda x: x ** k, a, b, momentsolver._GK21)[0]
            assert abs(got - exact) <= 1e-14 * abs(exact), k

    @pytest.mark.parametrize("rule, n", [("_QK15", 7), ("_QK7", 3)])
    def test_embedded_gauss_rules(self, rule, n):
        # each short rule's Gauss part is the n-point Gauss rule, centre
        # included, and its Kronrod weights integrate 1 over [-1, 1] to 2
        k_centre, g_centre, nodes = getattr(momentsolver, rule)
        full = sorted([(0.0, k_centre, g_centre),
                       *((s * x, wk, wg) for x, wk, wg in nodes for s in (-1.0, 1.0))])
        assert len(full) == 2 * n + 1
        gauss = [(x, wg) for x, _, wg in full if wg]
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert_allclose([x for x, _ in gauss], x_ref, rtol=0, atol=2e-16)
        assert_allclose([wg for _, wg in gauss], w_ref, rtol=0, atol=4e-16)
        assert abs(sum(wk for _, wk, _ in full) - 2.0) <= 4e-16

    @pytest.mark.parametrize("rule, degree", [("_QK15", 23), ("_QK7", 11)])
    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (-3.0, -1.0), (3.0, 3.5), (1e-3, 1.0)])
    def test_short_rules_exact_to_their_degree(self, rule, degree, a, b):
        for k in range(degree + 1):
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            got = momentsolver._qk(lambda x: x ** k, a, b, getattr(momentsolver, rule))[0]
            assert abs(got - exact) <= 1e-14 * abs(exact), k

    def test_kronrod_7_point_extension_from_its_moment_equations(self):
        # the 3-point Gauss rule's Kronrod extension adds the nodes +-a,
        # +-b; those two and its four weights solve the six even moment
        # equations through degree 10, and the rule is exact to degree 11
        # only
        with mpmath.workdps(50):
            g = mpmath.sqrt(mpmath.mpf(3) / 5)

            def residual(k, a, b, w0, wg, wa, wb):
                return ((w0 if k == 0 else 0) + 2 * (wg * g ** k + wa * a ** k + wb * b ** k)
                        - mpmath.mpf(2) / (k + 1))

            root = mpmath.findroot(lambda *v: [residual(k, *v) for k in range(0, 11, 2)],
                                   (0.96, 0.43, 0.45, 0.27, 0.10, 0.40))
            assert all(abs(residual(k, *root)) <= 1e-40 for k in range(0, 11, 2))
            assert abs(residual(12, *root)) > 1e-4
            a, b, w0, wg, wa, wb = (float(v) for v in root)
        k_centre, _, nodes = momentsolver._QK7
        assert k_centre == w0
        assert [(x, wk) for x, wk, _ in nodes] == [(float(g), wg), (a, wa), (b, wb)]

    def test_agrees_with_quadpack_on_solver_integrands(self):
        from scipy.integrate import quad
        rng = np.random.default_rng(18)
        cases = 0
        for _ in range(25):
            n_b = 10.0 ** rng.uniform(19.0, 23.0)
            p = GaussianProfile(n0=n_b * 10.0 ** rng.uniform(0.5, 5.0),
                                l_d=10.0 ** rng.uniform(-8.0, -4.5), n_b=n_b)
            x_j = junction_depth(p)
            near = [x_j + p.l_d * k for k in (0, *momentsolver._NEAR_SPLITS)]
            pieces = [*zip(near, near[1:]), (0.0, x_j)]
            for rho, centre in ((ChargeProfile.paper(p), 0.0), (ChargeProfile.net(p), x_j),
                                (ChargeProfile.net_magnitude(p), 0.0)):
                fn = momentsolver._moment_integrand(rho, lambda x: SI.eps, centre)
                integrals = [(fn, a, b) for a, b in pieces] + [(rho.fn, a, b) for a, b in pieces]
                if rho.steps == () and centre == 0.0:
                    # only the paper moment converges to infinity
                    integrals += [(fn, a, math.inf) for a in (0.0, x_j, near[-1])]
                # a permittivity step, split there as the running integral splits
                interface = x_j + p.l_d * rng.uniform(0.2, 3.0)
                stack = HeteroStack(layers=((SI, interface), (get_material("Ge"), 1.0)))
                fn = momentsolver._moment_integrand(rho, stack.eps_at, centre)
                integrals += [(fn, x_j, interface), (fn, interface, x_j + 5.0 * p.l_d)]
                for fn, a, b in integrals:
                    f, xs = _counted(fn)
                    ours = momentsolver._quad(f, a, b)
                    g, xs_ref = _counted(fn)
                    ref = quad(g, a, b, epsabs=1e-30, epsrel=1e-12, limit=200,
                               full_output=1)[0]
                    assert abs(ours - ref) <= 1e-13 * abs(ref), (a, b, ours, ref)
                    # on a finite interval it bisects the same panels; to
                    # inf quad runs qk15i where the rule runs qk21
                    assert len(xs) == len(xs_ref) or b == math.inf, (a, b)
                    cases += 1
        assert cases == 25 * (3 * 14 + 3)

    @pytest.mark.parametrize("fn, a, b", [
        (lambda x: math.exp(-x * x), 0.0, 1.0),         # one panel
        (lambda x: abs(x - 0.3), 0.0, 1.0),             # bisected at a kink
        (lambda x: x * math.exp(-x * x), 0.0, math.inf),
    ], ids=["smooth", "kink", "to-inf"])
    def test_never_evaluates_an_endpoint(self, fn, a, b):
        f, xs = _counted(fn)
        momentsolver._quad(f, a, b)
        assert xs and all(a < x < b for x in xs)

    def test_infinite_interval_binds_its_start(self):
        # x*exp(-x^2) from 100 to inf is exp(-10^4)/2, which underflows to 0
        assert momentsolver._quad(lambda x: x * math.exp(-x * x), 100.0, math.inf) == 0.0
        assert_allclose(momentsolver._quad(lambda x: x * math.exp(-x * x), 1.0, math.inf),
                        0.5 * math.exp(-1.0), rtol=1e-13)

    def test_exhausted_panels_raise(self):
        # 1.6e8 periods of sin(1e9*x) on [0, 1]: no panel of 200 resolves
        # one, so every panel keeps an error near its width
        f, xs = _counted(lambda x: math.sin(1e9 * x))
        with pytest.raises(ArithmeticError, match=r"^integral over \[0, 1\] not resolved"):
            momentsolver._quad(f, 0.0, 1.0)
        assert len(xs) == 21 * (2 * momentsolver._PANELS - 1)

    @pytest.mark.parametrize("fn", [lambda x: math.exp(-x * x), lambda x: abs(x - 0.3)],
                             ids=["smooth", "kink"])
    def test_escalation_reruns_with_qk15(self, fn):
        # on [0, 1] the 7-point panel fails its error test, and the result is
        # qk15's, run adaptively (one panel when smooth, bisected at the
        # kink), after the 7 evaluations of the failed panel
        f, xs = _counted(fn)
        escalated = momentsolver._quad(f, 0.0, 1.0, (momentsolver._QK7, momentsolver._QK15))
        g, xs_ref = _counted(fn)
        assert escalated == momentsolver._quad(g, 0.0, 1.0, (momentsolver._QK15,))
        assert len(xs) == len(xs_ref) + 7

    def test_escalation_keeps_a_passing_7_point_panel(self):
        # exp over a short interval, as a warm increment is: one panel of 7
        f, xs = _counted(math.exp)
        got = momentsolver._quad(f, 1.0, 1.001, (momentsolver._QK7, momentsolver._QK15))
        assert len(xs) == 7
        with mpmath.workdps(40):
            exact = float(mpmath.exp(mpmath.mpf(1.001)) - mpmath.exp(1))
        assert_allclose(got, exact, rtol=1e-15)

    def test_worked_junction_rho_evaluations(self):
        # the oracle's machine-independent cost on the worked junction (111
        # and 1 224 when a root search stopped only on a step within
        # _XTOL + _RTOL*|x|, not on the error two Newton steps predict; the
        # two-sided 1 111 when a Newton search on x_right solved neutrality
        # for x_left at every point, not one Newton iteration in both)
        target = WORKED.v_bi + 10.0
        paper, xs = _counted(ChargeProfile.paper(WORKED_PROFILE).fn)
        solve_one_sided(ChargeProfile(fn=paper, scale=1e-5), SI.eps, WORKED.x_j, target)
        assert len(xs) <= 89
        net, xs = _counted(ChargeProfile.net(WORKED_PROFILE).fn)
        solve_two_sided(ChargeProfile(fn=net, scale=1e-5), SI.eps, WORKED.x_j, target)
        assert len(xs) <= 435

    def test_worked_junction_bias_grid_rho_evaluations(self):
        # criterion 3's 50-point grid on one profile: each solve continues
        # from the last root (7 003 evaluations when every solve was cold,
        # 5 152 when a warm solve probed at twice the Newton step and spent
        # a panel on its root's moment, 3 768 when its first point was the
        # tangent step from the last root and it stopped only on a step
        # within _XTOL + _RTOL*w, 2 536 when a warm increment got qk21
        # panels, not a 7-point panel before qk15)
        assert _worked_bias_grid_rho_evaluations(range(50)) <= 1051

    def test_worked_junction_descending_bias_grid_rho_evaluations(self):
        # the same grid run downwards (6 187 with the probe and the panel,
        # 5 704 with the tangent step and the step-size stop)
        assert _worked_bias_grid_rho_evaluations(range(49, -1, -1)) <= 4983


def _worked_bias_grid_rho_evaluations(steps) -> int:
    """rho evaluations of criterion 3's worked-junction grid, solved in the
    order of ``steps`` on one profile, each width checked at 1e-12."""
    window = validity_window(WORKED)
    paper, xs = _counted(ChargeProfile.paper(WORKED_PROFILE).fn)
    rho = ChargeProfile(fn=paper, scale=1e-5)
    for i in steps:
        r = w_sc_general(WORKED, Bias(window.v_max_reverse * 0.98 * i / 49.0, "reverse"))
        sol = solve_one_sided(rho, SI.eps, WORKED.x_j, r.total_potential)
        assert abs(sol.width - r.w_sc) <= 1e-12 * r.w_sc
    return len(xs)


@pytest.mark.parametrize("scale",[-1e-6, 0.0, math.nan, math.inf, -math.inf])
def test_charge_profile_scale_validation(scale):
    # a scale that is not finite and positive would stall the bracket
    # search at a zero-slope origin, so only the constructor is called
    with pytest.raises(ValueError):
        ChargeProfile.step(1.0, scale=scale)
    with pytest.raises(ValueError):
        ChargeProfile(fn=lambda x: 1.0, scale=scale)


class TestRunningIntegral:
    """momentsolver._running_integral splits each increment at the breaks
    strictly inside it, each once, and sums the pieces left to right."""

    @staticmethod
    def fn(x):
        # kinks at -0.35, 0.3 and 0.7, so that a split there moves the sum's bits
        return abs(x + 0.35) + abs(x - 0.3) * math.exp(x) + abs(x - 0.7)

    @classmethod
    def pieces(cls, points) -> tuple:
        """The left-to-right sum of _quad over consecutive points, and its
        evaluations of fn."""
        f, xs = _counted(cls.fn)
        total = 0.0
        for a, b in zip(points, points[1:]):
            total += momentsolver._quad(f, a, b)
        return total, len(xs)

    @pytest.mark.parametrize("breaks, x, points", [
        ((0.3,), 1.0, (0.0, 0.3, 1.0)),
        ((0.0, 1.0), 1.0, (0.0, 1.0)),
        ((-0.35, 1.5, 0.3), 0.2, (0.0, 0.2)),
        ((0.7, 0.3, 0.7, 0.3), 1.0, (0.0, 0.3, 0.7, 1.0)),
        ((0.7, math.nan, math.inf, 0.3, -math.inf), 1.0, (0.0, 0.3, 0.7, 1.0)),
        ((0.3, -0.35, math.nan, -math.inf, -0.35), -1.0, (-1.0, -0.35, 0.0)),
        ((0.0, -1.0, 0.3, math.inf), -1.0, (-1.0, 0.0)),
    ], ids=["inside", "at-the-ends", "outside", "duplicated-unsorted", "nan-and-infs",
            "left-of-origin", "left-at-the-ends"])
    def test_split_points(self, breaks, x, points):
        f, xs = _counted(self.fn)
        got = momentsolver._running_integral(f, 0.0, breaks)(x)
        expected, evaluations = self.pieces(points)
        # left of the origin the increment is subtracted from 0
        assert got == (expected if x > 0.0 else 0.0 - expected)
        assert len(xs) == evaluations
        if len(points) > 2:  # the split moves the bits here
            assert got != self.pieces((points[0], points[-1]))[0] * (1.0 if x > 0.0 else -1.0)

    def test_seeded_integral(self):
        # a seed point at 0.5: below it an increment starts at the origin,
        # above it at the seed, and each is split only at its own breaks
        seed_value = 1.25
        f, xs = _counted(self.fn)
        value = momentsolver._running_integral(f, 0.0, (0.7, 0.3, math.nan), ((0.5, seed_value),))
        assert value(0.5) == seed_value and not xs
        assert value(0.4) == self.pieces((0.0, 0.3, 0.4))[0]
        assert value(1.0) == seed_value + self.pieces((0.5, 0.7, 1.0))[0]
        assert value(0.6) == seed_value + self.pieces((0.5, 0.6))[0]
        assert len(xs) == 21 * 5
        assert value.points == ([0.0, 0.4, 0.5, 0.6, 1.0],
                                [0.0, value(0.4), seed_value, value(0.6), value(1.0)])


class TestSolveOneSided:
    def test_constant_charge_textbook_width(self):
        n = 1e21
        rho = ChargeProfile.step(Q * n, scale=1e-6)
        target = 5.0
        sol = solve_one_sided(rho, SI.eps, 0.0, target)
        assert_allclose(sol.x_right, math.sqrt(2.0 * SI.eps * target / (Q * n)),
                        rtol=1e-10)

    def test_oracle_matches_closed_form(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        r = w_sc_general(WORKED, Bias(10.0, "reverse"))
        sol = solve_one_sided(rho, SI.eps, WORKED.x_j, r.total_potential)
        assert_allclose(sol.width, r.w_sc, rtol=1e-12)

    def test_narrow_scr_width_keeps_its_digits(self):
        # 23 uV short of flat band the SCR is 4.9 fm wide at x_j = 303 um,
        # a few hundred ulps of x_j: the solve's unknown is the width
        profile = GaussianProfile(n0=1e26, l_d=1e-4, n_b=1e22)
        spec = JunctionSpec(material=SI, profile=profile)
        r = w_sc_general(spec, Bias(0.9524, "forward"))
        assert r.w_sc < 1e-14
        sol = solve_one_sided(ChargeProfile.paper(profile), SI.eps, spec.x_j, r.total_potential)
        assert_allclose(sol.width, r.w_sc, rtol=1e-12)
        assert (sol.x_left, sol.x_right) == (spec.x_j, spec.x_j + sol.width)

    def test_unreachable_supremum_matches_window(self):
        # the supremum's tail ends at the domain's end: infinity, or the
        # 1 mm stack end, past which the Gaussian has long underflowed
        rho = ChargeProfile.paper(WORKED_PROFILE)
        window = validity_window(WORKED)
        for eps in (SI.eps, HeteroStack(layers=((SI, 1e-3),))):
            with pytest.raises(UnreachablePotentialError) as exc:
                solve_one_sided(rho, eps, WORKED.x_j, 200.0)
            assert_allclose(exc.value.supremum, window.v_max_reverse + WORKED.v_bi,
                            rtol=1e-9)

    def test_nonpositive_target_rejected(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        with pytest.raises(ValueError):
            solve_one_sided(rho, SI.eps, WORKED.x_j, 0.0)


def _grid(rho, eps, x_start, targets) -> list:
    return [solve_one_sided(rho, eps, x_start, t) for t in targets]


def _cold(make_rho, eps, x_start, targets) -> list:
    """Each target solved on a newly built profile."""
    return [solve_one_sided(make_rho(), eps, x_start, t) for t in targets]


def _assert_agree(warm, cold):
    """A continued solve agrees with a cold one within the quadrature's
    tolerance, not bit for bit."""
    assert len(warm) == len(cold)
    for w, c in zip(warm, cold):
        assert w.x_left == c.x_left
        assert abs(w.width - c.width) <= 1e-13 * c.width
        assert abs(w.moment_value - c.moment_value) <= 1e-15 * c.moment_value


def _paper_junctions(n, seed) -> list:
    """(spec, 41 targets from 0.4 V_bi forward to 0.98 of the reverse
    window) for n random junctions, as the oracle's bias grids run."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        n_b = 10.0 ** rng.uniform(19.0, 23.0)
        n0 = n_b * 10.0 ** rng.uniform(1.0, min(26.0 - math.log10(n_b), 4.0))
        spec = JunctionSpec(material=SI, profile=GaussianProfile(
            n0=n0, l_d=10.0 ** rng.uniform(-7.0, -4.0), n_b=n_b))
        try:
            v_max = validity_window(spec).v_max_reverse
        except JunctionError:
            continue
        if v_max > 0.1 * spec.v_bi:
            start, stop = 0.6 * spec.v_bi, spec.v_bi + 0.98 * v_max
            out.append((spec, [start + (stop - start) * i / 40 for i in range(41)]))
    return out


class TestContinuation:
    """Successive one-sided solves on one ChargeProfile object, with an
    equal eps and x_start, start from the last root; "cold" is a solve on
    a newly built profile."""

    def test_ascending_worked_grid(self):
        v_max = validity_window(WORKED).v_max_reverse
        targets = [WORKED.v_bi * (0.02 + 0.98 * i / 1999) + 0.98 * v_max * i / 1999
                   for i in range(2000)]
        paper, xs = _counted(ChargeProfile.paper(WORKED_PROFILE).fn)
        warm = _grid(ChargeProfile(fn=paper, scale=1e-5), SI.eps, WORKED.x_j, targets)
        warm_evals = len(xs)
        xs.clear()
        cold = _cold(lambda: ChargeProfile(fn=paper, scale=1e-5), SI.eps, WORKED.x_j, targets)
        _assert_agree(warm, cold)
        assert warm_evals < 0.8 * len(xs)

    @pytest.mark.parametrize("spec, targets", _paper_junctions(3, 23))
    def test_ascending_junction_grids(self, spec, targets):
        rho = ChargeProfile.paper(spec.profile)
        warm = _grid(rho, spec.eps, spec.x_j, targets)
        cold = _cold(lambda: ChargeProfile.paper(spec.profile), spec.eps, spec.x_j, targets)
        _assert_agree(warm, cold)

    def test_descending_and_repeated_targets(self):
        targets = [WORKED.v_bi + 50.0 - 0.5 * i for i in range(100)]
        targets += [WORKED.v_bi, WORKED.v_bi, WORKED.v_bi + 10.0, WORKED.v_bi + 10.0]
        rho = ChargeProfile.paper(WORKED_PROFILE)
        warm = _grid(rho, SI.eps, WORKED.x_j, targets)
        cold = _cold(lambda: ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, targets)
        _assert_agree(warm, cold)

    def test_narrow_scrs_stop_on_a_relative_error(self):
        # criterion 3's junction whose SCR is 8.5 nm wide at 0 V: a stop on
        # a predicted error of _XTOL + _RTOL*w, 1e-18 m being 1.2e-10 of
        # that width, puts warm widths 3.2e-11 from cold ones
        profile = GaussianProfile(n0=2.375198852632017e25, l_d=4.375842260964055e-7,
                                  n_b=7.2598171651523845e22)
        spec = JunctionSpec(material=SI, profile=profile)
        v_max = validity_window(spec).v_max_reverse
        targets = [w_sc_general(spec, Bias(v_max * 0.98 * i / 49.0, "reverse")).total_potential
                   for i in range(50)]
        warm = _grid(ChargeProfile.paper(profile), SI.eps, spec.x_j, targets)
        assert warm[0].width < 1e-8
        _assert_agree(warm, _cold(lambda: ChargeProfile.paper(profile), SI.eps,
                                  spec.x_j, targets))

    def test_misses_solve_cold(self):
        # a solve continues only on the same profile object with an equal
        # eps and x_start; anything else gives the cold solution's bits
        other = GaussianProfile(n0=1e25, l_d=3e-6, n_b=1e22)
        spec = JunctionSpec(material=SI, profile=other)
        one_layer = HeteroStack(layers=((SI, 1e-3),))
        a, b = ChargeProfile.paper(WORKED_PROFILE), ChargeProfile.paper(other)
        for k in range(10):
            t = WORKED.v_bi + k
            assert solve_one_sided(a, SI.eps, WORKED.x_j, t) == solve_one_sided(
                ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, t)
            assert solve_one_sided(b, SI.eps, spec.x_j, t) == solve_one_sided(
                ChargeProfile.paper(other), SI.eps, spec.x_j, t)
        for k in range(10):
            t = WORKED.v_bi + k
            solve_one_sided(a, SI.eps, WORKED.x_j, t)
            assert solve_one_sided(a, one_layer, WORKED.x_j, t + 0.5) == solve_one_sided(
                ChargeProfile.paper(WORKED_PROFILE), one_layer, WORKED.x_j, t + 0.5)
            solve_one_sided(a, SI.eps, WORKED.x_j, t)
            assert solve_one_sided(a, SI.eps, 0.5 * WORKED.x_j, t + 0.5) == solve_one_sided(
                ChargeProfile.paper(WORKED_PROFILE), SI.eps, 0.5 * WORKED.x_j, t + 0.5)

    def test_unreachable_after_warm_grid(self):
        with pytest.raises(UnreachablePotentialError) as cold:
            solve_one_sided(ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, 200.0)
        rho = ChargeProfile.paper(WORKED_PROFILE)
        _grid(rho, SI.eps, WORKED.x_j, [WORKED.v_bi + k for k in range(20)])
        with pytest.raises(UnreachablePotentialError) as warm:
            solve_one_sided(rho, SI.eps, WORKED.x_j, 200.0)
        assert abs(warm.value.supremum - cold.value.supremum) <= 1e-12 * cold.value.supremum

    def test_stack_end_after_warm_grid(self):
        stack = HeteroStack(layers=((SI, WORKED.x_j + 2e-5),))
        with pytest.raises(StackExhaustedError) as cold:
            solve_one_sided(ChargeProfile.paper(WORKED_PROFILE), stack, WORKED.x_j, 100.0)
        assert str(cold.value) == ("SCR would extend past the stack end at 4.62826e-05 m "
                                   "(moment reaches only 77.3296 of 100 V)")
        rho = ChargeProfile.paper(WORKED_PROFILE)
        _grid(rho, stack, WORKED.x_j, [WORKED.v_bi + k for k in range(20)])
        with pytest.raises(StackExhaustedError) as warm:
            solve_one_sided(rho, stack, WORKED.x_j, 100.0)
        assert str(warm.value) == str(cold.value)

    def test_raising_solve_keeps_the_record(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        targets = [WORKED.v_bi + k for k in range(20)]
        warm = _grid(rho, SI.eps, WORKED.x_j, targets[:10])
        record = momentsolver._last
        assert record[0] is rho and record[3]
        with pytest.raises(UnreachablePotentialError):
            solve_one_sided(rho, SI.eps, WORKED.x_j, 200.0)
        assert momentsolver._last is record
        warm += _grid(rho, SI.eps, WORKED.x_j, targets[10:])
        cold = _cold(lambda: ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, targets)
        _assert_agree(warm, cold)

    def test_no_seed_below_searches_from_the_origin(self):
        # the net-magnitude moment from x_j is convex, so Newton from a
        # seeded upper end converges from above and leaves no seed below
        # the next, lower target; that solve searches out from the origin
        # as a cold one does (6 619 evaluations with the doubled probe;
        # 28 427 when it took Newton steps from the origin, each first
        # increment one quadrature across ~100 L_d; 5 669 when a search
        # stopped only on a step within _XTOL + _RTOL*w; 4 945 when a warm
        # increment got qk21 panels)
        profile = GaussianProfile(n0=1e26, l_d=1e-7, n_b=1e20)
        spec = JunctionSpec(material=SI, profile=profile)
        targets = [0.5 + (spec.v_bi + 9.5) * i / 40 for i in range(40, -1, -1)]
        base = ChargeProfile.net_magnitude(profile)
        net, xs = _counted(base.fn)
        rho = ChargeProfile(fn=net, steps=base.steps, scale=base.scale)
        warm = _grid(rho, SI.eps, spec.x_j, targets)
        assert len(xs) <= 3934
        _assert_agree(warm, _cold(lambda: ChargeProfile.net_magnitude(profile), SI.eps,
                                  spec.x_j, targets))

    def test_convex_moment_ascending_grid(self):
        # on a convex moment a Newton step from below lands above the
        # root; the safeguarded Newton that starts there takes the step
        # that reached it as the first of two Newton steps, and stops on
        # their predicted error (2 857 evaluations when it did not, 2 109
        # when a warm increment got qk21 panels)
        profile = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
        spec = JunctionSpec(material=SI, profile=profile)
        targets = [0.5 + (spec.v_bi + 9.5) * i / 40 for i in range(41)]
        base = ChargeProfile.net_magnitude(profile)
        net, xs = _counted(base.fn)
        warm = _grid(ChargeProfile(fn=net, steps=base.steps, scale=base.scale), SI.eps,
                     spec.x_j, targets)
        assert len(xs) <= 900
        _assert_agree(warm, _cold(lambda: ChargeProfile.net_magnitude(profile), SI.eps,
                                  spec.x_j, targets))

    @pytest.mark.parametrize("n0, l_d, n_b", [(1e24, 1e-5, 1e21), (5e23, 3e-7, 2.5e23),
                                              (1e25, 3e-6, 1e22), (1.0000001e21, 1e-5, 1e21)])
    def test_paper_grids_against_mpmath(self, n0, l_d, n_b):
        # the paper moment from x_j is q*N0*L^2/(2*eps)*[exp(-x_j^2/L^2) -
        # exp(-(x_j + w)^2/L^2)], so the width at a target is analytic; the
        # panel's 41-point grids, up and down, each on one profile
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=SI, profile=profile)
        grid = [0.5 + (spec.v_bi + 9.5) * i / 40 for i in range(41)]
        with mpmath.workdps(50):
            length, x_j = mpmath.mpf(l_d), mpmath.mpf(spec.x_j)
            pref = mpmath.mpf(Q) * n0 * length ** 2 / (2 * mpmath.mpf(SI.eps))
            for targets in (grid, grid[::-1]):
                warm = _grid(ChargeProfile.paper(profile), SI.eps, spec.x_j, targets)
                for t, sol in zip(targets, warm):
                    a = mpmath.exp(-(x_j / length) ** 2) - t / pref
                    w = length * mpmath.sqrt(-mpmath.log(a)) - x_j
                    assert abs(sol.width - w) <= 2e-15 * w, t

    @pytest.mark.parametrize("model", ["paper", "net_magnitude"])
    @pytest.mark.parametrize("n0, l_d, n_b", [(1e24, 1e-5, 1e21), (5e23, 3e-7, 2.5e23),
                                              (1e25, 3e-6, 1e22), (1.0000001e21, 1e-5, 1e21)])
    def test_reported_moment_is_the_target(self, n0, l_d, n_b, model):
        # the root's moment is one Taylor step from the last point
        # evaluated, within _XTOL + _RTOL*w of it: no quadrature across an
        # increment only ulps of x_j wide, which missed the target by up to
        # 2.8e-12 on the net-magnitude model
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=SI, profile=profile)
        targets = [1e-6 * ((spec.v_bi + 10.0) / 1e-6) ** (i / 59) for i in range(60)]
        make = getattr(ChargeProfile, model)
        warm = _grid(make(profile), SI.eps, spec.x_j, targets)
        cold = _cold(lambda: make(profile), SI.eps, spec.x_j, targets)
        for t, w, c in zip(targets, warm, cold):
            assert abs(w.moment_value - t) <= 1e-15 * t
            assert abs(c.moment_value - t) <= 1e-15 * t

    def test_two_threads(self):
        # the record is one immutable tuple, replaced whole, and each
        # solve's running integral is its own: a race can only cost a miss
        other = GaussianProfile(n0=1e25, l_d=3e-6, n_b=1e22)
        jobs = [(WORKED_PROFILE, WORKED), (other, JunctionSpec(material=SI, profile=other))]
        results = {}

        def run(profile, spec):
            targets = [spec.v_bi + 0.25 * i for i in range(200)]
            results[profile] = targets, _grid(ChargeProfile.paper(profile), SI.eps,
                                              spec.x_j, targets)

        threads = [threading.Thread(target=run, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for profile, spec in jobs:
            targets, warm = results[profile]
            cold = _cold(lambda: ChargeProfile.paper(profile), SI.eps, spec.x_j, targets)
            _assert_agree(warm, cold)


class TestSolveTwoSided:
    def test_symmetric_step(self):
        n = 1e21
        x_j = 5e-6
        def fn(x):
            return Q * n if x < x_j else -Q * n
        rho = ChargeProfile(fn=fn, steps=(x_j,), scale=1e-6)
        sol = solve_two_sided(rho, SI.eps, x_j, 2.0)
        assert_allclose(x_j - sol.x_left, sol.x_right - x_j, rtol=1e-9)

    def test_asymmetric_step_width_ratio(self):
        n_a, n_d = 1e23, 1e21  # 100:1
        x_j = 2e-5
        def fn(x):
            return Q * n_a if x < x_j else -Q * n_d
        rho = ChargeProfile(fn=fn, steps=(x_j,), scale=1e-6)
        sol = solve_two_sided(rho, SI.eps, x_j, 3.0)
        w_p = x_j - sol.x_left
        w_n = sol.x_right - x_j
        assert_allclose(w_n / w_p, 100.0, rtol=1e-8)

    def test_neutrality_and_potential_hold(self):
        rho = ChargeProfile.net(WORKED_PROFILE)
        target = WORKED.v_bi + 10.0
        sol = solve_two_sided(rho, SI.eps, WORKED.x_j, target)
        assert sol.x_left < WORKED.x_j < sol.x_right
        assert_allclose(sol.moment_value, target, rtol=1e-10)

    def test_surface_reached(self):
        # thin diffused layer cannot neutralize a deep substrate depletion
        p = GaussianProfile(n0=1e22, l_d=1e-7, n_b=5e21)
        rho = ChargeProfile.net(p)
        from junctionlab import junction_depth
        with pytest.raises(SurfaceReachedError):
            solve_two_sided(rho, SI.eps, junction_depth(p), 50.0)


ANALYTIC_TARGETS = [WORKED.v_bi + 10.0, 1e-3, 1e-9]


class TestReconstruct:
    def test_constant_charge_affine_field(self):
        n = 1e21
        rho = ChargeProfile.step(Q * n, scale=1e-6)
        sol = solve_one_sided(rho, SI.eps, 0.0, 3.0)
        samples = reconstruct_field_potential(rho, SI.eps, 0.0, sol.x_right, 21)
        xs = np.array([s[0] for s in samples])
        es = np.array([s[1] for s in samples])
        coef = np.polyfit(xs, es, 1)
        fit = np.polyval(coef, xs)
        assert np.max(np.abs(es - fit)) < 1e-9 * np.max(np.abs(es))

    def test_two_sided_field_vanishes_at_ends(self):
        rho = ChargeProfile.net(WORKED_PROFILE)
        target = WORKED.v_bi + 5.0
        sol = solve_two_sided(rho, SI.eps, WORKED.x_j, target)
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 51)
        e_max = max(abs(s[1]) for s in samples)
        assert abs(samples[0][1]) <= 1e-9 * e_max
        assert abs(samples[-1][1]) <= 1e-9 * e_max

    def test_potential_drop_matches_target(self):
        rho = ChargeProfile.net(WORKED_PROFILE)
        target = WORKED.v_bi + 5.0
        sol = solve_two_sided(rho, SI.eps, WORKED.x_j, target)
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 51)
        drop = abs(samples[-1][2] - samples[0][2])
        assert_allclose(drop, target, rtol=1e-8)

    @pytest.mark.parametrize("target", ANALYTIC_TARGETS)
    def test_potential_matches_antiderivatives(self, target):
        # u(x) = q/eps*[(G(x) - G(x_left)) - x*(F(x) - F(x_left))], F the
        # charge and G the first moment; at 1e-9 V the SCR is nm wide and
        # the net charge nearly cancels across it
        rho = ChargeProfile.net(WORKED_PROFILE)
        sol = solve_two_sided(rho, SI.eps, WORKED.x_j, target)
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 201)
        with mpmath.workdps(40):
            xl = mpmath.mpf(sol.x_left)

            def u_ref(x):
                x = mpmath.mpf(x)
                g = first_moment(WORKED_PROFILE, x) - first_moment(WORKED_PROFILE, xl)
                f = charge(WORKED_PROFILE, x) - charge(WORKED_PROFILE, xl)
                return float((g - x * f) * mpmath.mpf(Q) / mpmath.mpf(SI.eps))
            ref = [u_ref(x) for x, _, _ in samples]
        err = max(abs(s[2] - r) for s, r in zip(samples, ref))
        assert err <= 1e-12 * max(abs(r) for r in ref)

    @pytest.mark.parametrize("target", ANALYTIC_TARGETS)
    def test_rho_evaluations(self, target):
        # the smooth net charge is one Chebyshev piece, judged from its own
        # coefficients: 17 + 33 points at V_bi + 10 V and 1 nV, whose
        # 17-point series is still above its floor, and 17 at 1 mV
        net = ChargeProfile.net(WORKED_PROFILE)
        sol = solve_two_sided(net, SI.eps, WORKED.x_j, target)
        calls = []
        rho = ChargeProfile(fn=lambda x: calls.append(x) or net.fn(x), scale=net.scale)
        reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 201)
        assert len(calls) == dict(zip(ANALYTIC_TARGETS, (50, 17, 50)))[target]

    def test_step_across_permittivity_interface(self):
        # no node may sit on the interface, where eps_at returns the left
        # layer's eps; E and u are piecewise polynomials there
        rho_val, b1 = Q * 1e22, 0.5e-6
        low_k = Material("low-k", 4.0, SI.n_i, 300.0)
        stack = HeteroStack(layers=((SI, b1), (low_k, 1e-3)))
        samples = reconstruct_field_potential(ChargeProfile.step(rho_val), stack,
                                              0.0, 1.2e-6, 201)

        def analytic(x):
            if x <= b1:
                return rho_val * x / SI.eps, -rho_val * x * x / (2.0 * SI.eps)
            e1, d = rho_val * b1 / SI.eps, x - b1
            return (e1 + rho_val * d / low_k.eps,
                    -rho_val * b1 * b1 / (2.0 * SI.eps) - e1 * d - rho_val * d * d / (2.0 * low_k.eps))
        want = [analytic(x) for x, _, _ in samples]
        for col in (1, 2):
            err = max(abs(s[col] - w[col - 1]) for s, w in zip(samples, want))
            assert err <= 1e-13 * max(abs(w[col - 1]) for w in want), col

    @pytest.mark.parametrize("p", [1, 3, 9])
    def test_undeclared_kink_raises(self, p):
        # |x - c|^p has Chebyshev coefficients falling like k^-(p+1): at
        # p = 1 and 3 the top quarter of the 129-point series is still
        # above 1e-10 of the largest, and at p = 9 it is still ~30 times
        # below the quarter under it, short of the rounding floor; the
        # error names the piece between splits that holds c
        c = 0.3e-6
        rho = ChargeProfile(fn=lambda x: Q * 1e22 * (abs(x - c) / 1e-6) ** p)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="ChargeProfile.steps") as exc:
            reconstruct_field_potential(rho, SI.eps, 0.0, 1e-6, 201)
        assert time.perf_counter() - start < 1.0
        a, b = map(float, re.search(r"\[(\S+), (\S+)\] m", str(exc.value)).groups())
        assert a < c < b

    def test_smooth_enough_undeclared_kink_resolves(self):
        # |x - c|^11 has coefficients falling like k^-12: they reach the
        # rounding floor by 129 points, and E matches the analytic
        # antiderivative, k*s/eps*(h((x - c)/s) - h(-c/s)) with
        # h(y) = y*|y|^11/12
        c, k, s = 0.3e-6, Q * 1e22, 1e-6
        rho = ChargeProfile(fn=lambda x: k * (abs(x - c) / s) ** 11)
        samples = reconstruct_field_potential(rho, SI.eps, 0.0, 1e-6, 201)

        def h(y):
            return y * abs(y) ** 11 / 12.0
        want = [k * s / SI.eps * (h((x - c) / s) - h(-c / s)) for x, _, _ in samples]
        err = max(abs(e - w) for (_, e, _), w in zip(samples, want))
        assert err <= 1e-14 * max(map(abs, want))

    def test_undeclared_kink_of_small_amplitude_resolves(self):
        # q*1e22*(1 + a*|x - c|/1 um): at a = 1e-8 the kink's series tail
        # falls below 1e-10 of the largest coefficient, so the piece
        # resolves instead of raising, E 1.76e-11 of max|E| off the analytic
        # field k/eps*(x + a*s*(h((x - c)/s) - h(-c/s))), h(y) = y*|y|/2
        a, c, k, s = 1e-8, 0.5e-6, Q * 1e22, 1e-6
        rho = ChargeProfile(fn=lambda x: k * (1.0 + a * abs(x - c) / s))
        samples = reconstruct_field_potential(rho, SI.eps, 0.0, 1e-6, 201)

        def h(y):
            return y * abs(y) / 2.0
        want = [k / SI.eps * (x + a * s * (h((x - c) / s) - h(-c / s))) for x, _, _ in samples]
        err = max(abs(e - w) for (_, e, _), w in zip(samples, want))
        assert err <= 2e-11 * max(map(abs, want))

    @pytest.mark.parametrize("scale", [1e-6, 1e-300])
    def test_undeclared_kink_in_wide_interval_raises(self, scale):
        # a 1 mm interval is 1 000 default scales wide, and a vanishing
        # scale puts every near split within 1e-298 m of x = 0: either way
        # the kink lies in the last piece, which does not chop
        c = 0.3e-3
        rho = ChargeProfile(fn=lambda x: Q * 1e20 * abs(x - c), scale=scale)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="ChargeProfile.steps"):
            reconstruct_field_potential(rho, SI.eps, 0.0, 1e-3, 201)
        assert time.perf_counter() - start < 1.0

    def test_wide_smooth_scr_resolves(self):
        # W is 3 600 to 12 000 L_d and the charge varies only within a few
        # L_d of x_left: the near splits put pieces there, where one series
        # over the SCR would see only the flat -q*N_B and chop; |net| past
        # x_j is -net, hence the one-sided sign
        for n0, l_d, n_b, target, two_sided in ((1e26, 1e-7, 1e20, 1e4, True),
                                                (1e26, 3e-8, 1e19, 1e3, True),
                                                (1e26, 3e-8, 1e19, 1e3, False)):
            profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
            x_j = junction_depth(profile)
            if two_sided:
                rho, sign = ChargeProfile.net(profile), 1
                sol = solve_two_sided(rho, SI.eps, x_j, target)
            else:
                rho, sign = ChargeProfile.net_magnitude(profile), -1
                sol = solve_one_sided(rho, SI.eps, x_j, target)
            samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 201)
            with mpmath.workdps(40):
                xl = mpmath.mpf(sol.x_left)
                ref = [sign * float((charge(profile, mpmath.mpf(x)) - charge(profile, xl))
                                    * mpmath.mpf(Q) / mpmath.mpf(SI.eps)) for x, _, _ in samples]
            err = max(abs(s[1] - r) for s, r in zip(samples, ref))
            assert err <= 1e-13 * max(map(abs, ref)), (l_d, target, two_sided)

    def test_random_net_junctions_against_mpmath(self):
        # ten junctions drawn over the oracle benchmark's ranges (N_B
        # 1e19-1e23 m^-3, N0/N_B 10-1e4 with N0 <= 1e26 m^-3, L_d 0.1-100
        # um), each at a forward, a near-zero and a reverse bias: E within
        # 1e-13 of max|E| and u within 1e-12 of max|u|, against 40 digits
        # of the model as evaluated (worst 9.0e-16 and 7.3e-16); against
        # the Gaussian's own zero, an ulp or so from x_j, E is off by up to
        # 3.0e-14 here and 1.4e-13 where W is 1 um at x_j = 0.2 mm
        rng = random.Random(29)
        cases = []
        while len(cases) < 30:
            lg_nb = rng.uniform(19.0, 23.0)
            profile = GaussianProfile(n0=10.0 ** (lg_nb + rng.uniform(1.0, min(26.0 - lg_nb, 4.0))),
                                      l_d=10.0 ** rng.uniform(-7.0, -4.0), n_b=10.0 ** lg_nb)
            spec = JunctionSpec(material=SI, profile=profile)
            try:
                v_max = validity_window(spec).v_max_reverse
            except JunctionError:
                continue
            biases = (-rng.uniform(0.1, 0.5) * spec.v_bi, rng.uniform(-1e-3, 1e-3),
                      rng.uniform(0.1, 0.5) * v_max)
            cases += [(profile, spec.x_j, spec.v_bi + v) for v in biases]
        for profile, x_j, target in cases:
            rho = ChargeProfile.net(profile)
            sol = solve_two_sided(rho, SI.eps, x_j, target)
            samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 101)
            with mpmath.workdps(40):
                scale = mpmath.mpf(Q) / mpmath.mpf(SI.eps)
                f_l, g_l = closure_antiderivatives(profile, x_j, sol.x_left)
                e_ref, u_ref = [], []
                for x, _, _ in samples:
                    f, g = closure_antiderivatives(profile, x_j, x)
                    e_ref.append(float((f - f_l) * scale))
                    u_ref.append(float((g - g_l - mpmath.mpf(x) * (f - f_l)) * scale))
            for col, ref, bound in ((1, e_ref, 1e-13), (2, u_ref, 1e-12)):
                err = max(abs(s[col] - r) for s, r in zip(samples, ref))
                assert err <= bound * max(map(abs, ref)), (profile, target, col)

    @pytest.mark.parametrize("profile, two_sided, target", [
        (WORKED_PROFILE, False, 1e-9),
        (GaussianProfile(n0=1e26, l_d=1e-4, n_b=1e22), True, 1e-12)])
    def test_nodes_carried_back_to_the_exact_points(self, profile, two_sided, target):
        # SCRs a few nm and 0.1 nm wide around x_j = 26 um and 0.3 mm, so
        # each rounded Chebyshev node lies up to an ulp of x_j from its exact
        # point; carried back along the first fit's slope, E is within
        # 2.7e-16 of max|E| (1.2e-11 and 2.2e-11 without). The reference
        # integrates the closure q*N_B*expm1((x_j - x)*(x_j + x)/L_d^2)/eps
        # with its float x_j: the profile's own zero lies about an ulp
        # away, which alone would cost ulp(x_j)/W
        x_j = junction_depth(profile)
        if two_sided:
            rho, sign = ChargeProfile.net(profile), 1
            sol = solve_two_sided(rho, SI.eps, x_j, target)
        else:
            rho, sign = ChargeProfile.net_magnitude(profile), -1
            sol = solve_one_sided(rho, SI.eps, x_j, target)
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right)
        with mpmath.workdps(40):
            left = closure_antiderivatives(profile, x_j, sol.x_left)[0]
            ref = [sign * float((closure_antiderivatives(profile, x_j, x)[0] - left)
                                * mpmath.mpf(Q) / mpmath.mpf(SI.eps)) for x, _, _ in samples]
        err = max(abs(s[1] - r) for s, r in zip(samples, ref))
        assert err <= 1e-14 * max(map(abs, ref))

    def test_empty_interval_is_zero(self):
        assert reconstruct_field_potential(_NET, SI.eps, 2e-5, 2e-5, 5) == [(2e-5, 0.0, 0.0)] * 5

    @pytest.mark.parametrize("target", ANALYTIC_TARGETS)
    def test_first_sample_is_exact_zero(self, target):
        # E and u are integrals from x_left, so the first sample is (x_left, 0, 0)
        # with no rounding from the series
        rho = ChargeProfile.net(WORKED_PROFILE)
        sol = solve_two_sided(rho, SI.eps, WORKED.x_j, target)
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 201)
        assert samples[0] == (sol.x_left, 0.0, 0.0)
        assert math.copysign(1.0, samples[0][1]) == math.copysign(1.0, samples[0][2]) == 1.0

    def test_nan_charge_inside_scr_raises(self):
        rho = ChargeProfile(fn=lambda x: math.nan if x > 0.5e-6 else Q * 1e21)
        with pytest.raises(ArithmeticError, match="non-finite rho/eps"):
            reconstruct_field_potential(rho, SI.eps, 0.0, 1e-6, 21)

    def test_declared_kink_matches_analytic_field(self):
        # E = k/eps*(h(x - c) - h(-c)) with h(y) = y*|y|/2, an antiderivative of |y|
        c, k = 0.3e-6, Q * 1e28
        rho = ChargeProfile(fn=lambda x: k * abs(x - c), steps=(c,))
        samples = reconstruct_field_potential(rho, SI.eps, 0.0, 1e-6, 201)

        def h(y):
            return 0.5 * y * abs(y)
        want = [k / SI.eps * (h(x - c) - h(-c)) for x, _, _ in samples]
        err = max(abs(s[1] - w) for s, w in zip(samples, want))
        assert err <= 1e-13 * max(map(abs, want))


class TestAcceptorIntoN:
    """An acceptor diffused into n is the donor-into-p junction with its
    charge negated: the same regions, and the field and potential negated."""

    FLIPPED = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21, polarity=Polarity.ACCEPTOR_INTO_N)

    @pytest.mark.parametrize("target", [1e-6, 0.5, WORKED.v_bi + 10.0])
    def test_same_solutions(self, target):
        for model in (ChargeProfile.paper, ChargeProfile.net_magnitude):
            assert (solve_one_sided(model(self.FLIPPED), SI.eps, WORKED.x_j, target)
                    == solve_one_sided(model(WORKED_PROFILE), SI.eps, WORKED.x_j, target))
        flipped = solve_two_sided(ChargeProfile.net(self.FLIPPED), SI.eps, WORKED.x_j, target)
        sol = solve_two_sided(ChargeProfile.net(WORKED_PROFILE), SI.eps, WORKED.x_j, target)
        assert flipped == sol
        samples = reconstruct_field_potential(ChargeProfile.net(self.FLIPPED), SI.eps,
                                              sol.x_left, sol.x_right, 201)
        expected = reconstruct_field_potential(ChargeProfile.net(WORKED_PROFILE), SI.eps,
                                               sol.x_left, sol.x_right, 201)
        assert samples == [(x, -e, -u) for x, e, u in expected]


class TestSolveHetero:
    def test_eps_past_stack_end_raises(self):
        stack = HeteroStack(layers=((SI, 1e-6), (SI, 1e-3)))
        assert stack.eps_at(1e-3) == SI.eps
        with pytest.raises(StackExhaustedError):
            stack.eps_at(2e-3)

    def test_single_layer_reduces_to_homogeneous(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        target = WORKED.v_bi + 10.0
        hom = solve_one_sided(rho, SI.eps, WORKED.x_j, target)
        stack = HeteroStack(layers=((SI, 1e-3),))
        het = solve_hetero(stack, rho, WORKED.x_j, target)
        assert_allclose(het.x_right, hom.x_right, rtol=1e-12)

    def test_two_equal_eps_layers(self):
        rho = ChargeProfile.paper(WORKED_PROFILE)
        target = WORKED.v_bi + 10.0
        hom = solve_one_sided(rho, SI.eps, WORKED.x_j, target)
        stack = HeteroStack(layers=((SI, 2.64e-5), (SI, 1e-3)))
        het = solve_hetero(stack, rho, WORKED.x_j, target)
        assert_allclose(het.x_right, hom.x_right, rtol=1e-12)

    def test_eps_step_against_hand_integral(self):
        # two layers with eps2 = 2*eps1, constant rho, SCR spanning the
        # boundary; closed form from the piecewise antiderivative
        eps1 = SI.eps
        mat2 = Material("double", 2.0 * SI.eps_r, SI.n_i, 300.0)
        b1 = 1e-6
        stack = HeteroStack(layers=((SI, b1), (mat2, 1e-3)))
        rho_val = Q * 1e21
        rho = ChargeProfile.step(rho_val, scale=1e-6)
        a = 0.0
        target = 3.0
        v1 = rho_val / (2.0 * eps1) * (b1 ** 2 - a ** 2)
        assert v1 < target  # SCR crosses the boundary
        b_expected = math.sqrt(b1 ** 2 + (target - v1) * 4.0 * eps1 / rho_val)
        het = solve_hetero(stack, rho, a, target)
        assert_allclose(het.x_right, b_expected, rtol=1e-10)

    def test_stack_exhausted(self):
        stack = HeteroStack(layers=((SI, 1e-7),))
        rho = ChargeProfile.step(Q * 1e21, scale=1e-6)
        with pytest.raises(StackExhaustedError):
            solve_hetero(stack, rho, 0.0, 10.0)

    def test_stack_exhausted_names_the_stack_end(self):
        # the solve works in offsets from x_start; the error names the
        # stack end in x
        with pytest.raises(StackExhaustedError) as exc:
            solve_hetero(HeteroStack(layers=((SI, 2.64e-5),)), ChargeProfile.paper(WORKED_PROFILE),
                         WORKED.x_j, WORKED.v_bi + 10.0)
        assert str(exc.value) == ("SCR would extend past the stack end at 2.64e-05 m "
                                  "(moment reaches only 4.63755 of 10.7738 V)")

    def test_stack_exhausted_where_the_offset_to_the_end_rounds_past_it(self):
        # the start plus the rounded offset to the stack end lies past the
        # end, where no probe may evaluate the permittivity
        start, end = 2.6e-7, 9.14e-7
        assert start + (end - start) > end
        with pytest.raises(StackExhaustedError) as exc:
            solve_hetero(HeteroStack(layers=((SI, end),)), _STEP, start, 10.0)
        assert str(exc.value) == ("SCR would extend past the stack end at 9.14e-07 m "
                                  "(moment reaches only 0.593734 of 10 V)")

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            HeteroStack(layers=())
        for t in (-1e-6, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                HeteroStack(layers=((SI, t),))


def test_oracle_agreement_on_bias_grid():
    rho = ChargeProfile.paper(WORKED_PROFILE)
    window = validity_window(WORKED)
    for i in range(10):
        v_r = window.v_max_reverse * 0.95 * i / 9.0
        r = w_sc_general(WORKED, Bias(v_r, "reverse"))
        sol = solve_one_sided(rho, SI.eps, WORKED.x_j, r.total_potential)
        assert_allclose(sol.width, r.w_sc, rtol=1e-12)


def charge(profile, x):
    """Integral of rho/q of the net Gaussian from 0 to x, at mpmath's
    working precision."""
    n0, n_b, l_d = (mpmath.mpf(v) for v in (profile.n0, profile.n_b, profile.l_d))
    return n0 * l_d * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(x / l_d) - n_b * x


def first_moment(profile, x):
    """Integral of x*rho/q of the net Gaussian from 0 to x, less a
    constant, at mpmath's working precision."""
    n0, n_b, l_d = (mpmath.mpf(v) for v in (profile.n0, profile.n_b, profile.l_d))
    return -n0 * l_d ** 2 / 2 * mpmath.exp(-(x / l_d) ** 2) - n_b * x ** 2 / 2


def closure_antiderivatives(profile, x_j, x):
    """Integrals of rho/q and of x*rho/q of the net model as evaluated,
    N_B*expm1((x_j - x)*(x_j + x)/L_d^2) with its float x_j, each less a
    constant, at mpmath's working precision. The profile's own zero lies
    an ulp or so from x_j, which alone costs ~8*ulp(x_j)/W of max|E|."""
    n_b, l_d, xj, x = (mpmath.mpf(v) for v in (profile.n_b, profile.l_d, x_j, x))
    n0 = n_b * mpmath.exp((xj / l_d) ** 2)
    return (n0 * l_d * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(x / l_d) - n_b * x,
            -n0 * l_d ** 2 / 2 * mpmath.exp(-(x / l_d) ** 2) - n_b * x ** 2 / 2)


def net_reference(profile, x_j, x_left, x_right):
    """Neutrality |net charge| / |charge on [x_left, x_j]| and the centred
    moment |integral of (x - x_j)*rho/eps| of the net Gaussian over
    [x_left, x_right], to 40 digits from its antiderivatives."""
    with mpmath.workdps(40):
        xl, xj, xr = (mpmath.mpf(v) for v in (x_left, x_j, x_right))
        net = charge(profile, xr) - charge(profile, xl)
        neutrality = abs(net) / abs(charge(profile, xj) - charge(profile, xl))
        centred = ((first_moment(profile, xr) - first_moment(profile, xl) - xj * net)
                   * mpmath.mpf(Q) / mpmath.mpf(SI.eps))
        return float(neutrality), float(abs(centred))


class TestNewtonSolves:
    @pytest.mark.parametrize("target", [1e-9, 1e-6, WORKED.v_bi - 0.5, WORKED.v_bi - 0.7])
    def test_two_sided_small_and_forward_bias_targets(self, target):
        # down to an SCR a few nm wide around x_j = 26 um, where moment
        # and neutrality are only as good as integrals taken from x_j, and
        # x_left and x_right round to ulps of x_j (worst: moment_value
        # 3.1e-14 at V_bi - 0.7 V; neutrality 1.7e-12 and centred moment
        # 9.1e-13 at 1 nV)
        sol = solve_two_sided(ChargeProfile.net(WORKED_PROFILE), SI.eps, WORKED.x_j, target)
        neutrality, centred = net_reference(WORKED_PROFILE, WORKED.x_j, sol.x_left, sol.x_right)
        assert sol.x_left < WORKED.x_j < sol.x_right
        assert abs(sol.moment_value - target) <= 1e-13 * target
        assert neutrality <= 5e-12
        assert abs(centred - target) <= 2e-12 * target

    @pytest.mark.parametrize("n0, l_d, n_b", [(1e24, 1e-5, 1e21), (5e23, 3e-7, 2.5e23),
                                              (1e25, 3e-6, 1e22)])
    def test_two_sided_widths_against_mpmath(self, n0, l_d, n_b):
        # the panel's junctions with N0/N_B <= 1e4 that solve: the width is
        # the sum of the offsets the Newton iteration solves for, within
        # 2e-15 of the 50-digit root of neutrality and the centred moment
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=SI, profile=profile)
        x_j = spec.x_j
        for target in (0.5, spec.v_bi, spec.v_bi + 10.0):
            sol = solve_two_sided(ChargeProfile.net(profile), SI.eps, x_j, target)
            assert abs(sol.width - ((x_j - sol.x_left) + (sol.x_right - x_j))) <= math.ulp(x_j)
            neutrality, centred = net_reference(profile, x_j, sol.x_left, sol.x_right)
            assert neutrality <= 1e-12
            assert abs(centred - target) <= 1e-13 * target
            with mpmath.workdps(40):
                xj, scale = mpmath.mpf(x_j), mpmath.mpf(Q) / mpmath.mpf(SI.eps)

                def residuals(w_l, w_r):
                    xl, xr = xj - w_l, xj + w_r
                    net = charge(profile, xr) - charge(profile, xl)
                    moment = (first_moment(profile, xr) - first_moment(profile, xl)
                              - xj * net) * scale
                    return [net / (charge(profile, xj) - charge(profile, xl)),
                            abs(moment) / target - 1]
                w_l, w_r = mpmath.findroot(residuals, (mpmath.mpf(x_j - sol.x_left),
                                                       mpmath.mpf(sol.x_right - x_j)))
                assert abs(sol.width - w_l - w_r) <= 2e-15 * (w_l + w_r)

    @pytest.mark.parametrize("n0, l_d, n_b, target, evaluations", [
        (2.9e21, 2e-8, 2.9e15, 16.4, 603), (1e26, 1e-7, 1e20, 1e3, 1074)])
    def test_two_sided_far_asymmetric_regions(self, n0, l_d, n_b, target, evaluations):
        # x_j - x_left is 2e-5 and 1.3e-3 of x_right - x_j: charge and
        # moment are near powers of the offsets, so Newton's method in their
        # logarithms crosses the orders of magnitude from the linearly
        # graded start (597 and 1 063 evaluations; 3 448 and 2 486 when a
        # Newton search on x_right solved neutrality at every point)
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        x_j = junction_depth(profile)
        net, xs = _counted(ChargeProfile.net(profile).fn)
        sol = solve_two_sided(ChargeProfile(fn=net, scale=l_d), SI.eps, x_j, target)
        assert len(xs) <= evaluations
        neutrality, centred = net_reference(profile, x_j, sol.x_left, sol.x_right)
        assert neutrality <= 1e-14
        assert abs(centred - target) <= 1e-14 * target

    def test_two_sided_surface_decided_at_the_solution(self):
        # a neutral region whose left edge is the surface holds 20.04 V
        # here (scipy quad/brentq on the profile); every target below that
        # has a solution with x_left > 0, however far a bracket probe
        # overshoots, and every target above it reaches the surface
        p = GaussianProfile(n0=5e23, l_d=3e-7, n_b=2.5e23)
        rho = ChargeProfile.net(p)
        x_j = junction_depth(p)
        for target in (10.0, 19.8):
            sol = solve_two_sided(rho, SI.eps, x_j, target)
            neutrality, centred = net_reference(p, x_j, sol.x_left, sol.x_right)
            assert 0.0 < sol.x_left < x_j < sol.x_right
            assert neutrality <= 1e-10
            assert abs(centred - target) <= 1e-10 * target
        with pytest.raises(SurfaceReachedError):
            solve_two_sided(rho, SI.eps, x_j, 20.3)

    @pytest.mark.parametrize("target", [1.0, 1e3])
    def test_one_sided_from_zero_slope(self, target):
        # the moment's slope x*rho/eps is 0 at x_start = 0, so there is no
        # Newton step from it: at 1 V the first probe (scale/100) already
        # overshoots and the root search starts by bisecting; at 1 kV the
        # bracket search starts by doubling
        rho = ChargeProfile.paper(WORKED_PROFILE)
        pref = gaussian_moment_closed_form(1e24, 1e-5, SI.eps, 0.0, math.inf)
        sol = solve_one_sided(rho, SI.eps, 0.0, target)
        assert_allclose(sol.x_right, 1e-5 * math.sqrt(-math.log1p(-target / pref)), rtol=1e-10)
        assert_allclose(sol.moment_value, target, rtol=1e-10)


_BOUNDED_N, _BOUNDED_XJ = 1e21, 5e-6


def _bounded_fn(x):
    if 0.0 <= x < _BOUNDED_XJ:
        return Q * _BOUNDED_N
    return -Q * _BOUNDED_N if x < 2.0 * _BOUNDED_XJ else 0.0


# +qN on [0, x_j), -qN on [x_j, 2 x_j), 0 beyond: a neutral region holds
# at most q*N*x_j^2/eps, however far x_right moves
_BOUNDED = ChargeProfile(fn=_bounded_fn, steps=(_BOUNDED_XJ, 2.0 * _BOUNDED_XJ), scale=1e-6)
_THIN_STACK = HeteroStack(layers=((SI, 1e-4),))


def test_two_sided_unreachable_target():
    # the supremum is the neutral region whose right edge is the domain's
    # end, the 0.1 mm stack end too: all the charge lies inside it
    for eps in (SI.eps, _THIN_STACK):
        with pytest.raises(UnreachablePotentialError) as exc:
            solve_two_sided(_BOUNDED, eps, _BOUNDED_XJ, 1e6)
        assert_allclose(exc.value.supremum, Q * _BOUNDED_N * _BOUNDED_XJ ** 2 / SI.eps,
                        rtol=1e-14)


def test_two_sided_stack_exhausted():
    with pytest.raises(StackExhaustedError) as exc:
        solve_two_sided(ChargeProfile.net(WORKED_PROFILE), _THIN_STACK, WORKED.x_j, 1e4)
    assert str(exc.value) == ("SCR would extend past the stack end at 0.0001 m "
                              "(moment reaches only 4867.23 of 10000 V)")


class TestTwoSidedWalls:
    """The two-sided solve in a Si/Ge stack, whose end and the surface are
    walls its Newton steps may not cross."""

    GE = get_material("Ge")

    @pytest.mark.parametrize("n0, l_d, n_b, target, si, ge, nested", [
        (3.852256979474014e25, 1.4431497627182993e-6, 1.0632138849696236e19, 6.080438458413013,
         9.1970615221164e-6, 4.484612617767771e-5, 3.16446475783511e-5),
        (1.7174825357927936e26, 8.01009196516032e-8, 1.0459786487410355e20, 0.21910180437957966,
         3.3181961164390246e-7, 2.315090912171121e-6, 1.9196573710717827e-6),
        (2.694253353830489e25, 6.100630930984798e-6, 1.579522585701691e19, 21.380886640236657,
         5.3168559947899574e-5, 2.0155359171783453e-5, 4.539213774154724e-5),
        (1.8457006063587575e26, 2.0205548330130218e-8, 1.5319195174890042e20, 0.00841318755081368,
         1.1960756640575865e-7, 3.564845641627856e-7, 3.097212410285028e-7),
        (1.336751160649373e26, 1.7348408955024306e-7, 1.7368642083195042e19, 0.8278318865393886,
         7.148769608021608e-7, 9.424013197360966e-6, 9.163430400972537e-6),
        (2.8725733569605684e27, 2.3582729718768058e-8, 3.1245687021660133e21, 1.197620188017641,
         1.4307397771317739e-7, 7.665391534253593e-7, 8.207042472527328e-7),
        (5.653537905063504e28, 6.49695685420635e-8, 6.121370181020992e21, 16.310653261377656,
         7.739301773242846e-7, 1.5842511407792405e-6, 2.143256824695797e-6),
        (5.088940165326457e28, 1.327933127159454e-8, 3.775064839851402e22, 0.9160271313459173,
         1.3326600923641648e-7, 1.6847032874263955e-7, 2.0038723323640547e-7),
    ])
    def test_steps_past_the_stack_end(self, n0, l_d, n_b, target, si, ge, nested):
        # a Newton step from the start lands past the stack end: a line
        # search that halved the whole step crept to the end and stopped
        # there once x_right stopped moving, with charges 96-99 % apart and
        # |M| 6-17 times the target; cut halfway to the end, the solve
        # finds the root inside, within 2 ulps of the width of a Newton
        # search on x_right that solved neutrality at every point
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        x_j = junction_depth(profile)
        stack = HeteroStack(layers=((SI, si), (self.GE, ge)))
        sol = solve_two_sided(ChargeProfile.net(profile), stack, x_j, target)
        neutrality, _ = net_reference(profile, x_j, sol.x_left, sol.x_right)
        assert 0.0 < sol.x_left < x_j < sol.x_right < si + ge
        assert neutrality <= 1e-9
        assert abs(sol.moment_value - target) <= 1e-12 * target
        assert abs(sol.width - nested) <= 1e-14 * nested

    def test_stack_end_costs_a_newton_solve(self):
        # the line search that halved every step crossing the stack end
        # took 5 903 325 rho evaluations here (13.6 s) and returned a point
        # whose charges were 95 % apart; cut at the wall, 1 249, within
        # 2 ulps of the nested search's width (1 785 evaluations)
        profile = GaussianProfile(n0=3.057219550010097e25, l_d=1.255501697247074e-8,
                                  n_b=3.798338999645969e19)
        x_j = junction_depth(profile)
        stack = HeteroStack(layers=((SI, 8.360273877249883e-8), (self.GE, 1.1539611400453302e-6)))
        net, xs = _counted(ChargeProfile.net(profile).fn)
        sol = solve_two_sided(ChargeProfile(fn=net, scale=profile.l_d), stack, x_j,
                              0.015254848488477638)
        assert len(xs) <= 1300
        neutrality, _ = net_reference(profile, x_j, sol.x_left, sol.x_right)
        assert neutrality <= 1e-12
        assert abs(sol.width - 8.410036496639277e-7) <= 1e-14 * sol.width

    def test_seeded_panel_returns_roots_or_raises(self):
        # 1 500 junctions across the acceptance ranges, half in a stack
        # whose Si layer ends between x_j and 3 x_j: every solve either
        # raises a JunctionError or returns a root (worst 5.6e-11 and
        # 5.4e-14; with the line search, 5 returned points were no roots)
        rng = random.Random(11)
        outcomes = collections.Counter()
        for _ in range(1500):
            n_b = 10.0 ** rng.uniform(19, 23)
            profile = GaussianProfile(n0=n_b * 10.0 ** rng.uniform(1e-7, 7),
                                      l_d=10.0 ** rng.uniform(-8, -3), n_b=n_b)
            target = 10.0 ** rng.uniform(-6, 2)
            x_j = junction_depth(profile)
            eps = SI.eps
            if rng.random() < 0.5:
                eps = HeteroStack(layers=((SI, x_j * rng.uniform(1.0001, 3)),
                                          (self.GE, profile.l_d * rng.uniform(1, 100))))
            try:
                sol = solve_two_sided(ChargeProfile.net(profile), eps, x_j, target)
            except JunctionError as e:
                outcomes[type(e).__name__] += 1
                continue
            outcomes["root"] += 1
            neutrality, _ = net_reference(profile, x_j, sol.x_left, sol.x_right)
            assert neutrality <= 1e-9, (profile, target, eps)
            assert abs(sol.moment_value - target) <= 1e-12 * target, (profile, target, eps)
        assert set(outcomes) == {"root", "StackExhaustedError", "SurfaceReachedError"}

    @pytest.mark.parametrize("n0, l_d, n_b, layers, edge, error", [
        # a neutral region from the surface holds 20.04 V (as in
        # test_two_sided_surface_decided_at_the_solution); at the first
        # target past this edge x_left is an ulp of x_j from the surface
        # and a step would cross it
        (5e23, 3e-7, 2.5e23, None, 20.042925471727795, SurfaceReachedError),
        # the stack of the first wall case holds 14.86 V, its SCR then
        # ending at the stack end
        (3.852256979474014e25, 1.4431497627182993e-6, 1.0632138849696236e19,
         (9.1970615221164e-6, 4.484612617767771e-5), 14.858324139029161, StackExhaustedError),
    ])
    def test_targets_at_a_wall(self, n0, l_d, n_b, layers, edge, error):
        # the 17 floats around the largest target a wall lets through:
        # roots up to a point, the wall's error past it
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        x_j = junction_depth(profile)
        eps = HeteroStack(layers=((SI, layers[0]), (self.GE, layers[1]))) if layers else SI.eps
        targets = [edge]
        for _ in range(8):
            targets = [math.nextafter(targets[0], 0.0), *targets, math.nextafter(targets[-1], 30.0)]
        outcomes = []
        for target in targets:
            try:
                sol = solve_two_sided(ChargeProfile.net(profile), eps, x_j, target)
            except error:
                outcomes.append(False)
                continue
            outcomes.append(True)
            neutrality, _ = net_reference(profile, x_j, sol.x_left, sol.x_right)
            assert neutrality <= 1e-12, target
            assert abs(sol.moment_value - target) <= 1e-15 * target, target
        assert outcomes[0] and not outcomes[-1]
        assert outcomes == sorted(outcomes, reverse=True)

    def test_nan_step_moves_off_both_walls(self, monkeypatch):
        # a Newton step whose offsets are NaN lies past both walls: each
        # offset goes halfway to its wall and the solve still finds the
        # root of test_steps_past_the_stack_end's first case (a NaN kept as
        # the trial would never leave it)
        logs = []

        def log(x):
            logs.append(x)
            return math.nan if len(logs) == 1 else math.log(x)
        monkeypatch.setattr(momentsolver, "math",
                            types.SimpleNamespace(**{**vars(math), "log": log}))

        profile = GaussianProfile(n0=3.852256979474014e25, l_d=1.4431497627182993e-6,
                                  n_b=1.0632138849696236e19)
        net, xs = _counted(ChargeProfile.net(profile).fn)

        def guarded(x):
            if len(xs) >= 20_000:
                raise RuntimeError(f"{len(xs)} rho evaluations")
            return net(x)
        x_j = junction_depth(profile)
        stack = HeteroStack(layers=((SI, 9.1970615221164e-6), (self.GE, 4.484612617767771e-5)))
        sol = solve_two_sided(ChargeProfile(fn=guarded, scale=profile.l_d), stack, x_j,
                              6.080438458413013)
        assert 0.0 < sol.x_left < x_j < sol.x_right < stack.layers[0][1] + stack.layers[1][1]
        assert abs(sol.width - 3.16446475783511e-5) <= 1e-14 * sol.width

    @pytest.mark.parametrize("n0, l_d, n_b, layers, target, error, start, evaluations", [
        # one float past test_targets_at_a_wall's surface edge: the Newton
        # step lands on the surface from an x_left 5.3e-23 m above it
        (5e23, 3e-7, 2.5e23, None, 20.0429254717278, SurfaceReachedError,
         "[0, 5.24613e-07]", 9_044),
        # one float past the edge of the panel's third stack (16.36 V): the
        # step lands past the stack end from an x_right within rounding of it
        (5.653537905063504e28, 6.49695685420635e-8, 6.121370181020992e21,
         (7.739301773242846e-7, 1.5842511407792405e-6), 16.357783376199748,
         StackExhaustedError, "[2.11762e-07, 2.35818e-06]", 3_114),
    ])
    def test_offset_stuck_at_a_wall(self, n0, l_d, n_b, layers, target, error, start,
                                    evaluations):
        # an offset that cannot move off its wall raises the wall's error,
        # from the one raise for an offset that cannot move
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        eps = HeteroStack(layers=((SI, layers[0]), (self.GE, layers[1]))) if layers else SI.eps
        net, xs = _counted(ChargeProfile.net(profile).fn)
        with pytest.raises(error, match=f"^no two-sided Newton step from {re.escape(start)} m"):
            solve_two_sided(ChargeProfile(fn=net, scale=l_d), eps, junction_depth(profile),
                            target)
        assert len(xs) <= evaluations


def _layer(n, k, d, x_j, scale, mirrored=False):
    """rho = q*N on [0, x_j), -k*q*N on [x_j, x_j + d) and 0 past that, or
    mirrored, +k*q*N on [x_j - d, x_j), 0 above it and -q*N below x_j; and
    the list of points rho was evaluated at, whose 20 001st raises."""
    xs = []

    def fn(x):
        xs.append(x)
        if len(xs) > 20_000:
            raise RuntimeError(f"{len(xs)} rho evaluations")
        if mirrored:
            return 0.0 if x < x_j - d else k * Q * n if x < x_j else -Q * n
        return Q * n if x < x_j else -k * Q * n if x < x_j + d else 0.0
    steps = (x_j - d, x_j) if mirrored else (x_j, x_j + d)
    return ChargeProfile(fn=fn, steps=steps, scale=scale), xs


def _solve_layer(n, k, d, x_j, scale, f, eps, mirrored=False):
    """The two-sided solve of _layer at f of the moment its whole charge
    holds, f*q*N*k*(k + 1)*d^2/(2*eps), whose root is the thin side's
    offset d*sqrt(f) and k times that on the other. Returns the width's
    relative error, the neutrality |Q_l - Q_r|/Q_l from x_left and
    x_right, moment_value's relative error and the rho evaluations."""
    rho, xs = _layer(n, k, d, x_j, scale, mirrored)
    target = f * Q * n * k * (k + 1) * d * d / (2.0 * eps)
    sol = solve_two_sided(rho, eps, x_j, target)
    width = (k + 1) * d * math.sqrt(f)
    ql, qr = x_j - sol.x_left, sol.x_right - x_j
    ql, qr = (k * ql, qr) if mirrored else (ql, k * qr)
    return (abs(sol.width - width) / width, abs(ql - qr) / ql,
            abs(sol.moment_value - target) / target, len(xs))


class TestLimitedCharge:
    """The two-sided solve on charges that end inside the domain, where a
    Newton step can land past the end of one side's charge. Each solve
    raises after 20 000 rho evaluations; halving the whole step in the
    logs, as the solve once did, took millions on some of these or raised
    "no two-sided Newton step" on reachable targets."""

    @pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d, k", [(10e-9, 100), (10e-9, 10), (2e-9, 100), (50e-9, 10)])
    def test_layer_past_x_j(self, d, k, f):
        width, neutrality, moment, _ = _solve_layer(1e22, k, d, 1e-6, 1e-7, f, 1e-10)
        assert width <= 1e-14 and neutrality <= 1e-12 and moment <= 1e-12

    @pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d, scale, mirrored", [(0.5e-9, 1e-6, False), (10e-9, 1e-7, True)])
    def test_thin_and_mirrored_layers(self, d, scale, mirrored, f):
        # a layer thinner than 1e-3 scale is 0 where the start takes its
        # slope, so the offsets start at half x_j and at scale, thousands
        # of times the root's (width within 3.5e-14); the mirrored layer
        # ends on the diffused side
        k = 50 if mirrored else 10
        width, neutrality, moment, _ = _solve_layer(1e22, k, d, 1e-6, scale, f, 1e-10, mirrored)
        assert width <= 1e-13 and neutrality <= 1e-12 and moment <= 1e-12

    def test_seeded_layers(self):
        # 300 layers across 1e20-1e24 m^-3, k = 1-1000 and d = 1 nm-1 um
        # (widths within 6.6e-15, 2 968 evaluations at most, median 1 500);
        # x_right - x_j rounds to ulps of x_j, hence the neutrality bound
        # (worst 6.6e-12). Layer 290's moment_value is 1.9e-10 off its
        # target, though its width is right to 1.5e-15 and the moment of
        # [x_left, x_right] to 1.3e-15: the stop on two Newton steps'
        # predicted error returned a point so far from the last one
        # evaluated that the linear Taylor step misses the curvature
        rng = random.Random(7)
        counts = []
        for i in range(300):
            n, k = 10.0 ** rng.uniform(20, 24), 10.0 ** rng.uniform(0, 3)
            d = 10.0 ** rng.uniform(-9, -6)
            x_j, f = k * d * rng.uniform(1.5, 10), rng.uniform(0.01, 0.99)
            width, neutrality, moment, count = _solve_layer(n, k, d, x_j, d, f, SI.eps)
            counts.append(count)
            assert width <= 1e-14 and neutrality <= 1e-11, i
            assert moment <= (1e-9 if i == 290 else 1e-12), i
        assert max(counts) <= 3_000 and sorted(counts)[150] <= 1_600

    def test_offset_that_cannot_move(self):
        # rho changes sign three times, past the solve's contract: q*N below
        # x_j, -q*N on the next 20 nm, +2*q*N on the 20 nm after, -q*N past
        # that. The pull-back cannot move the right offset off the step at
        # x_j + 20 nm, so the one raise for an offset that cannot move ends
        # the solve (37 475 evaluations)
        x_j, n = 1e-6, 1e22

        def fn(x):
            return (Q * n if x < x_j else -Q * n if x < x_j + 20e-9
                    else 2 * Q * n if x < x_j + 40e-9 else -Q * n)
        counted, xs = _counted(fn)
        rho = ChargeProfile(fn=counted, steps=(x_j, x_j + 20e-9, x_j + 40e-9), scale=1e-7)
        with pytest.raises(ArithmeticError) as exc:
            solve_two_sided(rho, 1e-10, x_j, 0.01)
        assert type(exc.value) is ArithmeticError
        assert str(exc.value).startswith("no two-sided Newton step from [9.74676e-07, 1.02e-06] m")
        assert len(xs) <= 37_475

    def test_no_sign_change_at_x_j(self):
        # past the worked junction's x_j the net charge is negative on both
        # sides: check finds no wall at the start, then rho at the floats
        # next to x_j decides (329 evaluations; 1 416 when one trial was
        # halved 100 times)
        net, xs = _counted(ChargeProfile.net(WORKED_PROFILE).fn)
        with pytest.raises(ArithmeticError,
                           match=r"^rho does not change sign at x_j = 2\.89109e-05 m$"):
            solve_two_sided(ChargeProfile(fn=net, scale=WORKED_PROFILE.l_d), SI.eps,
                            1.1 * WORKED.x_j, 10.0)
        assert len(xs) <= 340


_STACK = HeteroStack(layers=((SI, 1e-6), (SI, 1e-3)))
_STEP = ChargeProfile.step(Q * 1e21, scale=1e-6)
_PAPER = ChargeProfile.paper(WORKED_PROFILE)
_NET = ChargeProfile.net(WORKED_PROFILE)


@pytest.mark.parametrize("call", [
    lambda: solve_one_sided(_PAPER, SI.eps, WORKED.x_j, math.nan),
    lambda: solve_one_sided(_PAPER, SI.eps, WORKED.x_j, math.inf),
    lambda: solve_one_sided(_PAPER, SI.eps, math.nan, 1.0),
    lambda: solve_one_sided(_PAPER, SI.eps, math.inf, 1.0),
    lambda: solve_one_sided(_STEP, SI.eps, -1e-6, 0.01),
    lambda: solve_one_sided(_STEP, _STACK, -1e-6, 0.01),
    lambda: solve_one_sided(_STEP, _STACK, 2e-3, 0.01),
    lambda: solve_hetero(_STACK, _STEP, -1e-6, 0.01),
    lambda: solve_two_sided(_NET, SI.eps, WORKED.x_j, math.nan),
    lambda: solve_two_sided(_NET, SI.eps, WORKED.x_j, math.inf),
    lambda: solve_two_sided(_NET, SI.eps, math.nan, 1.0),
    lambda: solve_two_sided(_NET, SI.eps, 0.0, 1.0),
    lambda: moment_integral(_PAPER, SI.eps, 0.0, math.nan),
    lambda: moment_integral(_PAPER, SI.eps, math.nan, 1e-5),
    lambda: moment_integral(_STEP, SI.eps, -math.inf, 0.0),
    lambda: moment_integral(_PAPER, SI.eps, math.inf, math.inf),
    lambda: reconstruct_field_potential(_NET, SI.eps, 3e-5, 2e-5, 5),
    lambda: reconstruct_field_potential(_NET, SI.eps, math.nan, 2e-5, 5),
    lambda: reconstruct_field_potential(_NET, SI.eps, 2e-5, math.nan, 5),
    lambda: reconstruct_field_potential(_NET, SI.eps, 2e-5, math.inf, 5),
    lambda: moment_integral(_PAPER, _THIN_STACK, WORKED.x_j, 1e-3),
    lambda: reconstruct_field_potential(_NET, _THIN_STACK, 0.0, 2e-4, 5),
    lambda: solve_one_sided(_PAPER, 0.0, WORKED.x_j, 1.0),
    lambda: solve_two_sided(_NET, -SI.eps, WORKED.x_j, 1.0),
    lambda: moment_integral(_PAPER, math.nan, WORKED.x_j, 4e-5),
    lambda: reconstruct_field_potential(_NET, math.inf, 2e-5, 3e-5, 5),
    lambda: reconstruct_field_potential(_NET, SI.eps, 2e-5, 3e-5, 1),
], ids=["one-sided-nan-target", "one-sided-inf-target", "one-sided-nan-start",
        "one-sided-inf-start", "one-sided-negative-start", "stack-negative-start",
        "stack-start-past-end", "hetero-negative-start", "two-sided-nan-target",
        "two-sided-inf-target", "two-sided-nan-xj", "two-sided-zero-xj",
        "moment-nan-b", "moment-nan-a", "moment-infinite-a", "moment-inf-inf",
        "reconstruct-reversed", "reconstruct-nan-left", "reconstruct-nan-right",
        "reconstruct-inf-right", "moment-past-stack-end", "reconstruct-past-stack-end",
        "one-sided-zero-eps", "two-sided-negative-eps", "moment-nan-eps",
        "reconstruct-inf-eps", "reconstruct-one-sample"])
def test_entry_points_reject_bad_input(call, monkeypatch):
    # a plain ValueError, before any quadrature: no JunctionError subclass
    # raised from a probe or a quadrature node, and no hang
    calls = []
    real_quad = momentsolver._quad
    monkeypatch.setattr(momentsolver, "_quad",
                        lambda *args: calls.append(1) or real_quad(*args))
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert not calls


def test_quadrature_count(monkeypatch):
    # machine-independent cost: quadratures per solve on the worked junction
    # (a gate that counts nothing fails its calls > 0)
    calls = 0
    real_quad = momentsolver._quad

    def counted(*args):
        nonlocal calls
        calls += 1
        return real_quad(*args)

    monkeypatch.setattr(momentsolver, "_quad", counted)
    target = WORKED.v_bi + 10.0
    solve_one_sided(ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, target)
    assert 0 < calls <= 8
    calls = 0
    # (51 when a Newton search on x_right solved neutrality at every point)
    sol = solve_two_sided(ChargeProfile.net(WORKED_PROFILE), SI.eps, WORKED.x_j, target)
    assert 0 < calls <= 20
    calls = 0
    # the reconstruction integrates Chebyshev series, never by quadrature
    reconstruct_field_potential(ChargeProfile.net(WORKED_PROFILE), SI.eps,
                                sol.x_left, sol.x_right, 201)
    assert calls == 0
    # past the supremum the running moment is carried to infinity by one
    # more quadrature, not integrated again from x_start
    calls = 0
    with pytest.raises(UnreachablePotentialError):
        solve_one_sided(ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, 200.0)
    assert 0 < calls <= 6
    # in a stack the tail stops at the stack end, at the same cost
    calls = 0
    with pytest.raises(UnreachablePotentialError):
        solve_one_sided(ChargeProfile.paper(WORKED_PROFILE), HeteroStack(layers=((SI, 1e-3),)),
                        WORKED.x_j, 200.0)
    assert 0 < calls <= 6
    calls = 0
    moment_integral(ChargeProfile.paper(WORKED_PROFILE), SI.eps, WORKED.x_j, math.inf)
    assert 0 < calls <= 6
    # the two-sided supremum is one neutral region out to the domain's end
    # (26 when the search probed outwards on x_right until the moment stalled)
    calls = 0
    with pytest.raises(UnreachablePotentialError):
        solve_two_sided(_BOUNDED, SI.eps, _BOUNDED_XJ, 1e6)
    assert 0 < calls <= 24


def test_newton_helper_keeps_to_its_bracket():
    # a Newton step on cbrt(x - 1) lands at twice the distance from the
    # root on the other side, so only the bracket safeguard converges
    from junctionlab.momentsolver import _newton_in_bracket
    evals = []

    def f_df(x):
        evals.append(x)
        assert 0.0 <= x <= 3.0 and len(evals) <= 200
        d = x - 1.0
        return math.copysign(abs(d) ** (1.0 / 3.0), d), (abs(d) ** (-2.0 / 3.0) / 3.0
                                                          if d else math.inf)

    assert abs(_newton_in_bracket(f_df, 0.0, 3.0, 1.5) - 1.0) <= 2e-15


@pytest.mark.parametrize("c, expected", [(0.2, -1.0), (-1.0, -1.0), (0.4, math.nan)])
def test_predicted_point(c, expected):
    # x(f) = -1 + f + c*f^2 from f = -1 at x = -1 - 1 + c, with the slope
    # f' = 1/x'(f) there and a second point at f = 1: the quadratic is
    # exact, and its root x(0) = -1 is kept while it lies past x and
    # within twice the Newton step (c <= 1/3), else nan
    from junctionlab.momentsolver import _predicted_point

    def x_of(f):
        return -1.0 + f + c * f * f
    got = _predicted_point(x_of(-1.0), -1.0, 1.0 / (1.0 - 2.0 * c), x_of(1.0), 1.0)
    assert got == pytest.approx(expected, abs=1e-15, nan_ok=True)


def test_newton_helper_stops_on_the_predicted_error():
    # exp(x) - 2 from 0.5: the fourth point evaluated is 1.9e-8 from ln 2,
    # and its Newton step, 1.9e-8 after one of 2.0e-4, predicts an error of
    # 1.9e-16 there, within _RTOL*x; a stop on the step alone (within
    # _XTOL + _RTOL*x) evaluates that next point too
    from junctionlab.momentsolver import _RTOL, _newton_in_bracket
    evals = []

    def f_df(x):
        evals.append(x)
        return math.exp(x) - 2.0, math.exp(x)

    root = _newton_in_bracket(f_df, 0.0, 1.0, 0.5)
    assert abs(root - math.log(2.0)) <= _RTOL * root
    assert len(evals) == 4
    # the same fourth point, evaluated before the call and passed with the
    # Newton step that reached it: its own step ends the search
    xs = [0.5]
    for _ in range(3):
        xs.append(xs[-1] - (math.exp(xs[-1]) - 2.0) / math.exp(xs[-1]))
    evals.clear()
    root = _newton_in_bracket(f_df, 0.0, xs[3], xs[3], f_df(xs[3]), xs[3] - xs[2])
    assert abs(root - math.log(2.0)) <= _RTOL * root
    assert len(evals) == 1
