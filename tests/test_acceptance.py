"""Acceptance gate: one test per criterion, one pass/fail line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import junctionlab.cli as cli
from junctionlab import (Bias, ChargeProfile, CvCurve, GaussianProfile,
                         HeteroStack, JunctionSpec, Material, Q, deserialize,
                         fit, get_material, moment_integral,
                         reconstruct_field_potential, serialize, solve,
                         solve_hetero, solve_one_sided, solve_two_sided,
                         sweep, validity_window, w_sc_deep, w_sc_general,
                         w_sc_shallow)
from junctionlab.closedform import Regime, w_sc_from_potential
from junctionlab.errors import (EquilibriumInvalidError, JunctionError,
                                UnreachablePotentialError)

SI = get_material("Si")


def report(n, ok, detail=""):
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_junctions(n, rng, require_two_sided_ok=False):
    """Valid junctions with N0 in [1e22, 1e26], N_B in [1e19, 1e23],
    N0/N_B >= 10, L_d in [1e-7, 1e-4]."""
    out = []
    while len(out) < n:
        n_b = 10.0 ** rng.uniform(19.0, 23.0)
        n0 = n_b * 10.0 ** rng.uniform(1.0, math.log10(min(1e26 / n_b, 1e4)))
        if n0 > 1e26 or n0 / n_b < 10.0:
            continue
        l_d = 10.0 ** rng.uniform(-7.0, -4.0)
        try:
            spec = JunctionSpec(material=SI,
                                profile=GaussianProfile(n0=n0, l_d=l_d, n_b=n_b))
            validity_window(spec)
        except (JunctionError, ValueError):
            continue
        out.append(spec)
    return out


def test_criterion_1_back_substitution():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for spec in random_junctions(1000, rng):
        window = validity_window(spec)
        v_r = rng.uniform(0.0, 0.999) * window.v_max_reverse
        r = w_sc_general(spec, Bias(v_r, "reverse"))
        l_d, x_j = spec.profile.l_d, spec.x_j
        lhs = spec.potential_scale * (math.exp(-(x_j / l_d) ** 2)
                                      - math.exp(-((r.w_sc + x_j) / l_d) ** 2))
        worst = max(worst, abs(lhs - r.total_potential) / r.total_potential)
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"back-substitution worst rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_quadrature_vs_antiderivative():
    rng = np.random.default_rng(2)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n0 = 10.0 ** rng.uniform(22.0, 26.0)
        l_d = 10.0 ** rng.uniform(-7.0, -4.0)
        x_j = l_d * rng.uniform(0.0, 3.0)
        w = l_d * rng.uniform(0.01, 3.0)
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n0 / 100.0)
        rho = ChargeProfile.paper(profile)
        got = moment_integral(rho, SI.eps, x_j, x_j + w)
        pref = Q * n0 * l_d ** 2 / (2.0 * SI.eps)
        expected = pref * (math.exp(-(x_j / l_d) ** 2)
                           - math.exp(-((x_j + w) / l_d) ** 2))
        worst = max(worst, abs(got - expected) / abs(expected))
    elapsed = time.time() - t0
    report(2, worst <= 1e-10 and elapsed < 30.0,
           f"quadrature worst rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_oracle_agreement():
    rng = np.random.default_rng(3)
    t0 = time.time()
    worst = 0.0
    for spec in random_junctions(20, rng):
        window = validity_window(spec)
        rho = ChargeProfile.paper(spec.profile)
        for i in range(50):
            v_r = window.v_max_reverse * 0.98 * i / 49.0
            r = w_sc_general(spec, Bias(v_r, "reverse"))
            sol = solve_one_sided(rho, SI.eps, spec.x_j, r.total_potential)
            worst = max(worst, abs(sol.width - r.w_sc) / r.w_sc)
    elapsed = time.time() - t0
    report(3, worst <= 1e-12 and elapsed < 60.0,
           f"oracle agreement worst rel {worst:.2e} on 20x50 grid, {elapsed:.2f} s")


def test_criterion_4_regime_algebra():
    rng = np.random.default_rng(4)
    worst_alg = 0.0
    for spec in random_junctions(50, rng):
        window = validity_window(spec)
        v_r = rng.uniform(0.0, 0.99) * window.v_max_reverse
        g = w_sc_general(spec, Bias(v_r, "reverse"))
        s = w_sc_shallow(spec, Bias(v_r, "reverse"))
        worst_alg = max(worst_alg, abs(s.w_sc - g.w_sc - spec.x_j) / spec.x_j)
    # deep vs shallow at x_j/L_d = 0.01, probed where the potential term
    # dominates the 1e-4 exponential deviation
    worst_gap = 0.0
    base = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
    spec = JunctionSpec(material=SI, profile=base, x_j=0.01 * base.l_d)
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        v_total = frac * spec.potential_scale
        s = w_sc_from_potential(spec, v_total, Regime.SHALLOW)
        d = w_sc_from_potential(spec, v_total, Regime.DEEP)
        worst_gap = max(worst_gap, abs(d.w_sc - s.w_sc) / s.w_sc)
    report(4, worst_alg <= 1e-12 and worst_gap <= 1e-3,
           f"shallow-general = x_j worst rel {worst_alg:.2e}; "
           f"deep-shallow gap {worst_gap:.2e} at x_j/L_d = 0.01")


def test_criterion_5_abrupt_junction_limit():
    rng = np.random.default_rng(5)
    worst = 0.0
    for spec in random_junctions(20, rng):
        spec = JunctionSpec(material=SI, profile=spec.profile, x_j=0.0)
        for u in (1e-5, 5e-5, 1e-4):
            v_total = u * spec.potential_scale
            d = w_sc_from_potential(spec, v_total, Regime.DEEP)
            w_abrupt = math.sqrt(2.0 * spec.eps * v_total / (Q * spec.profile.n0))
            worst = max(worst, abs(d.w_sc - w_abrupt) / w_abrupt)
    report(5, worst <= 1e-4, f"abrupt-limit worst rel {worst:.2e}")


def test_criterion_6_capacitance_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for spec in random_junctions(50, rng):
        window = validity_window(spec)
        v_r = rng.uniform(0.0, 0.99) * window.v_max_reverse
        for solver in (w_sc_general, w_sc_shallow):
            r = solver(spec, Bias(v_r, "reverse"))
            worst = max(worst, abs(r.c_b * r.w_sc - spec.eps) / spec.eps)
        d = w_sc_deep(spec, Bias(min(v_r, 0.5 * spec.potential_scale - spec.v_bi)
                                 if 0.5 * spec.potential_scale > spec.v_bi else 0.0,
                                 "reverse"))
        worst = max(worst, abs(d.c_b * d.w_sc - spec.eps) / spec.eps)
    report(6, worst <= 1e-12, f"c_b * w_sc = eps worst rel {worst:.2e}")


def test_criterion_7_punch_through_consistency():
    rng = np.random.default_rng(7)
    worst = 0.0
    for spec in random_junctions(20, rng):
        window = validity_window(spec)
        rho = ChargeProfile.paper(spec.profile)
        with pytest.raises(UnreachablePotentialError) as exc:
            solve_one_sided(rho, SI.eps, spec.x_j,
                            2.0 * (window.v_max_reverse + spec.v_bi))
        numeric = exc.value.supremum - spec.v_bi
        worst = max(worst, abs(numeric - window.v_max_reverse) / window.v_max_reverse)
    report(7, worst <= 1e-9, f"punch-through supremum worst rel {worst:.2e}")


def test_criterion_8_hetero_reduction():
    profile = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
    spec = JunctionSpec(material=SI, profile=profile)
    rho = ChargeProfile.paper(profile)
    target = spec.v_bi + 10.0
    hom = solve_one_sided(rho, SI.eps, spec.x_j, target)
    one = solve_hetero(HeteroStack(layers=((SI, 1e-3),)), rho, spec.x_j, target)
    two = solve_hetero(HeteroStack(layers=((SI, 2.64e-5), (SI, 1e-3))),
                       rho, spec.x_j, target)
    rel1 = abs(one.x_right - hom.x_right) / hom.x_right
    rel2 = abs(two.x_right - hom.x_right) / hom.x_right

    eps1 = SI.eps
    mat2 = Material("double", 2.0 * SI.eps_r, SI.n_i, 300.0)
    b1 = 1e-6
    rho_val = Q * 1e21
    rho_c = ChargeProfile.step(rho_val, scale=1e-6)
    v1 = rho_val / (2.0 * eps1) * b1 ** 2
    target_c = 3.0
    b_expected = math.sqrt(b1 ** 2 + (target_c - v1) * 4.0 * eps1 / rho_val)
    het = solve_hetero(HeteroStack(layers=((SI, b1), (mat2, 1e-3))),
                       rho_c, 0.0, target_c)
    rel3 = abs(het.x_right - b_expected) / b_expected
    report(8, rel1 <= 1e-12 and rel2 <= 1e-12 and rel3 <= 1e-10,
           f"n=1 rel {rel1:.2e}, equal-eps rel {rel2:.2e}, "
           f"eps-step vs hand integral rel {rel3:.2e}")


def test_criterion_9_field_contract():
    rng = np.random.default_rng(9)
    worst_e, worst_u = 0.0, 0.0
    checked = 0
    for spec in random_junctions(10, rng):
        rho = ChargeProfile.net(spec.profile)
        window = validity_window(spec)
        target = spec.v_bi + 0.5 * window.v_max_reverse
        try:
            sol = solve_two_sided(rho, SI.eps, spec.x_j, target)
        except JunctionError:
            continue
        samples = reconstruct_field_potential(rho, SI.eps, sol.x_left,
                                              sol.x_right, 41)
        e_max = max(abs(s[1]) for s in samples)
        worst_e = max(worst_e, abs(samples[0][1]) / e_max,
                      abs(samples[-1][1]) / e_max)
        drop = abs(samples[-1][2] - samples[0][2])
        worst_u = max(worst_u, abs(drop - target) / target)
        checked += 1
    report(9, checked >= 3 and worst_e <= 1e-9 and worst_u <= 1e-8,
           f"{checked} two-sided solutions; |E| ends worst {worst_e:.2e} x max|E|, "
           f"potential drop worst rel {worst_u:.2e}")


def test_criterion_10_fit_round_trip():
    t0 = time.time()
    truth = JunctionSpec(material=SI,
                         profile=GaussianProfile(n0=3.7e23, l_d=2.3e-6, n_b=5e20))
    curve = sweep(truth, -0.4, 1.2, 25)
    clean = fit(curve, SI, 300.0, 5e20, fit_vbi=True)
    clean_ok = (clean.objective < 1e-12
                and abs(clean.n0_hat - 3.7e23) / 3.7e23 < 1e-3
                and abs(clean.ld_hat - 2.3e-6) / 2.3e-6 < 1e-3
                and abs(clean.vbi_hat - truth.v_bi) / truth.v_bi < 1e-3)
    rng = np.random.default_rng(20240817)  # documented noise seed
    pts = tuple((v, c * (1.0 + 0.01 * rng.standard_normal()), None)
                for v, c, _ in curve.points)
    noisy = fit(CvCurve(points=pts), SI, 300.0, 5e20, fit_vbi=True)
    noisy_ok = (abs(noisy.n0_hat - 3.7e23) / 3.7e23 < 0.05
                and abs(noisy.ld_hat - 2.3e-6) / 2.3e-6 < 0.05
                and abs(noisy.vbi_hat - truth.v_bi) / truth.v_bi < 0.05)
    elapsed = time.time() - t0
    report(10, clean_ok and noisy_ok and elapsed < 60.0,
           f"noiseless obj {clean.objective:.2e}, noisy errs "
           f"{abs(noisy.n0_hat - 3.7e23) / 3.7e23:.3f}/"
           f"{abs(noisy.ld_hat - 2.3e-6) / 2.3e-6:.4f}, {elapsed:.2f} s")


# frozen from solve_one_sided on the worked junction before freezing
GOLDEN_W_SC = 2.8389643565238714e-07   # m
GOLDEN_C_B = 0.0003649006623549306     # F/m^2


def test_criterion_11_worked_example_regression():
    spec = JunctionSpec(material=SI,
                        profile=GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))
    r = w_sc_general(spec, Bias(10.0, "reverse"))
    rel_w = abs(r.w_sc - GOLDEN_W_SC) / GOLDEN_W_SC
    rel_c = abs(r.c_b - GOLDEN_C_B) / GOLDEN_C_B
    report(11, rel_w <= 1e-6 and rel_c <= 1e-6,
           f"golden W_SC rel {rel_w:.2e}, C_b rel {rel_c:.2e}")


def test_criterion_12_cli_golden(tmp_path, capsys):
    worked = ["--n0", "1e18", "--nb", "1e15", "--ld", "10"]
    outs = []
    for _ in range(2):
        assert cli.main(["solve", *worked, "--bias", "10"]) == 0
        outs.append(capsys.readouterr().out)
    solve_stable = outs[0] == outs[1]
    golden = (
        "material: Si  T = 300 K\n"
        "x_j = 26.2826 um\n"
        "V_bi = 0.773844 V\n"
        "validity window: forward < 0.773844 V, reverse < 76.5558 V\n"
        "bias: reverse 10 V  (total potential 10.7738 V)\n"
        "regime: general\n"
        "W_SC = 0.283896 um\n"
        "C_b = 36.4901 nF/cm^2 (0.000364901 F/m^2)\n"
    )
    solve_golden = outs[0] == golden

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        assert cli.main(["sweep", *worked, "--vstart", "0", "--vstop", "10",
                         "--steps", "11", "--out", str(f)]) == 0
        capsys.readouterr()
    sweep_stable = f1.read_bytes() == f2.read_bytes()
    round_trip = serialize(deserialize(f1.read_bytes(), "csv"), "csv") == f1.read_bytes()

    assert cli.main(["oracle", *worked, "--bias", "10"]) == 0
    o1 = capsys.readouterr().out
    assert cli.main(["oracle", *worked, "--bias", "10"]) == 0
    o2 = capsys.readouterr().out
    oracle_stable = o1 == o2

    report(12, solve_stable and solve_golden and sweep_stable
           and round_trip and oracle_stable,
           "solve/sweep/oracle byte-stable, solve matches golden, CSV round-trips")
