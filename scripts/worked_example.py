#!/usr/bin/env python3
"""Worked junction end to end: closed form, oracle check, and a C-V sweep.

N0 = 1e18 cm^-3, N_B = 1e15 cm^-3, L_d = 10 um, Si, 300 K, V_R = 10 V.
"""

from junctionlab import (Bias, ChargeProfile, GaussianProfile, JunctionSpec,
                         get_material, solve_one_sided, sweep, validity_window,
                         w_sc_general)


def main():
    si = get_material("Si")
    profile = GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
    spec = JunctionSpec(material=si, profile=profile)
    window = validity_window(spec)
    print(f"x_j = {spec.x_j * 1e6:.6f} um, V_bi = {spec.v_bi:.6f} V")
    print(f"validity: forward < {window.v_max_forward:.4f} V, "
          f"reverse < {window.v_max_reverse:.4f} V")

    r = w_sc_general(spec, Bias(10.0, "reverse"))
    print(f"\nclosed form at V_R = 10 V:")
    print(f"  W_SC = {r.w_sc * 1e6:.6f} um")
    print(f"  C_b  = {r.c_b / 1e-5:.4f} nF/cm^2")

    rho = ChargeProfile.paper(profile)
    sol = solve_one_sided(rho, si.eps, spec.x_j, r.total_potential)
    w_num = sol.width
    print(f"\nmoment-solver oracle:")
    print(f"  W_SC = {w_num * 1e6:.6f} um "
          f"(rel dev {abs(w_num - r.w_sc) / r.w_sc:.2e})")

    curve = sweep(spec, 0.0, 50.0, 11)
    print(f"\nC-V sweep 0..50 V:")
    for v, c, w in curve.points:
        print(f"  V = {v:5.1f} V   W = {w * 1e6:8.4f} um   C = {c / 1e-5:8.3f} nF/cm^2")


if __name__ == "__main__":
    main()
