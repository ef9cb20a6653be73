#!/usr/bin/env python3
"""Quantify the one-sided bare-Gaussian approximation against the physical
net-charge two-sided solution.

The closed forms integrate the bare Gaussian over [x_j, x_j + W] with no
background subtraction and neglect the SCR extension into the heavily
doped side. This script reports, for a few representative junctions, how
far that sits from a two-boundary solve of the net charge model (charge
neutrality + moment identity enforced simultaneously). Diagnostic only:
nothing here gates the closed forms.
"""

from junctionlab import (Bias, ChargeProfile, GaussianProfile, JunctionSpec,
                         get_material, solve_two_sided, validity_window,
                         w_sc_general)

CASES = [
    # (N0 m^-3, N_B m^-3, L_d m, V_R)
    (1e24, 1e21, 1e-5, 10.0),
    (1e24, 1e21, 1e-5, 50.0),
    (1e25, 1e22, 3e-6, 5.0),
    (1e23, 1e20, 3e-5, 20.0),
]


def main():
    si = get_material("Si")
    print(f"{'N0':>9} {'N_B':>9} {'L_d':>8} {'V_R':>6} "
          f"{'W_closed':>10} {'W_two_sided':>12} {'rel dev':>9}")
    for n0, n_b, l_d, v_r in CASES:
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=si, profile=profile)
        window = validity_window(spec)
        if v_r >= window.v_max_reverse:
            print(f"{n0:9.1e} {n_b:9.1e} {l_d:8.1e} {v_r:6.1f}  "
                  f"outside validity window ({window.v_max_reverse:.2f} V)")
            continue
        r = w_sc_general(spec, Bias(v_r, "reverse"))
        sol = solve_two_sided(ChargeProfile.net(profile), si.eps,
                              spec.x_j, r.total_potential)
        w2 = sol.width
        print(f"{n0:9.1e} {n_b:9.1e} {l_d:8.1e} {v_r:6.1f} "
              f"{r.w_sc * 1e6:9.4f}um {w2 * 1e6:11.4f}um "
              f"{abs(w2 - r.w_sc) / r.w_sc:9.3g}")
    print("\nThe net-model SCR is far wider: the bare-Gaussian integrand keeps "
          "a large charge density past x_j where the physical net charge is "
          "bounded by q*N_B.")


if __name__ == "__main__":
    main()
