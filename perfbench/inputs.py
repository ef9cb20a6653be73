"""Seeded benchmark inputs: junctions, bias grids and C-V curves.

Junctions are drawn in the ranges of the acceptance gate (N0 in
[1e22, 1e26] m^-3, N_B in [1e19, 1e23] m^-3, 10 <= N0/N_B <= 1e4, L_d in
[0.1, 100] um) and rounded to three significant digits in CLI units, so
that the library and the CLI receive the same doubles: the CLI turns
``--n0 3.8e18`` into ``3.8e18 * 1e6`` exactly as ``Junction.n0`` does.

Everything here is plain double-precision Python written from the paper's
formulas; nothing imports junctionlab.
"""

import math
import random
from dataclasses import dataclass

# CODATA 2018 constants and the silicon entry of the built-in material table
Q = 1.602176634e-19
K_B = 1.380649e-23
EPS0 = 8.8541878128e-12
SI_EPS_R = 11.7
SI_N_I = 1.0e16          # m^-3
TEMP = 300.0             # K

CM3_TO_M3 = 1e6
UM_TO_M = 1e-6


@dataclass(frozen=True)
class Junction:
    """A silicon Gaussian junction at 300 K, stored in CLI units."""

    n0_cm3: float
    nb_cm3: float
    ld_um: float

    @property
    def n0(self) -> float:
        return self.n0_cm3 * CM3_TO_M3

    @property
    def n_b(self) -> float:
        return self.nb_cm3 * CM3_TO_M3

    @property
    def l_d(self) -> float:
        return self.ld_um * UM_TO_M

    def cli_flags(self) -> list:
        return ["--n0", repr(self.n0_cm3), "--nb", repr(self.nb_cm3),
                "--ld", repr(self.ld_um)]

    @property
    def v_bi(self) -> float:
        return K_B * TEMP / Q * math.log(self.n0 * self.n_b / SI_N_I ** 2)

    @property
    def v_max_reverse(self) -> float:
        """Exclusive reverse-bias limit: q*N_B*L_d^2/(2 eps) - V_bi, since
        exp(-x_j^2/L_d^2) = N_B/N0 at the metallurgical junction."""
        return Q * self.n_b * self.l_d ** 2 / (2.0 * EPS0 * SI_EPS_R) - self.v_bi

    @property
    def v_surface(self) -> float:
        """Total potential at which the two-sided net-charge region reaches
        the surface: x_left = 0 and the substrate side x_right balances
        all the net charge above x_j."""
        n0, nb, ld = self.n0, self.n_b, self.l_d
        x_j = ld * math.sqrt(math.log(n0 / nb))

        def charge(x):  # integral of N(t) - N_B over [0, x]
            return n0 * ld * math.sqrt(math.pi) / 2.0 * math.erf(x / ld) - nb * x

        lo, hi = x_j, x_j + n0 / nb * ld   # charge(hi) < 0 since erf < 1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if charge(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        x_r = lo
        moment = n0 * ld ** 2 / 2.0 * (1.0 - math.exp(-(x_r / ld) ** 2)) - nb * x_r ** 2 / 2.0
        return Q * abs(moment) / (EPS0 * SI_EPS_R)


def _sig3(x: float) -> float:
    return float(f"{x:.3g}")


def draw_junction(rng: random.Random, two_sided: bool = False) -> Junction:
    """One junction with a non-empty reverse window; with ``two_sided``,
    also room for a two-sided solve above equilibrium (see bias_two_sided)."""
    while True:
        lg_nb = rng.uniform(19.0, 23.0)
        lg_n0 = lg_nb + rng.uniform(1.0, min(26.0 - lg_nb, 4.0))
        j = Junction(n0_cm3=_sig3(10.0 ** lg_n0 / CM3_TO_M3),
                     nb_cm3=_sig3(10.0 ** lg_nb / CM3_TO_M3),
                     ld_um=_sig3(10.0 ** rng.uniform(-1.0, 2.0)))
        if not (1e22 <= j.n0 <= 1e26 and 1e19 <= j.n_b <= 1e23
                and j.n0 >= 10.0 * j.n_b and 1e-7 <= j.l_d <= 1e-4):
            continue
        if j.v_max_reverse <= 0.1 * j.v_bi:
            continue
        if two_sided and _two_sided_cap(j) <= 0.1 * j.v_bi:
            continue
        return j


def _two_sided_cap(j: Junction) -> float:
    """Largest reverse bias used for two-sided solves: inside the closed
    form's window and 10 % short of the surface limit."""
    return min(j.v_max_reverse, 0.9 * j.v_surface - j.v_bi)


def bias_two_sided(rng: random.Random, j: Junction) -> float:
    """A signed bias from half of V_bi forward up to half the two-sided cap."""
    return rng.uniform(-0.5 * j.v_bi, 0.5 * _two_sided_cap(j))


def sweep_range(rng: random.Random, j: Junction) -> tuple:
    """Signed (v_start, v_stop): forward up to 30-70 % of V_bi, reverse up
    to 70-95 % of the window."""
    return (-rng.uniform(0.3, 0.7) * j.v_bi, rng.uniform(0.7, 0.95) * j.v_max_reverse)


def bias_grid(v_start: float, v_stop: float, n: int) -> list:
    return [v_start + (v_stop - v_start) * i / (n - 1) for i in range(n)]


def measured_csv(biases, capacitances) -> bytes:
    """Two-column measured-style curve, shortest-round-trip floats."""
    rows = ["v_bias_V,c_b_F_per_m2"]
    rows += [f"{v!r},{c!r}" for v, c in zip(biases, capacitances)]
    return ("\n".join(rows) + "\n").encode("utf-8")


# The fit reproduction: `sweep --n0 3.8e18 --nb 1.1e15 --ld 8.3 --vstart -0.4
# --vstop 52 --steps 31`, then `fit --fit-vbi`. The simplex stalls far above
# the optimum and still reports convergence.
STALL_JUNCTION = Junction(n0_cm3=3.8e18, nb_cm3=1.1e15, ld_um=8.3)
STALL_SWEEP = (-0.4, 52.0, 31)
