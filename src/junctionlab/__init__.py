"""Depletion width and barrier capacitance of Gaussian-diffused junctions.

Closed forms for the general, shallow, and deep-diffused regimes, an
independent numerical solver built on Gauss's law that verifies them,
and C-V sweep / parameter-extraction tooling.
"""

from .closedform import (Bias, JunctionSpec, Regime, SolveResult,
                         ValidityWindow, capacitance, cv_points, default_vbi,
                         solve, total_potential, validity_window, w_sc_deep,
                         w_sc_general, w_sc_shallow)
from .cvtools import CvCurve, FitResult, deserialize, fit, serialize, sweep
from .doping import (ChargeProfile, DiffusionRecipe, GaussianProfile,
                     Polarity, charge_density, diffusion_length, doping_at,
                     junction_depth)
from .momentsolver import (HeteroStack, ScrSolution, moment_integral,
                           reconstruct_field_potential, solve_hetero,
                           solve_one_sided, solve_two_sided)
from .physcore import (EPS0, K_B, Material, Q, builtin_materials,
                       get_material, thermal_voltage)

__version__ = "0.1.0"
