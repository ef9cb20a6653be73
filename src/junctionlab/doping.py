"""Gaussian doping profile, diffusion length, and space charge density.

The profile is N(x) = N0 * exp(-x^2 / L_d^2) measured from the surface
inward (x >= 0), on top of a uniform background concentration N_B of the
opposite type. The metallurgical junction sits where the two cross.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoJunctionError
from .physcore import Q


class Polarity(Enum):
    DONOR_INTO_P = "donor-into-p"
    ACCEPTOR_INTO_N = "acceptor-into-n"


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian diffused profile: surface concentration ``n0``, diffusion
    length ``l_d`` (both SI), background ``n_b``, and which dopant type
    was diffused into which substrate."""

    n0: float
    l_d: float
    n_b: float
    polarity: Polarity = Polarity.DONOR_INTO_P

    def __post_init__(self):
        if not all(map(math.isfinite, (self.n0, self.l_d, self.n_b))):
            raise ValueError(f"profile parameters must be finite, got "
                             f"n0 = {self.n0}, l_d = {self.l_d}, n_b = {self.n_b}")
        if self.n_b <= 0.0:
            raise NoJunctionError(f"background concentration must be positive, got {self.n_b}")
        if self.n0 <= self.n_b:
            raise NoJunctionError(
                f"no metallurgical junction: N0 = {self.n0} must exceed N_B = {self.n_b}")
        if self.l_d <= 0.0:
            raise ValueError(f"diffusion length must be positive, got {self.l_d}")


@dataclass(frozen=True)
class DiffusionRecipe:
    """Process inputs: diffusion constant d_i (m^2/s) and time t_d (s)."""

    d_i: float
    t_d: float

    def __post_init__(self):
        if not (0.0 < self.d_i < math.inf and 0.0 < self.t_d < math.inf):
            raise ValueError(f"diffusion constant and time must both be finite and positive, "
                             f"got d_i = {self.d_i}, t_d = {self.t_d}")


def diffusion_length(recipe: DiffusionRecipe) -> float:
    """Technological diffusion length 2 * sqrt(D_i * t_d), meters."""
    l_d = 2.0 * math.sqrt(recipe.d_i * recipe.t_d)
    if not 0.0 < l_d < math.inf:  # d_i * t_d overflowed or underflowed
        raise ValueError(f"diffusion length 2*sqrt(d_i*t_d) is outside the float range for "
                         f"d_i = {recipe.d_i} m^2/s, t_d = {recipe.t_d} s")
    return l_d


def doping_at(profile: GaussianProfile, x: float) -> float:
    """Diffused dopant concentration at depth x >= 0, m^-3."""
    if x < 0.0:
        raise ValueError(f"profile is defined from the surface inward; x = {x} < 0")
    return profile.n0 * math.exp(-(x / profile.l_d) ** 2)


def junction_depth(profile: GaussianProfile) -> float:
    """Depth where the Gaussian crosses the background: L_d*sqrt(ln(N0/N_B))."""
    return profile.l_d * math.sqrt(math.log(profile.n0 / profile.n_b))


def charge_density(profile: GaussianProfile, x: float, model: str = "paper") -> float:
    """Space charge density at depth x, C/m^3.

    model="paper": the bare Gaussian q*N0*exp(-x^2/L_d^2), the integrand
    the closed forms assume (no background subtraction).
    model="net": q*(N(x) - N_B) with the sign set by polarity; changes
    sign exactly once, at the metallurgical junction.
    """
    if x < 0.0:
        raise ValueError(f"profile is defined from the surface inward; x = {x} < 0")
    gauss = profile.n0 * math.exp(-(x / profile.l_d) ** 2)
    if model == "paper":
        return Q * gauss
    if model == "net":
        sign = 1.0 if profile.polarity is Polarity.DONOR_INTO_P else -1.0
        return sign * Q * (gauss - profile.n_b)
    raise ValueError(f"unknown charge model {model!r}; expected 'paper' or 'net'")
