"""Gaussian doping profile, diffusion length, and the charge models.

The profile is N(x) = N0 * exp(-x^2 / L_d^2) measured from the surface
inward (x >= 0), on top of a uniform background concentration N_B of the
opposite type. The metallurgical junction sits where the two cross.
The charge models live here too: a ``ChargeProfile`` binds its model,
charge and polarity's sign into one closure when it is built, and
``doping_at`` and ``charge_density`` evaluate those same closures.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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


def _outside_profile(x: float) -> ValueError:
    return ValueError(f"profile is defined from the surface inward; x = {x} < 0")


def _gaussian(profile: GaussianProfile, q: float) -> Callable[[float], float]:
    """x -> q*N0*exp(-x^2/L_d^2) at depth x >= 0; ValueError at x < 0."""
    n0, l_d = profile.n0, profile.l_d
    def fn(x):
        if x < 0.0:
            raise _outside_profile(x)
        return q * (n0 * math.exp(-(x / l_d) ** 2))
    return fn


def _net(profile: GaussianProfile, q: float) -> Callable[[float], float]:
    """x -> q*(N0*exp(-x^2/L_d^2) - N_B) at depth x >= 0, computed as
    q*N_B*expm1((x_j - x)*(x_j + x)/L_d^2) with x_j = junction_depth, so
    that it does not cancel near x_j, where x_j - x is exact (Sterbenz);
    each factor is divided by L_d, so no L_d^2 leaves the float range.
    ValueError at x < 0."""
    qn_b, l_d, x_j = q * profile.n_b, profile.l_d, junction_depth(profile)
    def fn(x):
        if x < 0.0:
            raise _outside_profile(x)
        return qn_b * math.expm1((x_j - x) / l_d * ((x_j + x) / l_d))
    return fn


def doping_at(profile: GaussianProfile, x: float) -> float:
    """Diffused dopant concentration at depth x >= 0, m^-3."""
    return _gaussian(profile, 1.0)(x)


def junction_depth(profile: GaussianProfile) -> float:
    """Depth where the Gaussian crosses the background: L_d*sqrt(ln(N0/N_B))."""
    return profile.l_d * math.sqrt(math.log(profile.n0 / profile.n_b))


@dataclass(frozen=True)
class ChargeProfile:
    """Evaluatable charge density x (m) -> rho (C/m^3). ``steps`` lists
    every point where rho or its slope jumps; between them rho must be
    smooth. reconstruct_field_potential raises ArithmeticError on an
    undeclared kink or step whose Chebyshev tail stays above 1e-10 of the
    series' largest coefficient; a smaller one resolves, its E within about
    2e-11 of max|E|.
    ``scale`` is a characteristic length: it seeds the bracketing searches
    and places the near splits of moment_integral and
    reconstruct_field_potential."""

    fn: Callable[[float], float]
    steps: tuple = ()
    scale: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    @classmethod
    def paper(cls, profile: GaussianProfile) -> "ChargeProfile":
        """Bare Gaussian q*N0*exp(-x^2/L_d^2), the closed forms' integrand."""
        return cls(fn=_gaussian(profile, Q), scale=profile.l_d)

    @classmethod
    def net(cls, profile: GaussianProfile) -> "ChargeProfile":
        """Signed net charge q*(N(x) - N_B), negated for an acceptor diffused
        into n. It is computed as q*N_B*expm1((x_j - x)*(x_j + x)/L_d^2),
        which does not cancel near x_j. It changes sign exactly at the
        float x_j = junction_depth(profile) that the solvers use, which
        may lie an ulp or so of x_j from the profile's own zero."""
        sign = 1.0 if profile.polarity is Polarity.DONOR_INTO_P else -1.0
        return cls(fn=_net(profile, sign * Q), scale=profile.l_d)

    @classmethod
    def net_magnitude(cls, profile: GaussianProfile) -> "ChargeProfile":
        """|net| charge, for one-sided solves on the substrate side."""
        net = cls.net(profile).fn
        return cls(fn=lambda x: abs(net(x)), steps=(junction_depth(profile),),
                   scale=profile.l_d)

    @classmethod
    def step(cls, value: float, scale: float = 1e-6) -> "ChargeProfile":
        """Constant charge density from the surface inward, zero at x < 0."""
        return cls(fn=lambda x: value if x >= 0.0 else 0.0, steps=(0.0,), scale=scale)


def charge_density(profile: GaussianProfile, x: float, model: str = "paper") -> float:
    """Space charge density at depth x, C/m^3: the model's ChargeProfile.

    model="paper": the bare Gaussian q*N0*exp(-x^2/L_d^2), the integrand
    the closed forms assume (no background subtraction).
    model="net": q*(N(x) - N_B) with the sign set by polarity; changes
    sign exactly once, at the metallurgical junction.
    """
    if model not in ("paper", "net"):
        raise ValueError(f"unknown charge model {model!r}; expected 'paper' or 'net'")
    return getattr(ChargeProfile, model)(profile).fn(x)
