"""Closed-form depletion width and barrier capacitance for Gaussian junctions.

Three regimes, all driven by the same log argument
    A(V) = exp(-x_j^2/L_d^2) - (2*eps / (q*N0*L_d^2)) * V_total
with V_total = V_bi + V_R (reverse) or V_bi - V_F (forward):

  general:  W = L_d * sqrt(ln(1/A)) - x_j
  shallow:  W = L_d * sqrt(-ln A)            (the -x_j term dropped)
  deep:     W = L_d * sqrt(-ln(1 - (2*eps/(q*N0*L_d^2)) * V_total))
            (the exponential term taken as unity)

C_b = eps / W in every regime. A <= 0 means the Gaussian-tail charge
cannot support the requested potential (punch-through here).
"""

import math
from dataclasses import dataclass
from enum import Enum

from .doping import GaussianProfile, junction_depth
from .errors import (DegenerateJunctionError, EquilibriumInvalidError,
                     FlatBandError, PunchThroughError)
from .physcore import Material, Q, thermal_voltage


class Regime(Enum):
    GENERAL = "general"
    SHALLOW = "shallow"
    DEEP = "deep"


def _regime(regime: str | Regime) -> Regime:
    """A regime name (or a Regime) as a Regime; "auto" means general."""
    return Regime.GENERAL if regime == "auto" else Regime(regime)


@dataclass(frozen=True)
class Bias:
    """Non-negative magnitude plus direction. ``from_signed`` maps the
    CLI convention: positive = reverse, negative = forward."""

    value: float
    direction: str  # "reverse" | "forward"

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:
            raise ValueError(f"bias magnitude must be finite and >= 0, got {self.value}")
        if self.direction not in ("reverse", "forward"):
            raise ValueError(f"direction must be 'reverse' or 'forward', got {self.direction!r}")

    @classmethod
    def from_signed(cls, v: float) -> "Bias":
        if v >= 0.0:
            return cls(v, "reverse")
        return cls(-v, "forward")

    @property
    def signed(self) -> float:
        return self.value if self.direction == "reverse" else -self.value


def default_vbi(profile: GaussianProfile, material: Material, temp: float) -> float:
    """Built-in potential model V_T * ln(N0 * N_B / n_i^2), volts."""
    ratio = profile.n0 * profile.n_b / material.n_i ** 2
    if ratio <= 1.0:
        raise DegenerateJunctionError(
            f"N0*N_B = {profile.n0 * profile.n_b:g} must exceed n_i^2 = {material.n_i ** 2:g}")
    return thermal_voltage(temp) * math.log(ratio)


@dataclass(frozen=True)
class JunctionSpec:
    """A solvable junction: material + profile + junction depth + built-in
    potential. x_j and v_bi default to the computed values but can be
    overridden to reproduce the formulas with arbitrary inputs."""

    material: Material
    profile: GaussianProfile
    temp: float = 300.0
    x_j: float = None
    v_bi: float = None

    def __post_init__(self):
        if not 0.0 < self.temp < math.inf:
            raise ValueError(f"temperature must be finite and positive, got {self.temp}")
        if self.x_j is None:
            object.__setattr__(self, "x_j", junction_depth(self.profile))
        if self.v_bi is None:
            object.__setattr__(self, "v_bi", default_vbi(self.profile, self.material, self.temp))
        if not 0.0 <= self.x_j < math.inf:
            raise ValueError(f"x_j must be finite and >= 0, got {self.x_j}")
        if not 0.0 < self.v_bi < math.inf:
            raise ValueError(f"v_bi must be finite and positive, got {self.v_bi}")

    @property
    def eps(self) -> float:
        return self.material.eps

    @property
    def potential_scale(self) -> float:
        """q*N0*L_d^2 / (2*eps), the prefactor of the moment identity, volts."""
        p = self.profile
        return Q * p.n0 * p.l_d ** 2 / (2.0 * self.eps)


@dataclass(frozen=True)
class SolveResult:
    total_potential: float
    w_sc: float
    c_b: float
    regime: Regime
    log_argument: float


@dataclass(frozen=True)
class ValidityWindow:
    """Exclusive bias bounds within which the closed forms are real."""

    v_max_reverse: float
    v_max_forward: float


def total_potential(spec: JunctionSpec, bias: Bias) -> float:
    """V_bi + V_R for reverse bias, V_bi - V_F for forward."""
    if bias.direction == "reverse":
        return spec.v_bi + bias.value
    if bias.value >= spec.v_bi:
        raise FlatBandError(
            f"forward bias {bias.value} V reaches flat band (v_bi = {spec.v_bi} V)")
    return spec.v_bi - bias.value


def validity_window(spec: JunctionSpec, regime: str | Regime = "general") -> ValidityWindow:
    """Bias range keeping the log argument of ``regime`` positive.

    v_max_reverse is the exclusive supremum of admissible V_R; when it is
    <= 0 the formula cannot represent this junction even at equilibrium.
    """
    supportable = spec.potential_scale * log_argument(spec, 0.0, _regime(regime))
    v_max_reverse = supportable - spec.v_bi
    if v_max_reverse <= 0.0:
        raise EquilibriumInvalidError(
            f"junction invalid even unbiased: supportable potential "
            f"{supportable:g} V <= v_bi = {spec.v_bi:g} V",
            v_max_reverse=v_max_reverse)
    return ValidityWindow(v_max_reverse=v_max_reverse, v_max_forward=spec.v_bi)


def log_argument(spec: JunctionSpec, v_total: float, regime: Regime = Regime.GENERAL) -> float:
    """The bracketed quantity under the logarithm, for a given total potential."""
    u = v_total / spec.potential_scale
    if regime is Regime.DEEP:
        return 1.0 - u
    return math.exp(-(spec.x_j / spec.profile.l_d) ** 2) - u


def w_sc_from_potential(spec: JunctionSpec, v_total: float,
                        regime: Regime = Regime.GENERAL) -> SolveResult:
    """Solve at an explicit total potential (volts). Used internally and by
    tests probing limits a Bias cannot express (e.g. V_total = 0)."""
    a = log_argument(spec, v_total, regime)
    if a <= 0.0:
        v_max_reverse = validity_window(spec, regime).v_max_reverse
        raise PunchThroughError(
            f"log argument {a:g} <= 0 at total potential {v_total:g} V; "
            f"max reverse bias is {v_max_reverse:g} V",
            v_max_reverse=v_max_reverse)
    w = spec.profile.l_d * math.sqrt(-math.log(a))
    if regime is Regime.GENERAL:
        w -= spec.x_j
    c_b = spec.eps / w if w > 0.0 else math.inf
    return SolveResult(total_potential=v_total, w_sc=w, c_b=c_b,
                       regime=regime, log_argument=a)


def w_sc_general(spec: JunctionSpec, bias: Bias) -> SolveResult:
    return solve(spec, bias, Regime.GENERAL)


def w_sc_shallow(spec: JunctionSpec, bias: Bias) -> SolveResult:
    return solve(spec, bias, Regime.SHALLOW)


def w_sc_deep(spec: JunctionSpec, bias: Bias) -> SolveResult:
    return solve(spec, bias, Regime.DEEP)


def solve(spec: JunctionSpec, bias: Bias, regime: str | Regime = "general") -> SolveResult:
    """Regime-dispatching entry point; "auto" always picks general."""
    return w_sc_from_potential(spec, total_potential(spec, bias), _regime(regime))


def capacitance(spec: JunctionSpec, bias: Bias, regime: str | Regime = "general") -> float:
    """Barrier capacitance eps / W_SC, F/m^2."""
    return solve(spec, bias, regime).c_b
