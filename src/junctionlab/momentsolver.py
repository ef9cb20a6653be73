"""Numerical engine built directly on Gauss's law.

Everything here rests on the moment identity: integrating x*rho(x)/eps(x)
over the space charge region equals the total potential across it (the
boundary term x*E vanishes because the field is zero at both SCR ends).
The closed forms elsewhere in the package are verified against this
solver, never the other way around.

Sign convention: solvers work with the magnitude of the moment; targets
are positive total potentials. The physical net-charge moment is negative
for a donor-diffused junction (positive charge sits at smaller x), which
only reflects the choice of potential reference.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import IntegrationWarning, quad as _scipy_quad
from scipy.optimize import brentq


def quad(*args, **kwargs):
    # requested tolerances sit at machine precision; scipy's roundoff
    # warning fires routinely there without degrading the result
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _scipy_quad(*args, **kwargs)

from .doping import GaussianProfile, charge_density, junction_depth
from .errors import (StackExhaustedError, SurfaceReachedError,
                     UnreachablePotentialError)
from .physcore import Material

_QUAD_OPTS = dict(epsabs=1e-30, epsrel=1e-12, limit=200)


@dataclass(frozen=True)
class ChargeProfile:
    """Evaluatable charge density x (m) -> rho (C/m^3) with its step
    points. ``scale`` is a characteristic length used to seed bracketing
    searches."""

    fn: Callable[[float], float]
    steps: tuple = ()
    scale: float = 1e-6

    @classmethod
    def paper(cls, profile: GaussianProfile) -> "ChargeProfile":
        """Bare Gaussian q*N0*exp(-x^2/L_d^2), the closed forms' integrand."""
        return cls(fn=lambda x: charge_density(profile, x, "paper"), scale=profile.l_d)

    @classmethod
    def net(cls, profile: GaussianProfile) -> "ChargeProfile":
        """Signed net charge q*(N(x) - N_B); changes sign at x_j."""
        return cls(fn=lambda x: charge_density(profile, x, "net"), scale=profile.l_d)

    @classmethod
    def net_magnitude(cls, profile: GaussianProfile) -> "ChargeProfile":
        """|net| charge, for one-sided solves on the substrate side."""
        return cls(fn=lambda x: abs(charge_density(profile, x, "net")),
                   steps=(junction_depth(profile),), scale=profile.l_d)

    @classmethod
    def step(cls, value: float, scale: float = 1e-6) -> "ChargeProfile":
        """Constant charge density from the surface inward, zero at x < 0."""
        return cls(fn=lambda x: value if x >= 0.0 else 0.0, steps=(0.0,), scale=scale)


@dataclass(frozen=True)
class HeteroStack:
    """Ordered layers of (material, thickness); boundaries accumulate from 0."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("stack needs at least one layer")
        for mat, t in self.layers:
            if not 0.0 < t < math.inf:
                raise ValueError(f"layer thickness must be finite and positive, got {t}")

    @property
    def boundaries(self) -> list[float]:
        """Interior interfaces plus the far end (total thickness last)."""
        out, acc = [], 0.0
        for _, t in self.layers:
            acc += t
            out.append(acc)
        return out

    @property
    def total_thickness(self) -> float:
        return self.boundaries[-1]

    def eps_at(self, x: float) -> float:
        acc = 0.0
        for mat, t in self.layers:
            acc += t
            if x <= acc:
                return mat.eps
        raise StackExhaustedError(f"x = {x:g} m beyond stack end {acc:g} m")


def _as_eps(eps) -> tuple[Callable[[float], float], list[float], float]:
    """Normalize a permittivity argument (constant or HeteroStack) to
    (eps_of_x, interior breakpoints, hard upper limit or inf)."""
    if isinstance(eps, HeteroStack):
        return eps.eps_at, eps.boundaries[:-1], eps.total_thickness
    value = float(eps)
    return (lambda x: value), [], math.inf


def _segmented_quad(fn: Callable[[float], float], a: float, b: float, breaks) -> float:
    """Integral of fn over [a, b], one quadrature per piece between the
    breaks that lie strictly inside, summed left to right."""
    total, lo = 0.0, a
    for p in sorted({p for p in breaks if a < p < b}):
        total += quad(fn, lo, p, **_QUAD_OPTS)[0]
        lo = p
    return total + quad(fn, lo, b, **_QUAD_OPTS)[0]


def _moment_integrand(rho: ChargeProfile, eps_of_x) -> Callable[[float], float]:
    """x*rho(x)/eps(x), raising on a non-finite value."""
    def integrand(x):
        v = x * rho.fn(x) / eps_of_x(x)
        if not math.isfinite(v):
            raise ArithmeticError(f"non-finite integrand at x = {x:g} m")
        return v
    return integrand


@dataclass(frozen=True)
class ScrSolution:
    x_left: float
    x_right: float
    moment_value: float           # magnitude of the moment integral, volts


def moment_integral(rho: ChargeProfile, eps, a: float, b: float) -> float:
    """Definite integral of x*rho(x)/eps(x) over [a, b].

    Splits at every permittivity boundary and declared charge step;
    adaptive quadrature to 1e-10 relative (1e-12 requested internally).
    ``b`` may be inf when the permittivity is constant past the last
    breakpoint.
    """
    if b < a:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if b == a:
        return 0.0
    eps_of_x, eps_breaks, _ = _as_eps(eps)
    return _segmented_quad(_moment_integrand(rho, eps_of_x), a, b, (*eps_breaks, *rho.steps))


def total_charge(rho: ChargeProfile, a: float, b: float) -> float:
    """Integral of rho over [a, b], C/m^2."""
    return _segmented_quad(rho.fn, a, b, rho.steps)


def _moment_supremum(rho: ChargeProfile, eps, x_start: float) -> float:
    """Limit of the moment integral as the right end goes to infinity."""
    # breaks at a few scales past x_start and at `far`, beyond every
    # step, so adaptive quadrature cannot miss the near-field feature
    eps_of_x, eps_breaks, _ = _as_eps(eps)
    far = max([x_start + 100.0 * rho.scale, *rho.steps, *eps_breaks])
    heads = [x_start + k * rho.scale for k in (1.0, 3.0, 10.0, 30.0)]
    return _segmented_quad(_moment_integrand(rho, eps_of_x), x_start, math.inf,
                           (*heads, far, *rho.steps, *eps_breaks))


def solve_one_sided(rho: ChargeProfile, eps, x_start: float, target: float) -> ScrSolution:
    """Find x_right with |moment_integral(x_start, x_right)| = target.

    Brackets by geometric expansion from scale/100, then Brent. Raises
    UnreachablePotentialError (with the supremum) when the charge profile
    cannot support the target potential.
    """
    if target <= 0.0:
        raise ValueError(f"target potential must be positive, got {target}")
    _, _, eps_end = _as_eps(eps)

    def f(b):
        return abs(moment_integral(rho, eps, x_start, b)) - target

    # geometric bracket expansion; stagnating f with room left means the
    # moment converges to a supremum below the target
    w = rho.scale / 100.0
    lo = x_start
    prev_fb = None
    while True:
        b = min(x_start + w, eps_end)
        fb = f(b)
        if fb >= 0.0:
            hi = b
            break
        if b == eps_end:
            raise StackExhaustedError(
                f"SCR would extend past the stack end at {eps_end:g} m "
                f"(moment reaches only {fb + target:g} of {target:g} V)")
        stalled = (prev_fb is not None and fb - prev_fb <= 1e-14 * target
                   and w > 10.0 * rho.scale)
        if stalled or w / rho.scale > 1e15:
            sup = _moment_supremum(rho, eps, x_start)
            if target >= sup:
                raise UnreachablePotentialError(
                    f"target {target:g} V exceeds supremum {sup:g} V", supremum=sup)
        prev_fb = fb
        lo = b
        w *= 2.0

    x_right = brentq(f, lo, hi, xtol=1e-18, rtol=8.9e-16)
    m = abs(moment_integral(rho, eps, x_start, x_right))
    return ScrSolution(x_left=x_start, x_right=x_right, moment_value=m)


def solve_two_sided(rho: ChargeProfile, eps, x_j: float, target: float) -> ScrSolution:
    """Find (x_left, x_right) straddling x_j satisfying charge neutrality
    and |moment| = target simultaneously.

    rho must be a signed net-model profile changing sign at x_j. Outer
    Brent on x_right; inner Brent solves x_left from neutrality. Raises
    SurfaceReachedError when neutrality would push x_left below 0.
    """
    if target <= 0.0:
        raise ValueError(f"target potential must be positive, got {target}")

    def left_for(xr):
        def g(xl):
            return total_charge(rho, xl, xr)
        if g(0.0) * g(x_j) > 0.0:
            # even emptying the whole diffused side cannot balance the right
            raise SurfaceReachedError(
                f"SCR reaches the surface: right boundary {xr:g} m needs more "
                f"compensating charge than exists above x_j")
        return brentq(g, 0.0, x_j, xtol=1e-18, rtol=8.9e-16)

    def f(xr):
        xl = left_for(xr)
        return abs(moment_integral(rho, eps, xl, xr)) - target

    w = rho.scale / 100.0
    lo = None
    while True:
        xr = x_j + w
        fv = f(xr)
        if fv >= 0.0:
            hi = xr
            break
        lo = xr
        w *= 2.0
        if w / rho.scale > 1e15:
            raise UnreachablePotentialError(
                f"target {target:g} V not reached by two-sided solve",
                supremum=fv + target)
    if lo is None:
        lo = x_j + w / 1e6

    x_right = brentq(f, lo, hi, xtol=1e-18, rtol=8.9e-16)
    x_left = left_for(x_right)
    m = abs(moment_integral(rho, eps, x_left, x_right))
    return ScrSolution(x_left=x_left, x_right=x_right, moment_value=m)


def reconstruct_field_potential(rho: ChargeProfile, eps, x_left: float,
                                x_right: float, n_samples: int = 101) -> list:
    """Sample (x, E, u) on the solved SCR.

    E(x) is the cumulative integral of rho/eps from x_left; u(x) is
    -integral of E with u(x_left) = 0, evaluated as a single quadrature of
    (x - t)*rho(t)/eps(t) per sample point.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    eps_of_x, eps_breaks, _ = _as_eps(eps)
    xs = [x_left + (x_right - x_left) * i / (n_samples - 1) for i in range(n_samples)]

    breaks = (*rho.steps, *eps_breaks)
    out = []
    e_acc = 0.0
    prev = xs[0]
    for x in xs:
        if x > prev:
            e_acc += _segmented_quad(lambda t: rho.fn(t) / eps_of_x(t), prev, x, breaks)
            prev = x
        if x == x_left:
            u = 0.0
        else:
            u = -_segmented_quad(lambda t: (x - t) * rho.fn(t) / eps_of_x(t), x_left, x,
                                 breaks)
        out.append((x, e_acc, u))
    return out


def solve_hetero(stack: HeteroStack, rho: ChargeProfile, x_start: float,
                 target: float) -> ScrSolution:
    """One-sided solve with piecewise permittivity from the stack.

    Quadrature splits at every layer boundary the SCR crosses; raises
    StackExhaustedError when the SCR would leave the stack.
    """
    if not (0.0 <= x_start <= stack.total_thickness):
        raise ValueError(f"x_start = {x_start:g} m outside stack [0, {stack.total_thickness:g}] m")
    return solve_one_sided(rho, stack, x_start, target)
