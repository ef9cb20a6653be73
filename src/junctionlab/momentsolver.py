"""Numerical engine built directly on Gauss's law.

Everything here rests on the moment identity: integrating x*rho(x)/eps(x)
over the space charge region equals the total potential across it (the
boundary term x*E vanishes because the field is zero at both SCR ends).
The closed forms elsewhere in the package are verified against this
solver, never the other way around. It holds only the numerics: the
charge it integrates is a ChargeProfile, whose models live in doping.

Sign convention: solvers work with the magnitude of the moment; targets
are positive total potentials. The physical net-charge moment is negative
for a donor-diffused junction (positive charge sits at smaller x), which
only reflects the choice of potential reference.
"""

import bisect
import functools
import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

from .doping import ChargeProfile
from .errors import (StackExhaustedError, SurfaceReachedError,
                     UnreachablePotentialError)

# Gauss-Kronrod rules as (the centre's Kronrod weight, its Gauss weight,
# then (abscissa, Kronrod weight, Gauss weight) for each pair of nodes +-x,
# the Gauss nodes first, in QUADPACK's order of summation; the other
# Kronrod nodes have no Gauss weight). _GK21 and _QK15 are QUADPACK's qk21
# and qk15 (Piessens et al., QUADPACK, Springer 1983), their published 33
# digits as the nearest doubles
_GK21 = (0.1494455540029169, 0.0, (
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.2943928627014602, 0.14277593857706009, 0.0),
))
_QK15 = (0.20948214108472782, 0.4179591836734694, (
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.20778495500789848, 0.20443294007529889, 0.0),
))
# the 3-point Gauss rule and its 7-point Kronrod extension (Laurie, Math.
# Comp. 66, 1997), exact to degree 11: the nearest doubles to a 50-digit
# solve of its moment equations
_QK7 = (0.45091653865847414, 0.8888888888888888, (
    (0.7745966692414834, 0.26848808986833345, 0.5555555555555556),
    (0.9604912687080203, 0.10465622602646726, 0.0),
    (0.43424374934680254, 0.40139741477596225, 0.0),
))
# the rules' error floor, relative to the integral of |f|
_ROUNDOFF = 50.0 * sys.float_info.epsilon
# the tolerances qagse is asked for, and its limit on panels
_EPSABS, _EPSREL, _PANELS = 1e-30, 1e-12, 200
# a root search ends once a step is within _XTOL + _RTOL*|x|, or once two
# Newton steps predict an error within _RTOL*|x| (_converged)
_XTOL, _RTOL = 1e-18, 8.9e-16
# ln of the largest float: e^u overflows past it
_LOG_MAX = math.log(sys.float_info.max)
# points per Chebyshev fit of rho/eps, tried in turn
_CHEBYSHEV_SIZES = (17, 33, 65, 129)
# multiples of rho.scale past an interval's start where moment_integral and
# reconstruct_field_potential split it too, so that a charge narrow against
# the interval is not missed between the nodes of one piece
_NEAR_SPLITS = (1, 3, 10, 30, 100)
# solve_one_sided's last success, (rho, eps, x_start, points, (w, |M|) where
# its search started), replaced whole
_last = None


@dataclass(frozen=True)
class HeteroStack:
    """Ordered layers of (material, thickness), stacked from x = 0."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("stack needs at least one layer")
        for mat, t in self.layers:
            if not 0.0 < t < math.inf:
                raise ValueError(f"layer thickness must be finite and positive, got {t}")

    def eps_at(self, x: float) -> float:
        acc = 0.0
        for mat, t in self.layers:
            acc += t
            if x <= acc:
                return mat.eps
        raise StackExhaustedError(f"x = {x:g} m beyond stack end {acc:g} m")


def _domain(rho: ChargeProfile, eps, lo: float,
            hi: float) -> tuple[Callable[[float], float], tuple, float]:
    """(eps_of_x, breaks, end) for a constant or HeteroStack permittivity:
    the stack's interior interfaces plus rho's steps, and the stack end
    (inf for a constant). Raises ValueError unless a constant is finite
    and positive, lo is finite and lo <= hi <= end."""
    if isinstance(eps, HeteroStack):
        *interfaces, end = itertools.accumulate(t for _, t in eps.layers)
        eps_of_x, breaks = eps.eps_at, (*interfaces, *rho.steps)
    else:
        value = float(eps)
        if not 0.0 < value < math.inf:
            raise ValueError(f"eps must be finite and positive, got {value}")
        eps_of_x, breaks, end = (lambda x: value), rho.steps, math.inf
    if not (-math.inf < lo < math.inf and lo <= hi <= end):
        raise ValueError(f"need a finite start and start <= stop <= {end:g} m, "
                         f"got [{lo:g}, {hi:g}]")
    return eps_of_x, breaks, end


def _moment_integrand(rho: ChargeProfile, eps, centre: float = 0.0,
                      origin: float = 0.0) -> Callable[[float], float]:
    """s -> (x - centre)*rho(x)/eps(x) at x = origin + s, raising on a
    non-finite value. ``eps`` is a permittivity _domain accepts, or a
    function of x; a constant is divided by directly, with no call."""
    fn = rho.fn
    eps_at = eps.eps_at if isinstance(eps, HeteroStack) else eps if callable(eps) else None
    value = float(eps) if eps_at is None else 0.0

    def integrand(s):
        x = origin + s
        v = (x - centre) * fn(x) / (value if eps_at is None else eps_at(x))
        if not math.isfinite(v):
            raise ArithmeticError(f"non-finite integrand at x = {x:g} m")
        return v
    return integrand


def _qk(f, a: float, b: float, rule: tuple) -> tuple:
    """(integral, error estimate, integral of |f - mean|) of f on [a, b],
    a <= b, by a Gauss-Kronrod ``rule``, its error taken from the embedded
    Gauss rule as QUADPACK's qk15 and qk21 scale it, with their roundoff
    floor."""
    k_centre, g_centre, nodes = rule
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centre)
    resg, resk = g_centre * fc, k_centre * fc
    resabs = abs(resk)
    fv = []  # (wk, f1, f2) per pair of nodes
    for x, wk, wg in nodes:
        dx = half * x
        f1, f2 = f(centre - dx), f(centre + dx)
        fv.append((wk, f1, f2))
        pair = f1 + f2
        resg += wg * pair
        resk += wk * pair
        resabs += wk * (abs(f1) + abs(f2))
    mean = 0.5 * resk
    resasc = k_centre * abs(fc - mean)
    for wk, f1, f2 in fv:
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, _ROUNDOFF * resabs), resasc


def _quad(fn: Callable[[float], float], a: float, b: float, rules: tuple = (_GK21,)) -> float:
    """Integral of fn over [a, b], a finite and b finite or inf.

    Each of the Gauss-Kronrod ``rules`` in turn gets one panel over the
    whole interval, kept if its error is within max(1e-30,
    1e-12*|integral|) and differs from its integral of |f - mean| (an
    error equal to that is the rule's cap, not an estimate), or is 0: a
    cheap rule first and a costlier one where it fails, as QUADPACK's qng
    escalates. The last rule then runs adaptively as QUADPACK's qagse
    runs it, without its extrapolation: the panel with the largest error
    is bisected until the errors sum to within that tolerance of the sum;
    if they do not once 200 panels are used, ArithmeticError names
    [a, b]. [a, inf) is integrated over t in (0, 1] with x = a + (1 -
    t)/t. Only interior nodes are evaluated, never a or b.
    """
    if b == math.inf:
        def f(t):
            return fn(a + (1.0 - t) / t) / (t * t)
        lo, hi = 0.0, 1.0
    else:
        f, lo, hi = fn, a, b
    for rule in rules:
        r, err, resasc = _qk(f, lo, hi, rule)
        if err <= max(_EPSABS, _EPSREL * abs(r)) and err != resasc or err == 0.0:
            return r
    # the last rule's panel is the first to bisect
    area, errsum = r, err
    heap = [(-err, lo, hi, r)]
    for _ in range(_PANELS - 1):
        neg_err, lo, hi, r = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        r1, e1, _ = _qk(f, lo, mid, rule)
        r2, e2, _ = _qk(f, mid, hi, rule)
        heapq.heappush(heap, (-e1, lo, mid, r1))
        heapq.heappush(heap, (-e2, mid, hi, r2))
        area += r1 + r2 - r
        errsum += e1 + e2 + neg_err
        if errsum <= max(_EPSABS, _EPSREL * abs(area)):
            break
    else:
        raise ArithmeticError(f"integral over [{a:g}, {b:g}] not resolved in {_PANELS} "
                              f"panels (error estimate {errsum:g})")
    return math.fsum(panel[3] for panel in heap)


def _running_integral(fn: Callable[[float], float], origin: float,
                      breaks, seed=(), rules: tuple = (_GK21,)) -> Callable[[float], float]:
    """x -> integral of fn from origin to x, remembered at every x asked for.

    A new x is integrated only from the nearest remembered point between
    the origin and itself, so every value is a sum of increments growing
    away from the origin, never a difference taken from a point farther
    out, and asking again for a remembered x costs no quadrature. Each
    increment is split at the breaks inside it, and each piece integrated
    by _quad with ``rules``, summed left to right. ``seed`` holds (x,
    value) pairs past the origin, ascending, remembered from the start: an
    earlier integral of the same fn from the same origin. The remembered
    (xs, values) are the function's ``points``. A NaN break is ignored.
    """
    xs, values = [origin], [0.0]
    for x, v in seed:
        xs.append(x)
        values.append(v)
    # NaN is dropped before sorting: it would leave the list out of order
    cuts = sorted({p for p in breaks if not math.isnan(p)})

    def value(x):
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return values[i]
        lo, hi = (xs[i - 1], x) if x > origin else (x, xs[i])
        step = 0.0
        # the breaks strictly inside (lo, hi), then hi
        for p in cuts[bisect.bisect_right(cuts, lo):bisect.bisect_left(cuts, hi)]:
            step += _quad(fn, lo, p, rules)
            lo = p
        step += _quad(fn, lo, hi, rules)
        v = values[i - 1] + step if x > origin else values[i] - step
        xs.insert(i, x)
        values.insert(i, v)
        return v
    value.points = xs, values
    return value


def _newton_point(x: float, fx: float, dfx: float) -> float:
    """x - f/f', or nan where f' = 0."""
    return x - fx / dfx if dfx else math.nan


def _converged(step: float, newton: float, x: float) -> bool:
    """Whether the step to x ends a root search: it is within
    ``_XTOL + _RTOL*|x|``, or it is a Newton step that follows the Newton
    step ``newton`` (0 when the step before was none) from an evaluated
    point and predicts an error step^3/newton^2 <= ``_RTOL*|x|`` at x.
    Near a simple root Newton's error squares at each step, e' ~ C*e^2,
    each step is about the error it removes, and so the two steps
    estimate C ~ step/newton^2. The test is relative only: 1e-18 m is
    1e-10 of a 10 nm SCR."""
    return step <= _XTOL + _RTOL * abs(x) or step ** 3 <= _RTOL * abs(x) * newton * newton


def _newton_in_bracket(f_df, neg: float, pos: float, x: float,
                       f_x: tuple = (), newton: float = 0.0) -> float:
    """Root of f between neg and pos, where f(neg) < 0 <= f(pos), from the
    guess x, or from x already evaluated when ``f_x`` holds f_df(x) (x may
    then be an end of the bracket). ``newton`` is the Newton step that
    reached x from a point evaluated before it, if one did.

    ``f_df(x)`` returns f and its derivative. Each step is Newton's while
    it stays inside the shrinking bracket and is at most half the step
    before last; otherwise it bisects (rtsafe, Numerical Recipes 9.4).
    Returns the next point, unevaluated, once _converged says so: the
    step to it is within ``_XTOL + _RTOL*|x|``, or two Newton steps
    predict its error within ``_RTOL*|x|``. The root then lies about one
    step from the last point evaluated.
    """
    lo, hi = min(neg, pos), max(neg, pos)
    if not (f_x or lo < x < hi):
        x, newton = 0.5 * (lo + hi), 0.0
    dx_old = dx = hi - lo
    while True:
        fx, dfx = f_x or f_df(x)
        f_x = ()
        if fx == 0.0:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
        lo, hi = min(neg, pos), max(neg, pos)
        x_new = _newton_point(x, fx, dfx)
        if lo <= x_new <= hi and 2.0 * abs(x_new - x) <= dx_old:
            dx_old, dx = dx, abs(x_new - x)
            before, newton = newton, dx
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            x_new, before, newton = lo + dx, 0.0, 0.0
        if _converged(dx, before, x_new):
            return x_new
        x = x_new


def _predicted_point(x: float, fx: float, dfx: float, x_p: float, f_p: float) -> float:
    """The root of the quadratic in f through (fx, x) with slope 1/dfx
    there and through (f_p, x_p): x's Newton point plus the quadratic's
    curvature term, a continuation predictor (Allgower & Georg, *Numerical
    Continuation Methods*, ch. 2). nan unless it lies past x and within
    twice x's Newton step."""
    newton = _newton_point(x, fx, dfx)
    df = f_p - fx
    if not (df and x < newton < math.inf):
        return math.nan
    guess = newton + (x_p - x - df / dfx) * (fx / df) ** 2
    return guess if x < guess <= x + 2.0 * (newton - x) else math.nan


@dataclass(frozen=True)
class ScrSolution:
    x_left: float
    x_right: float
    # the SCR's width as solved, in offsets from x_start or x_j: it keeps
    # its digits where x_right - x_left rounds to ulps of them
    width: float
    # |moment| over the SCR in volts (centred on x_j two-sided): a Taylor
    # step from the last point evaluated, within ~M'*_RTOL*width of it
    moment_value: float


def moment_integral(rho: ChargeProfile, eps, a: float, b: float) -> float:
    """Definite integral of x*rho(x)/eps(x) over [a, b].

    Splits at every permittivity boundary and declared charge step, and
    at the near splits a + rho.scale*(1, 3, 10, 30, 100), so that a
    charge narrow against [a, b] is not missed; adaptive quadrature to
    1e-10 relative (1e-12 requested internally). ``a`` must be finite and
    ``a <= b``; ``b`` may be inf only for a constant permittivity, and for
    a HeteroStack must not pass the stack end. A piece the quadrature does
    not resolve raises ArithmeticError naming it, as does a moment that
    diverges at inf (a charge that does not vanish at depth).
    """
    _, breaks, _ = _domain(rho, eps, a, b)
    near = (a + rho.scale * k for k in _NEAR_SPLITS)
    return _running_integral(_moment_integrand(rho, eps), a, (*breaks, *near))(b)


def solve_one_sided(rho: ChargeProfile, eps, x_start: float, target: float) -> ScrSolution:
    """Find the width w with |moment_integral(x_start, x_start + w)| = target.

    The unknown is w, the offset from x_start, so that a narrow SCR is not
    resolved only to ulps of x_start (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 1.7): the moment is integrated over
    s = x - x_start. Its derivative in w is x*rho/eps at x_start + w. A
    cold solve grows the bracket from w = 0 by forward probes at twice the
    Newton step, a Newton step falling short on a concave moment, each at
    most the larger of rho.scale and w (doubling from scale/100 where that
    derivative is 0), until |moment| >= target; a safeguarded Newton
    (_newton_in_bracket) then finds the root inside the bracket, from the
    last probe's Newton point. The moment is integrated only over each new
    increment, by qk21. A probe at the domain's end that falls short
    raises StackExhaustedError; a moment that has stalled past 10 scales,
    or a probe 1e15 scales out, is compared with the supremum.

    A bias sweep continues from its last solve (Allgower & Georg,
    *Numerical Continuation Methods*, 1990, ch. 2): the module keeps the
    last successful solve's (rho, eps, x_start), up to three of its
    moment's (w, value) points, the root and its two neighbours inside the
    domain, and the (w, |M|) where its search started (w = 0 when cold).
    A solve on the same rho object (``is``), an equal eps and an equal
    x_start seeds its moment with the points, and the first point at or
    above the target is its bracket's upper end: no probe is made. When a
    point lies below the target the solve is warm. From the largest such
    point, its start (its slope one evaluation of rho), it predicts: its
    first point is where the quadratic in the moment through the start,
    with slope 1/M' there, and through the last solve's start reaches the
    target, or the Newton point where that lies behind the start or past
    twice the Newton step. Then it corrects by plain Newton steps forward,
    capped as a cold probe is, each iterate with |moment| < target the new
    lower end, until _converged stops it (the next point is returned
    unevaluated) or an iterate reaches the target; the safeguarded Newton
    then starts from the upper end, evaluated. A warm solve's increments
    are short and smooth: each is integrated by Kronrod's 7-point rule,
    and by qk15, adaptively, where that rule's one panel fails its error
    test. Otherwise it starts from w = 0 as a cold solve does, inside [0,
    upper end] when the seed gives one, with qk21. A warm result agrees
    with a cold one, on a newly built rho, within the quadrature's
    tolerance, not bit for bit; any other solve is cold.

    ``moment_value`` costs no quadrature: the search returns w one step d
    past the last point w0 it evaluated, and the moment there is one
    Taylor step, M(w0) + M'(w0)*d, with the slope M'(w0) that Newton
    already evaluated. After a Newton step the value is the target to
    rounding. Beyond the quadrature error of M(w0), the step is off by at
    most |d|*max|M'(s) - M'(w0)| over s between w0 and w, |M''|/2*d^2
    where rho/eps is smooth. That is M' times Newton's own estimate of the
    error left at w, |M''/(2M')|*d^2: ~M'*_RTOL*w after a stop on the
    predicted error, and ~(d/w)^2 of the moment after a stop on a step
    within d <= _XTOL + _RTOL*w.

    Raises UnreachablePotentialError (with the supremum, the moment to the
    domain's end) when the charge profile cannot support the target
    potential, and StackExhaustedError when the SCR would leave the stack.
    """
    global _last
    _, breaks, end = _domain(rho, eps, x_start, x_start)
    if not x_start >= 0.0:
        raise ValueError(f"x_start = {x_start:g} m must not be negative")
    if not 0.0 < target < math.inf:
        raise ValueError(f"target potential must be finite and positive, got {target}")
    limit = end - x_start
    if x_start + limit > end:  # no node may round past the stack end
        limit = math.nextafter(limit, 0.0)
    last = _last
    seed = last[3] if last and last[0] is rho and last[1] == eps and last[2] == x_start else ()
    w_start, upper = 0.0, math.inf
    for w, m in seed:
        if abs(m) >= target:
            upper = w
            break
        w_start = w
    warm = w_start > 0.0
    integrand = _moment_integrand(rho, eps, origin=x_start)
    rules = (_QK7, _QK15) if warm else (_GK21,)
    moment = _running_integral(integrand, 0.0, [p - x_start for p in breaks], seed, rules)
    near = None  # (w, moment, integrand) at the last point evaluated

    def f_df(w):
        nonlocal near
        near = w, moment(w), integrand(w)
        return abs(near[1]) - target, abs(near[2])

    # f = |M| - target < 0 at lo; f_upper holds f, f' at the upper end once a
    # probe has evaluated it, and newton the Newton step to the last point
    lo, f_lo, df_lo = w_start, *f_df(w_start)
    m_start, f_upper, newton = abs(near[1]), (), 0.0
    w = _predicted_point(lo, f_lo, df_lo, last[4][0], last[4][1] - target) if warm else math.nan
    while upper == math.inf:
        point = _newton_point(lo, f_lo, df_lo)
        if not lo < w:
            if lo < point < math.inf:
                cap = max(lo, rho.scale)
                w = point if warm and point - lo <= cap else lo + min(2.0 * (point - lo), cap)
            else:
                w = lo + max(lo, rho.scale / 100.0)
        w = min(w, limit)
        step = w - lo if w == point else 0.0
        if warm and w < limit and _converged(w - lo, newton if step else 0.0, w):
            break
        f_w, df_w = f_df(w)
        if f_w >= 0.0:
            upper, f_upper, newton = w, (f_w, df_w), step
        elif w == limit:
            raise StackExhaustedError(
                f"SCR would extend past the stack end at {end:g} m "
                f"(moment reaches only {f_w + target:g} of {target:g} V)")
        else:
            if (f_w - f_lo <= 1e-14 * target and w > 10.0 * rho.scale) or w / rho.scale > 1e15:
                # the probes have integrated the near field, so the supremum
                # needs only the tail from the last of them to the domain's end
                sup = abs(moment(limit))
                if target >= sup:
                    raise UnreachablePotentialError(
                        f"target {target:g} V exceeds supremum {sup:g} V", supremum=sup)
            lo, f_lo, df_lo, w, newton = w, f_w, df_w, math.nan, step
    else:
        w = (_newton_in_bracket(f_df, lo, upper, upper, f_upper or f_df(upper), newton) if warm
             else _newton_in_bracket(f_df, lo, upper, _newton_point(lo, f_lo, df_lo)))
    w_near, m_near, slope = near
    value = m_near + slope * (w - w_near)
    xs, values = moment.points
    i, k = bisect.bisect_left(xs, w), bisect.bisect_right(xs, w)
    around = [(w, value)]
    if i:
        around.insert(0, (xs[i - 1], values[i - 1]))
    if k < len(xs):
        around.append((xs[k], values[k]))
    points = []
    for point in around:
        if 0.0 < point[0] < limit:
            points.append(point)
    _last = (rho, eps, x_start, tuple(points), (w_start, m_start))
    return ScrSolution(x_left=x_start, x_right=x_start + w, width=w, moment_value=abs(value))


def solve_two_sided(rho: ChargeProfile, eps, x_j: float, target: float) -> ScrSolution:
    """Find (x_left, x_right) straddling x_j satisfying charge neutrality
    and |moment| = target simultaneously.

    rho must change sign once, at x_j, as a net-model profile does, and
    each side's charge may end inside the domain (a layer of limited
    extent); the charge and the moment centred on x_j are running
    integrals from x_j, split as in moment_integral. With Q_l, Q_r the
    charge on either side and M the moment, Newton's method solves
    ln(Q_r/Q_l) = 0 and ln(|M|/target) = 0 in the logs of the offsets w_l
    = x_j - x_left and w_r = x_right - x_j (``width`` is w_l + w_r), where
    both are near linear, with the exact Jacobian: rows (-w_l*rho_l/Q_l,
    w_r*rho_r/Q_r) and (w_l^2*rho_l/eps_l, w_r^2*rho_r/eps_r)/M in
    magnitudes. It starts at the linearly graded junction's w =
    (12*eps*V/a)^(1/3)/2 each side, a the slope of |rho| past x_j, and
    takes plain Newton steps. One rule takes every trial it cannot use: a
    side at or past its wall (w_l at or past x_j, the surface; x_right past
    the domain's end; a NaN offset is past), where the trial is not
    evaluated, or a side where rho has lost the sign it has next to x_j
    (past the end of that side's charge). The trial is checked at its
    x_right as below; then each such side goes onto its wall and halfway
    back toward the last usable point (x_j before the first), strictly
    between, and the next step is no Newton step for the stop. The side
    signs are rho's at the start where it straddles x_j, else at the
    floats next to x_j; ArithmeticError names x_j where they are not
    opposite. One raise ends a solve where such a side cannot move, or
    where the charges cannot be compared while both sides keep their
    signs: SurfaceReachedError at the surface, StackExhaustedError at the
    stack end, else ArithmeticError. The one exit is _converged, as in
    solve_one_sided, on the larger Newton step in the logs;
    ``moment_value`` is a Taylor step in w.

    Past the domain's end, StackExhaustedError (rho not 0 at a finite end)
    or UnreachablePotentialError unless the neutral region ending there
    holds the target (checked too where rho is 0 at x_right); where x_left
    would pass the surface and the diffused side cannot balance x_right,
    SurfaceReachedError unless the neutral region from the surface does.
    """
    eps_of_x, breaks, end = _domain(rho, eps, x_j, x_j)
    if not (x_j > 0.0 and 0.0 < target < math.inf):
        raise ValueError(f"x_j and the target must be finite and positive, got {x_j}, {target}")
    breaks = (*breaks, *(x_j + d * rho.scale * k for k in _NEAR_SPLITS for d in (-1, 1)))
    charge = _running_integral(rho.fn, x_j, breaks)
    moment = _running_integral(_moment_integrand(rho, eps, x_j), x_j, breaks)

    def across(x, b):
        # where charge = charge(x) between x_j and b, or b if charge(b) falls short
        q = charge(x)
        if (charge(b) - q) * q <= 0.0:
            return b
        neg, pos = (x_j, b) if q > 0.0 else (b, x_j)
        return _newton_in_bracket(lambda y: (charge(y) - q, rho.fn(y)), neg, pos, 2.0 * x_j - x)

    def check(xr):
        # raises where no neutral region holds the target: past the domain's end or the surface
        if not (xr <= end and rho.fn(xr)):
            sup = abs(moment(end) - moment(across(end, 0.0)))
            if target >= sup and end < math.inf and rho.fn(end):
                raise StackExhaustedError(f"SCR would extend past the stack end at {end:g} m "
                                          f"(moment reaches only {sup:g} of {target:g} V)")
            if target >= sup:
                raise UnreachablePotentialError(f"target {target:g} V exceeds supremum {sup:g} V",
                                                supremum=sup)
        if xr <= end and not across(xr, 0.0):
            x_s = across(0.0, xr)
            if x_s == xr or target > abs(moment(x_s) - moment(0.0)):
                raise SurfaceReachedError(f"SCR reaches the surface: right boundary {xr:g} m "
                                          f"needs more compensating charge than exists above x_j")

    slope = abs(rho.fn(x_j + 1e-3 * rho.scale)) / (1e-3 * rho.scale)
    w0 = 0.5 * (12.0 * eps_of_x(x_j) * target / slope) ** (1.0 / 3.0) if slope else rho.scale
    # the last usable point (x_j itself at first), the step from it in
    # (ln w_l, ln w_r), zeroed where no Newton step reached the trial (the
    # start, a pull-back), and the trial it reaches
    wl = wr = ul = ur = 0.0
    tl, tr, sides = min(w0, 0.5 * x_j), min(w0, 0.5 * (end - x_j)), None
    while True:
        # a trial with a side at or past its wall (a NaN offset is) is not
        # evaluated: m = 0 marks it unusable
        xl, xr, m = x_j - tl, x_j + tr, 0.0
        if tl < x_j and xr <= end:
            ql, qr, m = charge(xl), charge(xr), moment(xr) - moment(xl)
            rho_l, rho_r = rho.fn(xl), rho.fn(xr)
            if sides is None and rho_l * rho_r < 0.0:
                sides = rho_l, rho_r  # rho's signs next to x_j, from a start straddling it
        if not (m and sides and rho_l * sides[0] > 0.0 < rho_r * sides[1] and ql * qr > 0.0):
            # the one rule for a trial the solve cannot use; a side inside
            # its wall beside one past it keeps the last usable point's rho
            check(xr)
            if sides is None:
                sides = tuple(rho.fn(math.nextafter(x_j, d)) for d in (-math.inf, math.inf))
                if not sides[0] * sides[1] < 0.0:
                    raise ArithmeticError(f"rho does not change sign at x_j = {x_j:g} m")
            surface, stack_end = not tl < x_j, not xr <= end
            lost_l = surface or not rho_l * sides[0] > 0.0
            lost_r = stack_end or not rho_r * sides[1] > 0.0
            tl, tr = min(x_j, tl), min(end - x_j, tr) if stack_end else tr
            pl, pr = 0.5 * (wl + tl) if lost_l else tl, 0.5 * (wr + tr) if lost_r else tr
            # strictly between in offsets, and in positions at the stack end
            stuck_l = lost_l and pl in (wl, tl)
            stuck_r = lost_r and (pr in (wr, tr) if not stack_end else
                                  not (wr < pr and x_j + pr < end))
            if stuck_l or stuck_r or not (lost_l or lost_r):
                error = (SurfaceReachedError if stuck_l and surface else
                         StackExhaustedError if stuck_r and stack_end else ArithmeticError)
                raise error(f"no two-sided Newton step from [{xl:g}, {xr:g}] m: the "
                            f"charges cannot be compared or an offset cannot move")
            tl, tr, ul, ur = pl, pr, 0.0, 0.0
            continue
        newton = max(abs(ul), abs(ur))
        wl, wr, m_abs = tl, tr, abs(m)
        g1, g2 = math.log(qr / ql), math.log(m_abs / target)
        # d|M|/dw, then the logarithmic slopes of each side's charge and of |M|
        sl, sr = wl * abs(rho_l) / eps_of_x(xl), wr * abs(rho_r) / eps_of_x(xr)
        cl, cr = wl * abs(rho_l / ql), wr * abs(rho_r / qr)
        el, er = wl * sl / m_abs, wr * sr / m_abs
        det = cl * er + cr * el
        ul, ur = (er * g1 - cr * g2) / det, -(el * g1 + cl * g2) / det
        tl, tr = wl * math.exp(min(ul, _LOG_MAX)), wr * math.exp(min(ur, _LOG_MAX))
        if tl < x_j and x_j + tr <= end and _converged(max(abs(ul), abs(ur)), newton, 1.0):
            return ScrSolution(x_left=x_j - tl, x_right=x_j + tr, width=tl + tr,
                               moment_value=m_abs + sl * (tl - wl) + sr * (tr - wr))


@functools.cache
def _cosines(n: int) -> tuple:
    """(rows, columns) of cos(pi*k*(j + 1/2)/n) for k, j < n: row k holds T_k
    at the n Chebyshev points of the first kind, and row 1 the points."""
    rows = tuple(tuple(math.cos(math.pi * k * (j + 0.5) / n) for j in range(n))
                 for k in range(n))
    return rows, tuple(zip(*rows))


def _chebyshev_coefficients(rows, values) -> list:
    """Coefficients c_k of sum c_k*T_k(t) through values at the points of
    the first kind (a DCT-II over the precomputed cosines)."""
    c = [2.0 / len(values) * sum(map(operator.mul, row, values)) for row in rows]
    c[0] *= 0.5
    return c


def _derivative(c) -> list:
    """Coefficients of d/dt of sum c_k*T_k(t)."""
    d = [0.0] * (len(c) + 1)
    for k in range(len(c) - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    return d[:-2]


def _antiderivative(c) -> list:
    """Coefficients of the antiderivative of sum c_k*T_k(t) that vanishes
    at t = -1."""
    c = [*c, 0.0, 0.0]
    out = [0.0, c[0] - 0.5 * c[2]]
    out += [(c[k - 1] - c[k + 1]) / (2 * k) for k in range(2, len(c) - 1)]
    out[0] = sum(v if k % 2 else -v for k, v in enumerate(out))
    return out


def _clenshaw(c0: float, tail, t: float) -> float:
    """sum c_k*T_k(t) by Clenshaw's recurrence, given c_0 and the rest of
    the coefficients reversed, c[:0:-1]."""
    b1 = b2 = 0.0
    t2 = 2.0 * t
    for ck in tail:
        b1, b2 = ck + t2 * b1 - b2, b1
    return c0 + t * b1 - b2


def _chebyshev_fit(f, a: float, b: float) -> list:
    """Chebyshev coefficients of f on [a, b], mapped to t in [-1, 1];
    ArithmeticError names [a, b] if the series does not chop.

    f is sampled at 17, 33, 65, ... points of the first kind, all interior.
    A size is accepted once the top quarter of its coefficients lies below
    1e-10 of the largest and is at least half the largest of the quarter
    below it: a plateau of rounding noise within the one series (Aurentz &
    Trefethen, ACM TOMS 43(4), 2017), where a geometric decay to 1e-10 falls
    10^(10/3)-fold per quarter and a kink's k^-p about (2/3)^p. Each node
    x~ = a + half*(1 + t) is rounded; its value is then carried back to the
    exact node, f(x~) - f'(x~)*(x~ - x), with f' from the first fit, and the
    series refitted and cut after its last coefficient above the plateau.
    A kink of small amplitude, whose tail falls below 1e-10 of the largest
    coefficient by 129 points, passes the test and is kept, not raised.
    """
    half = 0.5 * (b - a)
    for n in _CHEBYSHEV_SIZES:
        rows, columns = _cosines(n)
        offsets = [half * (1.0 + t) for t in rows[1]]
        xs = [a + h for h in offsets]
        values = [f(x) for x in xs]
        c = _chebyshev_coefficients(rows, values)
        scale = max(map(abs, c))
        if not math.isfinite(scale):
            raise ArithmeticError(f"non-finite rho/eps on [{a:g}, {b:g}] m")
        tail = max(map(abs, c[-(n // 4):]))
        if tail <= 1e-10 * scale and 2.0 * tail >= max(map(abs, c[-(n // 2):-(n // 4)])):
            d = _derivative(c)
            values = [v - sum(map(operator.mul, d, col)) * ((x - a) - h) / half
                      for v, col, x, h in zip(values, columns, xs, offsets)]
            c = _chebyshev_coefficients(rows, values)
            tail = max(map(abs, c[-(n // 4):]))
            while len(c) > 1 and abs(c[-1]) <= tail:
                c.pop()
            return c
    raise ArithmeticError(
        f"rho/eps does not resolve on [{a!r}, {b!r}] m: declare every point "
        f"where rho or its slope jumps in ChargeProfile.steps")


def reconstruct_field_potential(rho: ChargeProfile, eps, x_left: float,
                                x_right: float, n_samples: int = 101) -> list:
    """Sample (x, E, u) at n_samples evenly spaced x on the solved SCR, a
    finite interval within the stack.

    E(x) is the integral of rho/eps from x_left and u(x) = -integral of E,
    with u(x_left) = 0. The SCR is split at the declared breaks
    (rho.steps and the stack's interfaces) and at moment_integral's near
    splits x_left + rho.scale*(1, 3, 10, 30, 100). Between the declared
    breaks rho/eps must be smooth: each piece gets one Chebyshev series,
    sized by its own coefficients (usually 17 + 33 evaluations of rho),
    integrated twice by the coefficient recurrence (chebfun's cumsum), and
    E and u carry across pieces as running sums. ArithmeticError names a
    piece whose series does not chop: it holds an undeclared kink or step
    whose series tail stays above 1e-10 of its largest coefficient. A
    smaller one resolves, to within about 2e-11 of max|E|.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    eps_of_x, breaks, _ = _domain(rho, eps, x_left, x_right)
    if not x_right < math.inf:
        raise ValueError(f"x_right must be finite, got {x_right}")
    if x_left == x_right:
        return [(x_left, 0.0, 0.0)] * n_samples
    near = (x_left + rho.scale * k for k in _NEAR_SPLITS)
    ends = [x_left, *sorted({p for p in (*breaks, *near) if x_left < p < x_right}), x_right]
    # E and u are integrals from x_left, so both are zero there exactly
    out, e_a, u_a = [(x_left, 0.0, 0.0)], 0.0, 0.0
    for a, b in zip(ends, ends[1:]):
        half = 0.5 * (b - a)
        c = _chebyshev_fit(lambda x: rho.fn(x) / eps_of_x(x), a, b)
        field = [half * v for v in _antiderivative(c)]
        potential = [-half * v for v in _antiderivative(field)]
        e0, e_tail, u0, u_tail = field[0], field[:0:-1], potential[0], potential[:0:-1]
        # the samples up to b, and in the last piece every one left
        while len(out) < n_samples:
            x = x_left + (x_right - x_left) * len(out) / (n_samples - 1)
            if x > b and b < x_right:
                break
            t = ((x - a) - (b - x)) / (b - a)
            out.append((x, e_a + _clenshaw(e0, e_tail, t),
                        u_a - e_a * (x - a) + _clenshaw(u0, u_tail, t)))
        e_a, u_a = e_a + sum(field), u_a - e_a * (b - a) + sum(potential)
    return out


def solve_hetero(stack: HeteroStack, rho: ChargeProfile, x_start: float,
                 target: float) -> ScrSolution:
    """One-sided solve with piecewise permittivity from the stack.

    Quadrature splits at every layer boundary the SCR crosses; raises
    StackExhaustedError when the SCR would leave the stack.
    """
    return solve_one_sided(rho, stack, x_start, target)
