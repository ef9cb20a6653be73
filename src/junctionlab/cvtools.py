"""C-V sweep generation, CSV/JSON serialization, and inverse extraction.

Bias values on curves are signed volts: positive = reverse, negative =
forward, matching the single-substitution rule of the closed forms.
"""

import json
import math
import sys
from dataclasses import asdict, dataclass

from .closedform import (JunctionSpec, Regime, cv_points, default_vbi,
                         validity_window)
from .doping import GaussianProfile, Polarity
from .errors import (CurveFormatError, InsufficientDataError, JunctionError,
                     UnfittableDataError)
from .physcore import Material

CSV_HEADER = "v_bias_V,c_b_F_per_m2,w_sc_m"
MEASURED_HEADER = "v_bias_V,c_b_F_per_m2"


@dataclass(frozen=True)
class CvCurve:
    """Ordered (v_bias, c_b, w_sc) triples; w_sc may be None for measured
    data. spec_echo records the generating junction, or None."""

    points: tuple
    spec_echo: JunctionSpec = None

    def __post_init__(self):
        prev = -math.inf
        for v, c, w in self.points:
            if not prev < v < math.inf:
                raise CurveFormatError(f"bias values must be finite and strictly increasing; "
                                       f"{v:g} V follows {prev:g} V")
            if not 0.0 < c < math.inf:
                raise CurveFormatError(f"capacitance must be finite and positive, "
                                       f"got {c:g} at {v:g} V")
            if w is not None and not 0.0 < w < math.inf:
                raise CurveFormatError(f"width must be finite and positive, "
                                       f"got {w:g} at {v:g} V")
            prev = v

    def __len__(self):
        return len(self.points)


def sweep(spec: JunctionSpec, v_start: float, v_stop: float, n_points: int,
          regime: str | Regime = "general") -> CvCurve:
    """Evaluate the closed form on an even bias grid, endpoints included."""
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    if v_stop <= v_start:
        raise ValueError(f"need v_start < v_stop, got [{v_start}, {v_stop}]")
    grid = (v_start + (v_stop - v_start) * i / (n_points - 1) for i in range(n_points))
    return CvCurve(points=tuple(cv_points(spec, grid, regime)), spec_echo=spec)


def _spec_to_dict(spec: JunctionSpec) -> dict:
    d = asdict(spec)
    d["profile"]["polarity"] = spec.profile.polarity.value
    return d


def _spec_from_dict(d: dict) -> JunctionSpec:
    m = Material(**d["material"])
    p = d["profile"]
    profile = GaussianProfile(n0=p["n0"], l_d=p["l_d"], n_b=p["n_b"],
                              polarity=Polarity(p["polarity"]))
    return JunctionSpec(material=m, profile=profile, temp=d["temp"],
                        x_j=d["x_j"], v_bi=d["v_bi"])


def serialize(curve: CvCurve, fmt: str = "csv") -> bytes:
    """Write a curve as CSV (header-exact contract) or JSON. Every number is
    written as a float, shortest-round-trip, lossless at 17 significant
    digits."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for v, c, w in curve.points:
            w_txt = "" if w is None else repr(float(w))
            lines.append(f"{float(v)!r},{float(c)!r},{w_txt}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        # the bytes json.dumps gives for {"points": [...], "spec": ...}
        items = []
        for v, c, w in curve.points:
            w_txt = "null" if w is None else repr(float(w))
            items.append(f'{{"v_bias": {float(v)!r}, "c_b": {float(c)!r}, "w_sc": {w_txt}}}')
        spec = "null" if curve.spec_echo is None else json.dumps(_spec_to_dict(curve.spec_echo))
        return f'{{"points": [{", ".join(items)}], "spec": {spec}}}\n'.encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def deserialize(data: bytes, fmt: str = "csv") -> CvCurve:
    """Parse a curve from UTF-8 bytes; any fault in the data raises
    CurveFormatError. JSON: "points" lists {"v_bias", "c_b", "w_sc"} (w_sc
    optional or null), "spec" is a junction or null, and every value is a
    number, not a bool; a non-numeric value anywhere is reported before a
    number too large for a float. CSV: header CSV_HEADER, or MEASURED_HEADER
    without the w_sc column; an empty w_sc cell is None, blank rows are
    skipped, and each error names its line. CvCurve then checks that the
    bias is finite and strictly increasing, C_b finite and positive, and W
    finite."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CurveFormatError(f"not UTF-8: {e}") from e
    if fmt == "json":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as e:  # also over-long integers, deep nesting
            raise CurveFormatError(f"invalid JSON: {e}") from e
        try:
            pts = tuple((p["v_bias"], p["c_b"], p.get("w_sc")) for p in obj["points"])
            spec = None if obj.get("spec") is None else _spec_from_dict(obj["spec"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CurveFormatError(f"malformed JSON curve: {type(e).__name__}: {e}") from e
        floats = True
        for v, c, w in pts:
            if type(v) is type(c) is float and (w is None or type(w) is float):
                continue
            for value in (v, c) if w is None else (v, c, w):
                if type(value) not in (float, int):  # so not a bool
                    raise CurveFormatError(f"non-numeric value {value!r} in JSON curve")
            floats = False
        if not floats:
            try:
                pts = tuple((float(v), float(c), w if w is None else float(w)) for v, c, w in pts)
            except OverflowError as e:
                raise CurveFormatError("number too large for a float in JSON curve") from e
        return CvCurve(points=pts, spec_echo=spec)

    header, *rows = text.split("\n")
    header = header.rstrip("\r")
    if header not in (CSV_HEADER, MEASURED_HEADER):
        raise CurveFormatError(f"bad header {header!r}; expected {CSV_HEADER!r}", line=1)
    has_w = header == CSV_HEADER
    pts = []
    for lineno, row in enumerate(rows, start=2):
        row = row.rstrip("\r")
        if not row:
            continue
        cols = row.split(",")
        if len(cols) != (3 if has_w else 2):
            raise CurveFormatError(f"wrong column count in {row!r}", line=lineno)
        try:
            v = float(cols[0])
            c = float(cols[1])
            w = None
            if has_w and cols[2] != "":
                w = float(cols[2])
        except ValueError as e:
            raise CurveFormatError(f"non-numeric value in {row!r}", line=lineno) from e
        pts.append((v, c, w))
    return CvCurve(points=tuple(pts), spec_echo=None)


@dataclass(frozen=True)
class FitResult:
    """The fitted junction (SI units) and how the solve ended: ``objective``
    is the sum of squared relative residuals, ``iterations`` the number of
    residual evaluations, finite-difference Jacobians included, and
    ``converged`` false when the evaluation limit stopped the solve."""

    n0_hat: float
    ld_hat: float
    vbi_hat: float
    objective: float
    iterations: int
    converged: bool


# the solver's tolerance on a step and on a decrease, and its limit on
# residual evaluations
_TOL, _EVALUATIONS = 1e-15, 2000
# a finite-difference step, relative to max(1, |theta_j|)
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
# V_bi's bounds, volts
_VBI_LO, _VBI_HI = 0.05, 2.0


def _cholesky_solve(a, b):
    """x with a*x = b for a symmetric a given as rows, or None when a is
    not positive definite."""
    n = len(b)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0.0:
                low[i][i] = math.sqrt(s)
            else:
                return None
    y = []
    for i in range(n):
        y.append((b[i] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i])
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))) / low[i][i]
    return x


def _levenberg_marquardt(fun, theta, lower, upper):
    """Minimise the sum of squares of ``fun(theta)``, a list of residuals,
    with theta in the box [lower, upper], from theta (inside it).

    Levenberg-Marquardt as Madsen, Nielsen & Tingleff (*Methods for
    Non-Linear Least Squares Problems*, 2004) give it in alg. 3.16: damping
    mu*I from mu = 1e-3*max diag(J^T J), each step solved by Cholesky and
    projected onto the box. The Jacobian is forward differences with step
    sqrt(eps)*max(1, |theta_j|), taken backwards where the forward one
    would pass the upper bound. Returns (theta, residuals, evaluations,
    converged): converged when a step is within _TOL*(|theta| + _TOL) or
    an accepted step lowers the sum by at most _TOL of it, not converged
    after _EVALUATIONS residual evaluations, or once mu is not finite:
    J^T J has overflowed, no damping makes it definite, and the Cholesky
    retries, which evaluate nothing, would never end.
    """
    n = len(theta)
    r = fun(theta)
    f = sum(x * x for x in r)
    evaluations = 1
    mu = None
    while True:
        columns = []
        for j in range(n):
            if evaluations == _EVALUATIONS:
                return theta, r, evaluations, False
            h = _SQRT_EPS * max(1.0, abs(theta[j]))
            if theta[j] + h > upper[j]:
                h = -h
            shifted = list(theta)
            shifted[j] += h
            columns.append([(a - b) / h for a, b in zip(fun(shifted), r)])
            evaluations += 1
        jtj = [[sum(p * q for p, q in zip(ci, cj)) for cj in columns] for ci in columns]
        g = [sum(p * q for p, q in zip(ci, r)) for ci in columns]
        if not any(g):
            # a stationary point; where J = 0 no damping would make a step
            return theta, r, evaluations, True
        if mu is None:
            mu = 1e-3 * max(jtj[i][i] for i in range(n))
        nu = 2.0
        while True:
            if not mu < math.inf:
                # J^T J is not finite, so no damping makes it definite
                return theta, r, evaluations, False
            step = _cholesky_solve([[a + (mu if i == j else 0.0) for j, a in enumerate(row)]
                                    for i, row in enumerate(jtj)], [-x for x in g])
            if step is None:
                mu, nu = mu * nu, 2.0 * nu
                continue
            trial = [min(max(t + s, lo), hi)
                     for t, s, lo, hi in zip(theta, step, lower, upper)]
            if math.dist(trial, theta) <= _TOL * (math.hypot(*theta) + _TOL):
                return theta, r, evaluations, True
            if evaluations == _EVALUATIONS:
                return theta, r, evaluations, False
            r_trial = fun(trial)
            evaluations += 1
            f_trial = sum(x * x for x in r_trial)
            if f_trial < f:
                break
            mu, nu = mu * nu, 2.0 * nu
        decrease = f - f_trial
        if decrease <= _TOL * f:
            return trial, r_trial, evaluations, True
        # the gain ratio: the decrease over the one the linear model predicts
        gain = decrease / sum(s * (mu * s - gi) for s, gi in zip(step, g))
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        theta, r, f = trial, r_trial, f_trial


def _residuals(theta, measured, material, temp, n_b, fit_vbi):
    """Relative residuals (C_model - C_meas)/C_meas, one per point, of the
    junction theta = (ln s_j^2, ln L_d[, V_bi]), where N0 = N_B*exp(s_j^2),
    so every theta is a junction. Where the model is undefined each
    residual grows with the distance from the valid region, so the solver
    is led back into it."""
    try:
        profile = GaussianProfile(n0=n_b * math.exp(math.exp(theta[0])),
                                  l_d=math.exp(theta[1]), n_b=n_b)
        vbi = theta[2] if fit_vbi else default_vbi(profile, material, temp)
        spec = JunctionSpec(material=material, profile=profile, temp=temp, v_bi=vbi)
        window = validity_window(spec)
        # one kernel call for the points inside the window
        model = iter(cv_points(spec, [v for v, _, _ in measured.points
                                      if -window.v_max_forward < v < window.v_max_reverse]))
    except (JunctionError, ArithmeticError, ValueError):
        # no finite junction at this trial point (fit has checked temp),
        # or a point within rounding of the window's edge
        return [1e6] * len(measured)
    res = []
    for v, c_meas, _ in measured.points:
        if v >= window.v_max_reverse:
            res.append(1e3 * (1.0 + v - window.v_max_reverse))
        elif -v >= window.v_max_forward:
            res.append(1e3 * (1.0 - v - window.v_max_forward))
        else:
            res.append((next(model)[1] - c_meas) / c_meas)
    return res


def _seed_guess(measured, material, temp, n_b, fit_vbi):
    """Deterministic coarse grid over (ln s_j^2, ln L_d): ln s_j^2 from -4
    to 4 in steps of 1 (N0/N_B from 1.02 to 5e23), L_d from 1e-8 to 1e-3 m
    in half decades, V_bi at 0.7 V; ranked by the sum of squared
    residuals, the best point starts the fit when the caller supplies no
    initial guess."""
    best = None
    for ln_sj2 in range(-4, 5):
        for ln_ld in [math.log(10.0 ** (e / 2.0)) for e in range(-16, -5)]:
            theta = [float(ln_sj2), ln_ld] + ([0.7] if fit_vbi else [])
            val = sum(r * r for r in _residuals(theta, measured, material, temp, n_b, fit_vbi))
            if best is None or val < best[1]:
                best = (theta, val)
    return best[0]


def fit(measured: CvCurve, material: Material, temp: float, n_b: float,
        fit_vbi: bool = False, initial_guess: tuple = None) -> FitResult:
    """Extract (N0, L_d[, V_bi]) from C-V data by least squares on relative
    residuals of the closed-form capacitance.

    n_b is the assumed background concentration (fixed, not fitted; like
    ``temp``, finite and positive, else ``ValueError``);
    initial_guess is (N0, L_d, V_bi) in SI when provided (N0 and L_d
    finite and positive, N0 above n_b, V_bi finite when fitted, else
    ``ValueError``), else the start is the best point of ``_seed_guess``'s
    grid. One bounded Levenberg-Marquardt solve (``_levenberg_marquardt``)
    over (ln s_j^2, ln L_d[, V_bi]), s_j^2 = ln(N0/N_B), V_bi within
    [0.05, 2] V. ``objective`` is the sum of squared residuals at the
    solution, ``iterations`` the number of residual evaluations, those of
    the finite-difference Jacobian included, and ``converged`` whether a
    tolerance, not the evaluation limit, stopped the solve.
    Deterministic given inputs.
    """
    if len(measured) < 5:
        raise InsufficientDataError(f"need at least 5 points, got {len(measured)}")
    if not 0.0 < temp < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {temp}")
    if not 0.0 < n_b < math.inf:
        raise ValueError(f"background N_B must be finite and positive, got {n_b:g} m^-3")
    if initial_guess is not None:
        n0_0, ld_0, vbi_0 = initial_guess
        for name, value, unit in (("N0", n0_0, "m^-3"), ("L_d", ld_0, "m")):
            if not 0.0 < value < math.inf:
                raise ValueError(f"initial guess {name} must be finite and positive, "
                                 f"got {value:g} {unit}")
        if n0_0 <= n_b:
            raise ValueError(f"initial guess N0 must exceed N_B = {n_b:g} m^-3, "
                             f"got {n0_0:g} m^-3")
        if fit_vbi and not math.isfinite(vbi_0):
            raise ValueError(f"initial guess V_bi must be finite, got {vbi_0:g} V")
        # a guess is only a start: move its V_bi inside the bounds
        theta = [math.log(math.log(n0_0 / n_b)), math.log(ld_0)]
        if fit_vbi:
            theta.append(min(max(vbi_0, _VBI_LO), _VBI_HI))
    else:
        theta = _seed_guess(measured, material, temp, n_b, fit_vbi)
    lower, upper = [-math.inf, -math.inf, _VBI_LO], [math.inf, math.inf, _VBI_HI]
    theta, res, evaluations, converged = _levenberg_marquardt(
        lambda t: _residuals(t, measured, material, temp, n_b, fit_vbi), theta, lower, upper)
    objective = sum(r * r for r in res)
    if objective >= 1e12:
        raise UnfittableDataError("no valid model anywhere the fit searched")

    n0_hat = n_b * math.exp(math.exp(theta[0]))
    ld_hat = math.exp(theta[1])
    vbi_hat = theta[2] if fit_vbi else default_vbi(
        GaussianProfile(n0=n0_hat, l_d=ld_hat, n_b=n_b), material, temp)
    return FitResult(n0_hat=n0_hat, ld_hat=ld_hat, vbi_hat=vbi_hat,
                     objective=objective, iterations=evaluations, converged=converged)
