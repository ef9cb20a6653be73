"""C-V sweep generation, CSV/JSON serialization, and inverse extraction.

Bias values on curves are signed volts: positive = reverse, negative =
forward, matching the single-substitution rule of the closed forms.
"""

import io
import json
import math
from dataclasses import dataclass

from .closedform import (Bias, JunctionSpec, Regime, default_vbi, solve,
                         validity_window)
from .doping import GaussianProfile, Polarity
from .errors import (CurveFormatError, InsufficientDataError, JunctionError,
                     PunchThroughError, UnfittableDataError)
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
            if w is not None and not math.isfinite(w):
                raise CurveFormatError(f"width must be finite, got {w:g} at {v:g} V")
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
    pts = []
    for i in range(n_points):
        v = v_start + (v_stop - v_start) * i / (n_points - 1)
        try:
            r = solve(spec, Bias.from_signed(v), regime)
        except PunchThroughError as e:
            raise type(e)(f"bias {v:g} V outside validity window: {e}",
                          v_max_reverse=e.v_max_reverse) from e
        pts.append((v, r.c_b, r.w_sc))
    return CvCurve(points=tuple(pts), spec_echo=spec)


def _spec_to_dict(spec: JunctionSpec) -> dict:
    m, p = spec.material, spec.profile
    return {
        "material": {"name": m.name, "eps_r": m.eps_r, "n_i": m.n_i,
                     "temp_ref": m.temp_ref},
        "profile": {"n0": p.n0, "l_d": p.l_d, "n_b": p.n_b,
                    "polarity": p.polarity.value},
        "temp": spec.temp,
        "x_j": spec.x_j,
        "v_bi": spec.v_bi,
    }


def _spec_from_dict(d: dict) -> JunctionSpec:
    m = Material(**d["material"])
    p = d["profile"]
    profile = GaussianProfile(n0=p["n0"], l_d=p["l_d"], n_b=p["n_b"],
                              polarity=Polarity(p["polarity"]))
    return JunctionSpec(material=m, profile=profile, temp=d["temp"],
                        x_j=d["x_j"], v_bi=d["v_bi"])


def serialize(curve: CvCurve, fmt: str = "csv") -> bytes:
    """Write a curve as CSV (header-exact contract) or JSON. Numbers are
    shortest-round-trip, lossless at 17 significant digits."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for v, c, w in curve.points:
            w_txt = "" if w is None else repr(float(w))
            lines.append(f"{float(v)!r},{float(c)!r},{w_txt}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        obj = {
            "points": [{"v_bias": v, "c_b": c, "w_sc": w} for v, c, w in curve.points],
            "spec": None if curve.spec_echo is None else _spec_to_dict(curve.spec_echo),
        }
        return (json.dumps(obj) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def deserialize(data: bytes, fmt: str = "csv") -> CvCurve:
    """Parse a curve; validates monotone bias and positive capacitance.
    The CSV w_sc column may be absent or empty (measured data)."""
    if fmt == "json":
        try:
            obj = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CurveFormatError(f"invalid JSON: {e}") from e
        try:
            pts = tuple((p["v_bias"], p["c_b"], p.get("w_sc")) for p in obj["points"])
            spec = None if obj.get("spec") is None else _spec_from_dict(obj["spec"])
        except (KeyError, TypeError, ValueError) as e:
            raise CurveFormatError(f"malformed JSON curve: {type(e).__name__}: {e}") from e
        for v, c, w in pts:
            for value in (v, c) if w is None else (v, c, w):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise CurveFormatError(f"non-numeric value {value!r} in JSON curve")
        return CvCurve(points=pts, spec_echo=spec)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")

    text = io.StringIO(data.decode("utf-8"))
    header = text.readline().rstrip("\n").rstrip("\r")
    if header not in (CSV_HEADER, MEASURED_HEADER):
        raise CurveFormatError(f"bad header {header!r}; expected {CSV_HEADER!r}", line=1)
    has_w = header == CSV_HEADER
    pts = []
    for lineno, raw in enumerate(text, start=2):
        row = raw.rstrip("\n").rstrip("\r")
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
    n0_hat: float
    ld_hat: float
    vbi_hat: float
    objective: float
    iterations: int
    converged: bool


def _nelder_mead(f, x0, step, max_iter=10000):
    """Deterministic Nelder-Mead simplex: reflection 1, expansion 2,
    contraction 0.5, shrink 0.5. Converged when the relative decrease of
    the best objective is < 1e-10 for 5 consecutive iterations."""
    n = len(x0)
    simplex = [list(x0)]
    for i in range(n):
        v = list(x0)
        v[i] += step[i]
        simplex.append(v)
    fvals = [f(v) for v in simplex]

    def order():
        idx = sorted(range(n + 1), key=lambda i: fvals[i])
        return ([simplex[i] for i in idx], [fvals[i] for i in idx])

    simplex, fvals = order()
    stall = 0
    it = 0
    while it < max_iter:
        it += 1
        best_before = fvals[0]
        centroid = [sum(v[j] for v in simplex[:-1]) / n for j in range(n)]
        worst = simplex[-1]
        refl = [centroid[j] + (centroid[j] - worst[j]) for j in range(n)]
        f_refl = f(refl)
        if f_refl < fvals[0]:
            expa = [centroid[j] + 2.0 * (centroid[j] - worst[j]) for j in range(n)]
            f_expa = f(expa)
            if f_expa < f_refl:
                simplex[-1], fvals[-1] = expa, f_expa
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            contr = [centroid[j] + 0.5 * (worst[j] - centroid[j]) for j in range(n)]
            f_contr = f(contr)
            if f_contr < fvals[-1]:
                simplex[-1], fvals[-1] = contr, f_contr
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = [best[j] + 0.5 * (simplex[i][j] - best[j]) for j in range(n)]
                    fvals[i] = f(simplex[i])
        simplex, fvals = order()
        rel_dec = (best_before - fvals[0]) / max(abs(best_before), 1e-300)
        stall = stall + 1 if rel_dec < 1e-10 else 0
        if stall >= 5:
            return simplex[0], fvals[0], it, True
    return simplex[0], fvals[0], it, False


def _minimize(f, x0, step0, max_iter=10000):
    """Drive the simplex with restarts from the incumbent at shrinking
    steps; a single simplex stalls well short of the floor on this
    objective. Stops when a restart no longer improves."""
    x = list(x0)
    fv = f(x)
    step = list(step0)
    total = 0
    converged = False
    while total < max_iter:
        xn, fn, iters, c = _nelder_mead(f, x, step, max_iter=max_iter - total)
        total += iters
        improvement = fv - fn
        if fn < fv:
            x, fv = xn, fn
        step = [s * 0.2 for s in step]
        if c and improvement <= 1e-12 * max(abs(fv), 1e-300):
            converged = True
            break
    return x, fv, total, converged


def _model_curve_objective(theta, measured, material, temp, n_b, fit_vbi):
    """Sum of squared relative residuals plus validity penalties."""
    ln_n0, ln_ld = theta[0], theta[1]
    if not (math.isfinite(ln_n0) and math.isfinite(ln_ld)):
        return 1e30
    n0 = math.exp(ln_n0)
    l_d = math.exp(ln_ld)
    penalty = 0.0
    if n0 <= n_b:
        # no junction; drive N0 back above the background
        return 1e12 * (1.0 + math.log(n_b / n0))
    profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
    if fit_vbi:
        vbi = theta[2]
        if vbi < 0.05:
            penalty += 1e6 * (0.05 - vbi)
            vbi = 0.05
        elif vbi > 2.0:
            penalty += 1e6 * (vbi - 2.0)
            vbi = 2.0
    else:
        try:
            vbi = default_vbi(profile, material, temp)
        except JunctionError:
            return 1e12
    try:
        spec = JunctionSpec(material=material, profile=profile, temp=temp, v_bi=vbi)
        window = validity_window(spec)
    except JunctionError:
        return 1e12
    obj = penalty
    for v, c_meas, _ in measured.points:
        viol = 0.0
        if v >= window.v_max_reverse:
            viol = v - window.v_max_reverse
        elif -v >= window.v_max_forward:
            viol = -v - window.v_max_forward
        if viol > 0.0:
            obj += 1e6 * viol
            continue
        r = solve(spec, Bias.from_signed(v))
        obj += ((r.c_b - c_meas) / c_meas) ** 2
    return obj


def _seed_guess(measured, material, temp, n_b, fit_vbi):
    """Deterministic coarse grid search over (ln N0, ln L_d) to seed the
    simplex when the caller supplies no initial guess."""
    vbi0 = 0.7
    best = None
    for ln_n0 in [math.log(10.0 ** e) for e in range(21, 28)]:
        for ln_ld in [math.log(10.0 ** (e / 2.0)) for e in range(-16, -5)]:
            theta = [ln_n0, ln_ld] + ([vbi0] if fit_vbi else [])
            val = _model_curve_objective(theta, measured, material, temp, n_b, fit_vbi)
            if best is None or val < best[1]:
                best = (theta, val)
    return best[0]


def fit(measured: CvCurve, material: Material, temp: float, n_b: float,
        fit_vbi: bool = False, initial_guess: tuple = None) -> FitResult:
    """Extract (N0, L_d[, V_bi]) from C-V data by least squares on relative
    residuals of the closed-form capacitance.

    n_b is the assumed background concentration (fixed, not fitted);
    initial_guess is (N0, L_d, V_bi) in SI when provided. Multi-start
    simplex from x0 scaled by 0.5 / 1 / 2 on each log-parameter; best
    objective wins. Deterministic given inputs.
    """
    if len(measured) < 5:
        raise InsufficientDataError(f"need at least 5 points, got {len(measured)}")

    def objective(theta):
        return _model_curve_objective(theta, measured, material, temp, n_b, fit_vbi)

    if initial_guess is not None:
        n0_0, ld_0, vbi_0 = initial_guess
        x0 = [math.log(n0_0), math.log(ld_0)] + ([vbi_0] if fit_vbi else [])
    else:
        x0 = _seed_guess(measured, material, temp, n_b, fit_vbi)

    best = None
    total_iter = 0
    for factor in (0.5, 1.0, 2.0):
        start = [t * factor for t in x0[:2]] + list(x0[2:])
        step = [0.2, 0.2] + ([0.05] if fit_vbi else [])
        xmin, fmin, iters, conv = _minimize(objective, start, step)
        total_iter += iters
        if math.isfinite(fmin) and (best is None or fmin < best[1]):
            best = (xmin, fmin, conv)
    if best is None or best[1] >= 1e12:
        raise UnfittableDataError("no start produced a valid model anywhere on the data")
    xmin, fmin, conv = best

    n0_hat = math.exp(xmin[0])
    ld_hat = math.exp(xmin[1])
    if fit_vbi:
        vbi_hat = min(max(xmin[2], 0.05), 2.0)
    else:
        vbi_hat = default_vbi(GaussianProfile(n0=n0_hat, l_d=ld_hat, n_b=n_b),
                              material, temp)
    return FitResult(n0_hat=n0_hat, ld_hat=ld_hat, vbi_hat=vbi_hat,
                     objective=fmin, iterations=total_iter, converged=conv)
