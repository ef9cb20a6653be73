"""Independent references and output checks.

Nothing here imports junctionlab. References are evaluated in mpmath at
30 digits from the inputs the program was given (the doubles it holds),
with the paper's closed form and the analytic charge, moment and field of
the Gaussian profile. Each ``check_*`` returns a list of problems; an empty
list means the output passed. The tolerances below sit between the worst
deviation measured on correct output and the 1e-6 relative perturbation
that every check must catch (see test_checks.py); a check that can only
resolve what the program prints says so.
"""

import functools
import struct

from mpmath import mp, mpf

from inputs import EPS0, K_B, Q, SI_EPS_R, SI_N_I, TEMP

DPS = 30

# closed form (sweep points, closedform.solve): the double-precision
# formula loses digits to W = L_d*sqrt(-ln A) - x_j as W << x_j; at the
# workloads' deepest forward bias (70 % of V_bi) and the corners of the
# junction ranges that measured up to 4e-9
TOL_CLOSED_FORM = 1e-7
TOL_CAP_IDENTITY = 1e-12      # C_b * W = eps, acceptance criterion 6
# one-sided width vs closed form, criterion 3. Brent's tolerance is relative
# to x_right, so W = x_right - x_j carries up to ~6e-9 at the corners; a
# 1e-6 shift of x_right is caught by the moment check
TOL_ONE_SIDED = 1e-6
TOL_MOMENT = 1e-9             # quadrature vs analytic antiderivative
TOL_NEUTRAL = 1e-9            # net charge / charge on one side
TOL_FIELD_END = 1e-9          # |E| at both ends / max |E|, criterion 9
TOL_DROP = 1e-8               # potential drop vs target, criterion 9
TOL_FIELD = 1e-9              # E samples vs analytic field, / max |E|
TOL_POTENTIAL = 1e-8          # u samples vs analytic potential, / target
FIT_BOUND = 1e-3              # fit recovery on noiseless data, criterion 10


class Reference:
    """mpmath model of one silicon junction at 300 K (SI doubles in)."""

    def __init__(self, n0: float, n_b: float, l_d: float):
        with mp.workdps(DPS):
            self.n0, self.n_b, self.l_d = mpf(n0), mpf(n_b), mpf(l_d)
            self.eps = mpf(EPS0) * mpf(SI_EPS_R)
            self.q = mpf(Q)
            self.x_j = self.l_d * mp.sqrt(mp.log(self.n0 / self.n_b))
            self.e_j = mp.exp(-(self.x_j / self.l_d) ** 2)
            self.v_bi = mpf(K_B) * mpf(TEMP) / self.q * mp.log(
                self.n0 * self.n_b / mpf(SI_N_I) ** 2)
            self.scale = self.q * self.n0 * self.l_d ** 2 / (2 * self.eps)
            self.v_max_reverse = self.scale * self.e_j - self.v_bi

    @functools.lru_cache(maxsize=None)
    def w(self, v_total: float) -> float:
        """Paper closed form, general regime: L_d*sqrt(ln 1/A) - x_j."""
        with mp.workdps(DPS):
            a = self.e_j - mpf(v_total) / self.scale
            return float(self.l_d * mp.sqrt(-mp.log(a)) - self.x_j)

    @functools.lru_cache(maxsize=None)
    def w_at_bias(self, v_signed: float) -> float:
        with mp.workdps(DPS):
            return self.w(float(self.v_bi + mpf(v_signed)))

    @functools.lru_cache(maxsize=None)
    def c(self, w: float) -> float:
        with mp.workdps(DPS):
            return float(self.eps / mpf(w))

    def moment_paper(self, a: float, b: float) -> float:
        """Integral of x*q*N0*exp(-x^2/L_d^2)/eps over [a, b]."""
        with mp.workdps(DPS):
            l2 = self.l_d ** 2
            return float(self.scale * (mp.exp(-mpf(a) ** 2 / l2) - mp.exp(-mpf(b) ** 2 / l2)))

    # net charge N(x) - N_B: F is its integral, G its first moment
    def _f(self, x):
        return (self.n0 * self.l_d * mp.sqrt(mp.pi) / 2 * mp.erf(x / self.l_d)
                - self.n_b * x)

    def _g(self, x):
        return -self.n0 * self.l_d ** 2 / 2 * mp.exp(-(x / self.l_d) ** 2) - self.n_b * x ** 2 / 2

    def neutrality(self, x_l: float, x_r: float) -> float:
        """Net charge on [x_l, x_r] over the charge on [x_l, x_j]."""
        with mp.workdps(DPS):
            xl, xr = mpf(x_l), mpf(x_r)
            return float(abs(self._f(xr) - self._f(xl)) / abs(self._f(self.x_j) - self._f(xl)))

    def moment_net(self, x_l: float, x_r: float) -> float:
        with mp.workdps(DPS):
            return float(abs(self._g(mpf(x_r)) - self._g(mpf(x_l))) * self.q / self.eps)

    @functools.lru_cache(maxsize=None)
    def field_potential(self, x_l: float, x: float) -> tuple:
        """(E, u) at x for a region starting at x_l, donor-into-p sign:
        E = q/eps (F(x) - F(x_l)), u = -q/eps [x (F(x) - F(x_l)) - (G(x) - G(x_l))]."""
        with mp.workdps(DPS):
            xl, xx = mpf(x_l), mpf(x)
            df = self._f(xx) - self._f(xl)
            k = self.q / self.eps
            return float(k * df), float(-k * (xx * df - (self._g(xx) - self._g(xl))))


@functools.lru_cache(maxsize=None)
def reference_for(n0: float, n_b: float, l_d: float) -> Reference:
    return Reference(n0, n_b, l_d)


def _rel(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def check_curve_points(ref: Reference, points, grid) -> list:
    """Sweep output: bias grid, W against the closed form, C_b = eps/W."""
    problems = []
    if len(points) != len(grid):
        return [f"sweep returned {len(points)} points, expected {len(grid)}"]
    v_tol = 1e-12 * max(abs(grid[0]), abs(grid[-1]))
    eps = float(ref.eps)
    for (v, c, w), v_want in zip(points, grid):
        if abs(v - v_want) > v_tol:
            problems.append(f"bias {v!r} V, expected {v_want!r} V")
            continue
        w_ref = ref.w_at_bias(v)
        if not _rel(w, w_ref) <= TOL_CLOSED_FORM:
            problems.append(f"W = {w!r} m at {v!r} V, reference {w_ref!r} m")
        if not _rel(c * w, eps) <= TOL_CAP_IDENTITY:
            problems.append(f"C_b*W = {c * w!r}, eps = {eps!r} at {v!r} V")
        if not _rel(c, ref.c(w_ref)) <= TOL_CLOSED_FORM:
            problems.append(f"C_b = {c!r} at {v!r} V, reference {ref.c(w_ref)!r}")
        if len(problems) > 5:
            break
    return problems


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def check_round_trip(original, back, fmt: str) -> list:
    """deserialize(serialize(curve)) must give back the same doubles, bit
    for bit; the JSON form also carries the generating junction."""
    a, b = original.points, back.points
    if len(a) != len(b):
        return [f"{fmt}: {len(b)} points back from {len(a)}"]
    for i, (p, r) in enumerate(zip(a, b)):
        if [_bits(x) for x in p] != [_bits(x) for x in r]:
            return [f"{fmt}: point {i} {p!r} came back as {r!r}"]
    if fmt == "json" and back.spec_echo != original.spec_echo:
        return ["json: spec echo changed in the round trip"]
    return []


def check_one_sided(ref: Reference, x_start: float, target: float, sol) -> list:
    """Paper-model one-sided solve: width against the closed form, moment
    against the analytic antiderivative over the solved region."""
    problems = []
    if sol.x_left != x_start:
        problems.append(f"x_left = {sol.x_left!r}, started at {x_start!r}")
    w_ref = ref.w(target)
    w = sol.x_right - sol.x_left
    if not _rel(w, w_ref) <= TOL_ONE_SIDED:
        problems.append(f"one-sided W = {w!r} m at {target!r} V, closed form {w_ref!r} m")
    m_ref = ref.moment_paper(sol.x_left, sol.x_right)
    if not _rel(sol.moment_value, m_ref) <= TOL_MOMENT:
        problems.append(f"moment {sol.moment_value!r} V, antiderivative {m_ref!r} V")
    return problems


def check_two_sided(ref: Reference, target: float, x_left: float, x_right: float,
                    moment_value: float = None) -> list:
    """Net-model two-sided solve: neutrality and the moment identity."""
    x_j = float(ref.x_j)
    if not 0.0 <= x_left < x_j < x_right:
        return [f"region [{x_left!r}, {x_right!r}] does not straddle x_j = {x_j!r}"]
    problems = []
    neutral = ref.neutrality(x_left, x_right)
    if not neutral <= TOL_NEUTRAL:
        problems.append(f"net charge {neutral:.3e} of one side's charge")
    m_ref = ref.moment_net(x_left, x_right)
    if not _rel(m_ref, target) <= TOL_MOMENT:
        problems.append(f"analytic moment {m_ref!r} V, target {target!r} V")
    if moment_value is not None and not _rel(moment_value, m_ref) <= TOL_MOMENT:
        problems.append(f"moment {moment_value!r} V, analytic {m_ref!r} V")
    return problems


def check_profile(ref: Reference, target: float, x_left: float, x_right: float,
                  samples, n_samples: int) -> list:
    """Reconstructed (x, E, u) on the two-sided region: even grid, E and u
    against the analytic field and potential, |E| ~ 0 at both ends and a
    potential drop equal to the target (criterion 9)."""
    if len(samples) != n_samples:
        return [f"{len(samples)} samples, expected {n_samples}"]
    problems = []
    span = x_right - x_left
    want = [ref.field_potential(x_left, x) for x, _, _ in samples]
    e_max = max(abs(e) for e, _ in want)
    for i, ((x, e, u), (e_ref, u_ref)) in enumerate(zip(samples, want)):
        x_grid = x_left + span * i / (n_samples - 1)
        if abs(x - x_grid) > 1e-12 * x_right:
            problems.append(f"sample {i} at x = {x!r}, expected {x_grid!r}")
        if not abs(e - e_ref) <= TOL_FIELD * e_max:
            problems.append(f"E = {e!r} at x = {x!r}, analytic {e_ref!r}")
        if not abs(u - u_ref) <= TOL_POTENTIAL * target:
            problems.append(f"u = {u!r} at x = {x!r}, analytic {u_ref!r}")
        if len(problems) > 5:
            return problems
    for end in (samples[0], samples[-1]):
        if not abs(end[1]) <= TOL_FIELD_END * e_max:
            problems.append(f"|E| = {abs(end[1])!r} at the edge x = {end[0]!r}")
    drop = abs(samples[-1][2] - samples[0][2])
    if not _rel(drop, target) <= TOL_DROP:
        problems.append(f"potential drop {drop!r} V, target {target!r} V")
    return problems


def fit_recovered(ref: Reference, n0_hat: float, ld_hat: float, vbi_hat: float,
                  converged: bool) -> bool:
    """Noiseless fit recovers (N0, L_d, V_bi) within criterion 10's 1e-3."""
    errs = (_rel(n0_hat, float(ref.n0)), _rel(ld_hat, float(ref.l_d)),
            _rel(vbi_hat, float(ref.v_bi)))
    return converged and all(e < FIT_BOUND for e in errs)


def measured_curve(ref: Reference, biases) -> list:
    """Noiseless C_b at each signed bias, from the closed form."""
    return [ref.c(ref.w_at_bias(v)) for v in biases]


def printed_matches(text: str, value: float, spec: str, rel_tol: float) -> bool:
    """``text`` is what ``format(x, spec)`` prints for some x within rel_tol
    of ``value``. Rounding is monotone, so it is enough to bracket."""
    lo, hi = sorted((value * (1.0 - rel_tol), value * (1.0 + rel_tol)))
    try:
        got = float(text)
    except ValueError:
        return False
    return float(format(lo, spec)) <= got <= float(format(hi, spec))
