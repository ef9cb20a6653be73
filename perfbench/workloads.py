"""The four workloads: seeded inputs, rounds of operations, output checks.

A workload builds its inputs from the seed in its constructor. ``round(k)``
returns the k-th round of operations; every round of a workload holds the
same operations, so the share of failed operations is the same in every
run. An ``Op`` pairs the timed call with its check, which runs outside the
timed span and returns ``(failed, problems)``: ``failed`` marks the one
fault the benchmark keeps (a fit that stalls short of the truth), and
``problems`` lists anything else that is wrong.
"""

import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import inputs
from inputs import Junction, STALL_JUNCTION, STALL_SWEEP, UM_TO_M

N_JUNCTIONS = 8            # per seed, cycled over the rounds
SWEEP_POINTS = 2001        # cv_sweep_io
CLI_SWEEP_POINTS = 201
FIT_POINTS = 51
FIT_PANEL_SEED = 0         # cv_fit: fixed panel, see CvFit
FIT_PANEL_SIZE = 5
ONE_SIDED_POINTS = 41      # oracle_verify grid
PROFILE_SAMPLES = 201      # as `oracle --emit-profile` writes
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation. Executions with equal ``(label, case)`` repeat the
    same call on the same input; the run keeps the fastest of them."""

    label: str
    run: Callable
    check: Callable
    case: int = 0


def ref_mod():
    """reference.py, imported on first use. It loads mpmath, which only the
    checks and the fit curves need: a set-up probe of the other in-process
    workloads pays for the library alone."""
    import reference
    return reference


def _ref(j: Junction):
    return ref_mod().reference_for(j.n0, j.n_b, j.l_d)


def _checked(problems):
    """Verdict of a check with no kept fault: (failed, problems)."""
    return False, problems


# ---------------------------------------------------------------- CLI ----

class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(argv, workdir, env) -> CliResult:
    """Run `python -m junctionlab.cli argv` to completion."""
    try:
        done = subprocess.run([sys.executable, "-m", "junctionlab.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=workdir,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"CLI call timed out: {' '.join(argv)}") from None
    return CliResult(done.returncode, done.stdout, done.stderr)


def _printed(problems, what, text, value, spec, tol):
    if not ref_mod().printed_matches(text, value, spec, tol):
        problems.append(f"{what} printed {text}, reference {value!r}")


_SOLVE_RE = re.compile(
    r"material: Si  T = 300 K\n"
    r"x_j = (?P<xj>\S+) um\n"
    r"V_bi = (?P<vbi>\S+) V\n"
    r"validity window: forward < (?P<fwd>\S+) V, reverse < (?P<rev>\S+) V\n"
    r"bias: (?P<dir>reverse|forward) (?P<bias>\S+) V  \(total potential (?P<vt>\S+) V\)\n"
    r"regime: general\n"
    r"W_SC = (?P<w>\S+) um\n"
    r"C_b = (?P<cn>\S+) nF/cm\^2 \((?P<c>\S+) F/m\^2\)\n\Z")
_SWEEP_RE = re.compile(r"wrote (?P<n>\d+) points to \S+ \(C_b (?P<lo>\S+) \.\. (?P<hi>\S+) F/m\^2\)\n\Z")
_FIT_RE = re.compile(
    r"N0 = (?P<n0>\S+) cm\^-3\nL_d = (?P<ld>\S+) um\nV_bi = (?P<vbi>\S+) V\n"
    r"objective = \S+\niterations = \d+\nconverged = (?P<conv>yes|no)\n\Z")
_ORACLE_RE = re.compile(
    r"model: paper\n"
    r"closed-form W_SC = (?P<wcf>\S+) um\n"
    r"numerical  W_SC = (?P<wnum>\S+) um\n"
    r"deviation = (?P<dev>\S+) um \((?P<rel>\S+) relative\)\n")
_TWO_SIDED_RE = re.compile(
    r"two-sided net W_SC = (?P<w2>\S+) um \[(?P<xl>\S+), (?P<xr>\S+)\] um\n"
    r"two-sided vs closed-form deviation = \S+ relative \(diagnostic\)\n"
    r"wrote (?P<n>\d+) profile samples to \S+\n\Z")


def _read_rows(path, header, width):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: header {lines[:1]!r}")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:] if line]
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: wrong column count")
    return rows


class CliCalls:
    """Closed loop of one CLI process at a time, cycling the five calls a
    user makes. The fit call always fits the stall reproduction."""

    name = "cli_calls"

    def __init__(self, seed: int, workdir: str, env: dict, tracer=None):
        self.workdir, self.env = workdir, env
        rng = random.Random(seed)
        self.cases = []
        for _ in range(N_JUNCTIONS):
            j = inputs.draw_junction(rng, two_sided=True)
            self.cases.append((j, rng.uniform(-0.5 * j.v_bi, 0.9 * j.v_max_reverse),
                               inputs.sweep_range(rng, j), inputs.bias_two_sided(rng, j)))
        stall_ref = _ref(STALL_JUNCTION)
        grid = inputs.bias_grid(*STALL_SWEEP)
        self.stall_csv = os.path.join(workdir, "stall.csv")
        with open(self.stall_csv, "wb") as fh:
            fh.write(inputs.measured_csv(grid, ref_mod().measured_curve(stall_ref, grid)))
        self.sweep_csv = os.path.join(workdir, "sweep.csv")
        self.profile_csv = os.path.join(workdir, "profile.csv")

    @staticmethod
    def peak_rss_kb() -> int:
        """Largest peak RSS of the child processes reaped so far: the CLI
        processes, which load numpy and scipy, outgrow the set-up probes."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def _call(self, argv):
        return lambda: run_cli(argv, self.workdir, self.env)

    def round(self, k: int) -> list:
        j, v_solve, (v_start, v_stop), v_two = self.cases[k % len(self.cases)]
        flags = j.cli_flags()
        return [
            Op("cli.solve", self._call(["solve", *flags, "--bias", repr(v_solve)]),
               lambda r: self._check_solve(r, j, v_solve)),
            Op("cli.sweep", self._call(["sweep", *flags, "--vstart", repr(v_start),
                                        "--vstop", repr(v_stop),
                                        "--steps", str(CLI_SWEEP_POINTS),
                                        "--out", self.sweep_csv]),
               lambda r: self._check_sweep(r, j, v_start, v_stop)),
            Op("cli.fit", self._call(["fit", "--data", self.stall_csv,
                                      "--nb", repr(STALL_JUNCTION.nb_cm3), "--fit-vbi"]),
               self._check_fit),
            Op("cli.oracle", self._call(["oracle", *flags, "--bias", repr(v_two)]),
               lambda r: self._check_oracle(r, j, v_two, two_sided=False)),
            Op("cli.oracle_two_sided",
               self._call(["oracle", *flags, "--bias", repr(v_two), "--two-sided",
                           "--emit-profile", self.profile_csv]),
               lambda r: self._check_oracle(r, j, v_two, two_sided=True)),
        ]

    @staticmethod
    def _exit(r, want=(0,)):
        if r.code not in want:
            return [f"exit {r.code}: {r.err.strip()[:200]}"]
        return []

    def _check_solve(self, r, j, v):
        problems = self._exit(r)
        m = _SOLVE_RE.match(r.out)
        if problems or not m:
            return _checked(problems or [f"solve output not recognised: {r.out!r}"])
        ref = _ref(j)
        tol, spec = ref_mod().TOL_CLOSED_FORM, ".6g"
        v_total = float(ref.v_bi + v)
        w = ref.w(v_total)
        c = ref.c(w)
        for key, value in (("xj", float(ref.x_j) / UM_TO_M), ("vbi", float(ref.v_bi)),
                           ("fwd", float(ref.v_bi)), ("rev", float(ref.v_max_reverse)),
                           ("vt", v_total), ("w", w / UM_TO_M), ("cn", c / 1e-5), ("c", c)):
            _printed(problems, key, m[key], value, spec, tol)
        if m["dir"] != ("reverse" if v >= 0.0 else "forward") or m["bias"] != f"{abs(v):g}":
            problems.append(f"bias echoed as {m['dir']} {m['bias']} for {v!r} V")
        return _checked(problems)

    def _check_sweep(self, r, j, v_start, v_stop):
        problems = self._exit(r)
        m = _SWEEP_RE.match(r.out)
        if problems or not m:
            return _checked(problems or [f"sweep output not recognised: {r.out!r}"])
        ref = _ref(j)
        grid = inputs.bias_grid(v_start, v_stop, CLI_SWEEP_POINTS)
        points = _read_rows(self.sweep_csv, "v_bias_V,c_b_F_per_m2,w_sc_m", 3)
        problems += ref_mod().check_curve_points(ref, points, grid)
        _printed(problems, "C_b min", m["lo"], ref.c(ref.w_at_bias(v_stop)), ".6g",
                 ref_mod().TOL_CLOSED_FORM)
        _printed(problems, "C_b max", m["hi"], ref.c(ref.w_at_bias(v_start)), ".6g",
                 ref_mod().TOL_CLOSED_FORM)
        return _checked(problems)

    def _check_fit(self, r):
        # exit 3 (no convergence) is a fit failure like a stall, not a crash
        problems = self._exit(r, want=(0, 3))
        m = _FIT_RE.match(r.out)
        if problems or not m:
            return _checked(problems or [f"fit output not recognised: {r.out!r}"])
        if (r.code == 0) != (m["conv"] == "yes"):
            return _checked([f"exit {r.code} with converged = {m['conv']}"])
        recovered = ref_mod().fit_recovered(
            _ref(STALL_JUNCTION), float(m["n0"]) * inputs.CM3_TO_M3,
            float(m["ld"]) * UM_TO_M, float(m["vbi"]), m["conv"] == "yes")
        return not recovered, []

    def _check_oracle(self, r, j, v, two_sided):
        problems = self._exit(r)
        m = _ORACLE_RE.match(r.out)
        if problems or not m:
            return _checked(problems or [f"oracle output not recognised: {r.out!r}"])
        ref = _ref(j)
        target = float(ref.v_bi + v)
        w = ref.w(target) / UM_TO_M
        _printed(problems, "closed-form W", m["wcf"], w, ".9g", ref_mod().TOL_CLOSED_FORM)
        _printed(problems, "numerical W", m["wnum"], w, ".9g", ref_mod().TOL_ONE_SIDED)
        if not float(m["rel"]) < 1e-6:
            problems.append(f"oracle deviation {m['rel']} relative")
        # the deviation line is the difference of the two widths; each width
        # is rounded to 9 digits (<= 5e-9 relative), the deviation to 6
        w_cf, w_num, dev = float(m["wcf"]), float(m["wnum"]), float(m["dev"])
        if not abs(abs(w_num - w_cf) - dev) <= 1e-8 * w_cf + 5e-6 * dev:
            problems.append(f"deviation {m['dev']} um is not |{m['wnum']} - {m['wcf']}| um")
        rest = r.out[m.end():]
        if not two_sided:
            if rest:
                problems.append(f"unexpected oracle output {rest!r}")
            return _checked(problems)
        t = _TWO_SIDED_RE.match(rest)
        if not t or int(t["n"]) != PROFILE_SAMPLES:
            return _checked(problems + [f"two-sided output not recognised: {rest!r}"])
        samples = _read_rows(self.profile_csv, "x_m,E_V_per_m,u_V", 3)
        x_l, x_r = samples[0][0], samples[-1][0]
        problems += ref_mod().check_two_sided(ref, target, x_l, x_r)
        problems += ref_mod().check_profile(ref, target, x_l, x_r, samples, PROFILE_SAMPLES)
        for key, value in (("xl", x_l / UM_TO_M), ("xr", x_r / UM_TO_M),
                           ("w2", (x_r - x_l) / UM_TO_M)):
            _printed(problems, key, t[key], value, ".9g", 1e-12)
        return _checked(problems)


# --------------------------------------------------------- in-process ----

class _InProcess:
    """Workloads that call the library. Each imports only the modules it
    calls, so that a lazier package import shows in their set-up time."""

    def __init__(self, tracer=None):
        import junctionlab
        from junctionlab import closedform, cvtools, doping, physcore
        self.lib = junctionlab
        self.closedform, self.cvtools, self._doping = closedform, cvtools, doping
        self.si = physcore.get_material("Si")
        self.counted = tracer.counted if tracer is not None else (lambda rho: rho)

    @staticmethod
    def peak_rss_kb() -> int:
        """Peak RSS of this process, which runs the library calls."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def spec(self, j: Junction):
        profile = self._doping.GaussianProfile(n0=j.n0, l_d=j.l_d, n_b=j.n_b)
        return self.closedform.JunctionSpec(material=self.si, profile=profile)


class CvSweepIo(_InProcess):
    """One junction per operation: a dense sweep, then the curve written
    as CSV and JSON and read back from both."""

    name = "cv_sweep_io"

    def __init__(self, seed: int, workdir: str, env: dict, tracer=None):
        super().__init__(tracer)
        rng = random.Random(seed)
        self.cases = []
        for _ in range(N_JUNCTIONS):
            j = inputs.draw_junction(rng)
            self.cases.append((j, self.spec(j), inputs.sweep_range(rng, j)))

    def round(self, k: int) -> list:
        case = k % len(self.cases)
        j, spec, (v_start, v_stop) = self.cases[case]
        cv = self.cvtools

        def run():
            curve = cv.sweep(spec, v_start, v_stop, SWEEP_POINTS)
            csv = cv.serialize(curve, "csv")
            js = cv.serialize(curve, "json")
            return curve, cv.deserialize(csv, "csv"), cv.deserialize(js, "json")

        def check(out):
            curve, back_csv, back_json = out
            grid = inputs.bias_grid(v_start, v_stop, SWEEP_POINTS)
            return _checked(ref_mod().check_curve_points(_ref(j), curve.points, grid)
                       + ref_mod().check_round_trip(curve, back_csv, "csv")
                       + ref_mod().check_round_trip(curve, back_json, "json"))

        return [Op("cv_sweep_io.op", run, check, case)]


class CvFit(_InProcess):
    """Parse a two-column measured-style CSV, then fit it.

    Seeded junctions cannot be used here: the fit misses criterion 10's
    bound on 10-30 % of them, a share that moves with the seed. So every
    seed fits one fixed panel, drawn once with the same generator from
    FIT_PANEL_SEED, plus the stall reproduction; each curve is fitted with
    and without V_bi free. The seed only sets the order within a round.
    """

    name = "cv_fit"

    def __init__(self, seed: int, workdir: str, env: dict, tracer=None):
        super().__init__(tracer)
        panel_rng = random.Random(FIT_PANEL_SEED)
        curves = []
        for _ in range(FIT_PANEL_SIZE):
            j = inputs.draw_junction(panel_rng)
            v_start, v_stop = inputs.sweep_range(panel_rng, j)
            curves.append((j, inputs.bias_grid(v_start, v_stop, FIT_POINTS)))
        curves.append((STALL_JUNCTION, inputs.bias_grid(*STALL_SWEEP)))
        self.cases = []
        for j, grid in curves:
            caps = ref_mod().measured_curve(_ref(j), grid)
            data = inputs.measured_csv(grid, caps)
            for fit_vbi in (True, False):
                self.cases.append((j, grid, caps, data, fit_vbi))
        random.Random(seed).shuffle(self.cases)

    def round(self, k: int) -> list:
        return [self._op(i, *case) for i, case in enumerate(self.cases)]

    def _op(self, case, j, grid, caps, data, fit_vbi):
        cv, si = self.cvtools, self.si

        def run():
            curve = cv.deserialize(data, "csv")
            return curve, cv.fit(curve, si, inputs.TEMP, j.n_b, fit_vbi=fit_vbi)

        def check(out):
            curve, result = out
            if [(v, c) for v, c, _ in curve.points] != list(zip(grid, caps)):
                return _checked(["measured CSV did not parse back to its doubles"])
            recovered = ref_mod().fit_recovered(_ref(j), result.n0_hat, result.ld_hat,
                                              result.vbi_hat, result.converged)
            return not recovered, []

        return Op("cv_fit.fit_vbi" if fit_vbi else "cv_fit.fit", run, check, case)


class OracleVerify(_InProcess):
    """One junction per operation: the closed form once, a one-sided
    paper-model solve at each point of a bias grid (criterion 3), then the
    two-sided net-charge solve and its field reconstruction."""

    name = "oracle_verify"

    def __init__(self, seed: int, workdir: str, env: dict, tracer=None):
        super().__init__(tracer)
        from junctionlab import momentsolver
        self.momentsolver = momentsolver
        rng = random.Random(seed)
        self.cases = []
        for _ in range(N_JUNCTIONS):
            j = inputs.draw_junction(rng, two_sided=True)
            grid = inputs.bias_grid(-rng.uniform(0.3, 0.5) * j.v_bi,
                                    0.98 * j.v_max_reverse, ONE_SIDED_POINTS)
            self.cases.append((j, self.spec(j), grid, inputs.bias_two_sided(rng, j)))

    def round(self, k: int) -> list:
        case = k % len(self.cases)
        j, spec, grid, v_two = self.cases[case]
        lib, ms = self.lib, self.momentsolver

        def run():
            # through the package's name, as the tracer wraps calls into
            # closedform from outside it
            r = lib.solve(spec, lib.Bias.from_signed(v_two))
            paper = self.counted(ms.ChargeProfile.paper(spec.profile))
            one = [ms.solve_one_sided(paper, spec.eps, spec.x_j, spec.v_bi + v) for v in grid]
            net = self.counted(ms.ChargeProfile.net(spec.profile))
            two = ms.solve_two_sided(net, spec.eps, spec.x_j, r.total_potential)
            samples = ms.reconstruct_field_potential(net, spec.eps, two.x_left,
                                                     two.x_right, PROFILE_SAMPLES)
            return r, one, two, samples

        def check(out):
            r, one, two, samples = out
            ref = _ref(j)
            target = float(ref.v_bi + v_two)
            problems = []
            w_ref = ref.w(target)
            if not abs(r.w_sc - w_ref) <= ref_mod().TOL_CLOSED_FORM * w_ref:
                problems.append(f"closed-form W = {r.w_sc!r} m, reference {w_ref!r} m")
            for v, sol in zip(grid, one):
                problems += ref_mod().check_one_sided(ref, spec.x_j, spec.v_bi + v, sol)
            problems += ref_mod().check_two_sided(ref, target, two.x_left, two.x_right,
                                                two.moment_value)
            problems += ref_mod().check_profile(ref, target, two.x_left, two.x_right,
                                              samples, PROFILE_SAMPLES)
            return _checked(problems)

        return [Op("oracle_verify.op", run, check, case)]


WORKLOADS = {w.name: w for w in (CliCalls, CvSweepIo, CvFit, OracleVerify)}
