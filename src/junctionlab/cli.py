"""Command-line interface: solve | sweep | fit | oracle | materials.

Device-physics units at the boundary (cm^-3, um, cm^2/s); everything
behind the parser is SI. Exit codes: 0 ok, 2 punch-through / out of
window, 3 fit did not converge, 4 oracle deviation above threshold,
64 usage, 65 bad data, 73 unwritable output.

Library errors that reach ``main`` map to an exit code by class, most
specific first: CurveFormatError, InsufficientDataError and
UnfittableDataError -> 65 ("bad data"); PunchThroughError -> 2
("punch-through"); any other JunctionError -> 2 ("error"); any other
ValueError -> 64 ("error"). A bad junction flag is a usage error (64)
whatever it raises. `solve` prints the validity window of the regime it
solves.
"""

import argparse
import math
import os
import sys

from . import closedform, cvtools, momentsolver
from .closedform import Bias, JunctionSpec
from .doping import DiffusionRecipe, GaussianProfile, diffusion_length
from .errors import (CurveFormatError, InsufficientDataError, JunctionError,
                     PunchThroughError, UnfittableDataError)
from .physcore import Material, builtin_materials

EXIT_OK = 0
EXIT_PUNCH_THROUGH = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ORACLE_DEVIATION = 4
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CANTCREAT = 73

CM3_TO_M3 = 1e6
UM_TO_M = 1e-6
CM2_TO_M2 = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_material_file(path: str) -> list[Material]:
    """Material CSV: header `name,eps_r,n_i_cm3,temp_K`, one material per row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise CliError(f"cannot read material file {path}: {e}", EXIT_DATA)
    if not lines or lines[0] != "name,eps_r,n_i_cm3,temp_K":
        raise CliError(f"{path}:1: bad header; expected 'name,eps_r,n_i_cm3,temp_K'",
                       EXIT_DATA)
    out = []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        cols = row.split(",")
        if len(cols) != 4:
            raise CliError(f"{path}:{lineno}: wrong column count", EXIT_DATA)
        try:
            mat = Material(name=cols[0], eps_r=float(cols[1]),
                           n_i=float(cols[2]) * CM3_TO_M3, temp_ref=float(cols[3]))
        except ValueError as e:
            raise CliError(f"{path}:{lineno}: {e}", EXIT_DATA)
        out.append(mat)
    return out


def _material_table(extra_file: str = None) -> dict[str, Material]:
    table = {m.name: m for m in builtin_materials()}
    env_file = os.environ.get("JUNCTIONLAB_MATERIALS")
    for path in (env_file, extra_file):
        if path:
            for m in _load_material_file(path):
                table[m.name] = m
    return table


def _add_junction_flags(p: argparse.ArgumentParser):
    p.add_argument("--n0", type=_finite_float, required=True, help="surface concentration, cm^-3")
    p.add_argument("--nb", type=_finite_float, required=True,
                   help="background concentration, cm^-3")
    p.add_argument("--ld", type=_finite_float, help="diffusion length, um")
    p.add_argument("--di", type=_finite_float, help="diffusion constant, cm^2/s")
    p.add_argument("--td", type=_finite_float, help="diffusion time, s")
    p.add_argument("--xj", type=_finite_float, help="junction depth override, um")
    p.add_argument("--vbi", type=_finite_float, help="built-in potential override, V")
    p.add_argument("--material", default="Si", help="material name (default Si)")
    p.add_argument("--temp", type=_finite_float, default=300.0,
                   help="temperature, K (default 300)")
    p.add_argument("--regime", choices=["general", "shallow", "deep"], default="general")


def _material(name: str) -> Material:
    table = _material_table()
    if name not in table:
        raise CliError(f"unknown material {name!r}; known: " + ", ".join(sorted(table)),
                       EXIT_USAGE)
    return table[name]


def _build_spec(args) -> JunctionSpec:
    material = _material(args.material)
    if args.ld is None and (args.di is None or args.td is None):
        raise CliError("need --ld or both --di and --td", EXIT_USAGE)
    try:
        if args.ld is not None:
            l_d = args.ld * UM_TO_M
        else:
            l_d = diffusion_length(DiffusionRecipe(d_i=args.di * CM2_TO_M2, t_d=args.td))
        profile = GaussianProfile(n0=args.n0 * CM3_TO_M3, l_d=l_d, n_b=args.nb * CM3_TO_M3)
        return JunctionSpec(material=material, profile=profile, temp=args.temp,
                            x_j=None if args.xj is None else args.xj * UM_TO_M,
                            v_bi=args.vbi)
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)


def _solve_report(spec, bias, regime) -> list[str]:
    window = closedform.validity_window(spec, regime)
    result = closedform.solve(spec, bias, regime)
    return [
        f"material: {spec.material.name}  T = {spec.temp:g} K",
        f"x_j = {spec.x_j / UM_TO_M:.6g} um",
        f"V_bi = {spec.v_bi:.6g} V",
        f"validity window: forward < {window.v_max_forward:.6g} V, "
        f"reverse < {window.v_max_reverse:.6g} V",
        f"bias: {bias.direction} {bias.value:g} V  (total potential {result.total_potential:.6g} V)",
        f"regime: {result.regime.value}",
        f"W_SC = {result.w_sc / UM_TO_M:.6g} um",
        f"C_b = {result.c_b / 1e-5:.6g} nF/cm^2 ({result.c_b:.6g} F/m^2)",
    ]


def cmd_solve(args) -> int:
    spec = _build_spec(args)
    for line in _solve_report(spec, Bias.from_signed(args.bias), args.regime):
        print(line)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    curve = cvtools.sweep(spec, args.vstart, args.vstop, args.steps, args.regime)
    data = cvtools.serialize(curve, args.format)
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as e:
        print(f"cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_CANTCREAT
    cs = [c for _, c, _ in curve.points]
    print(f"wrote {len(curve)} points to {args.out} "
          f"(C_b {min(cs):.6g} .. {max(cs):.6g} F/m^2)")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.data, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        print(f"cannot read {args.data}: {e}", file=sys.stderr)
        return EXIT_DATA
    fmt = "json" if args.data.endswith(".json") else "csv"
    material = _material(args.material)
    guess = None
    if args.guess_n0 is not None and args.guess_ld is not None:
        guess = (args.guess_n0 * CM3_TO_M3, args.guess_ld * UM_TO_M,
                 args.guess_vbi if args.guess_vbi is not None else 0.7)
    result = cvtools.fit(cvtools.deserialize(raw, fmt), material, args.temp,
                         args.nb * CM3_TO_M3, fit_vbi=args.fit_vbi, initial_guess=guess)
    print(f"N0 = {result.n0_hat / CM3_TO_M3:.6g} cm^-3")
    print(f"L_d = {result.ld_hat / UM_TO_M:.6g} um")
    print(f"V_bi = {result.vbi_hat:.6g} V")
    print(f"objective = {result.objective:.6g}")
    print(f"iterations = {result.iterations}")
    print(f"converged = {'yes' if result.converged else 'no'}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_oracle(args) -> int:
    spec = _build_spec(args)
    result = closedform.solve(spec, Bias.from_signed(args.bias), args.regime)
    v_total = result.total_potential
    if args.model == "paper":
        rho = momentsolver.ChargeProfile.paper(spec.profile)
    else:
        rho = momentsolver.ChargeProfile.net_magnitude(spec.profile)
    sol = momentsolver.solve_one_sided(rho, spec.eps, spec.x_j, v_total)
    w_numeric = sol.x_right - sol.x_left
    dev = abs(w_numeric - result.w_sc)
    rel = dev / result.w_sc if result.w_sc > 0 else math.inf
    print(f"model: {args.model}")
    print(f"closed-form W_SC = {result.w_sc / UM_TO_M:.9g} um")
    print(f"numerical  W_SC = {w_numeric / UM_TO_M:.9g} um")
    print(f"deviation = {dev / UM_TO_M:.6g} um ({rel:.6g} relative)")

    # the emitted profile is that of the last solve
    rho_emit, xl, xr = rho, sol.x_left, sol.x_right
    if args.two_sided:
        rho_net = momentsolver.ChargeProfile.net(spec.profile)
        two_sided = momentsolver.solve_two_sided(rho_net, spec.eps, spec.x_j, v_total)
        rho_emit, xl, xr = rho_net, two_sided.x_left, two_sided.x_right
        w2 = xr - xl
        print(f"two-sided net W_SC = {w2 / UM_TO_M:.9g} um "
              f"[{xl / UM_TO_M:.9g}, {xr / UM_TO_M:.9g}] um")
        print(f"two-sided vs closed-form deviation = "
              f"{abs(w2 - result.w_sc) / result.w_sc:.6g} relative (diagnostic)")

    if args.emit_profile:
        samples = momentsolver.reconstruct_field_potential(rho_emit, spec.eps, xl, xr, 201)
        try:
            with open(args.emit_profile, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("x_m,E_V_per_m,u_V\n")
                for x, e_fld, u in samples:
                    fh.write(f"{x!r},{e_fld!r},{u!r}\n")
        except OSError as e:
            print(f"cannot write {args.emit_profile}: {e}", file=sys.stderr)
            return EXIT_CANTCREAT
        print(f"wrote {len(samples)} profile samples to {args.emit_profile}")

    if args.model == "paper" and rel >= 1e-6:
        return EXIT_ORACLE_DEVIATION
    return EXIT_OK


def cmd_materials(args) -> int:
    table = _material_table(args.file)
    for name in sorted(table):
        m = table[name]
        print(f"{m.name}: eps_r = {m.eps_r:g}, n_i = {m.n_i / CM3_TO_M3:g} cm^-3 "
              f"at {m.temp_ref:g} K")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="junctionlab",
                     description="Gaussian-diffused junction depletion width, "
                                 "capacitance, C-V sweeps, and parameter extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="single-bias closed-form solve")
    _add_junction_flags(p)
    p.add_argument("--bias", type=_finite_float, required=True,
                   help="bias, V; >= 0 reverse, < 0 forward magnitude")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="C-V sweep to a file")
    _add_junction_flags(p)
    p.add_argument("--vstart", type=_finite_float, required=True)
    p.add_argument("--vstop", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 2)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="extract (N0, L_d, V_bi) from C-V data")
    p.add_argument("--data", required=True, help="CSV or JSON curve file")
    p.add_argument("--nb", type=_finite_float, required=True, help="assumed background, cm^-3")
    p.add_argument("--material", default="Si")
    p.add_argument("--temp", type=_finite_float, default=300.0)
    p.add_argument("--fit-vbi", action="store_true")
    p.add_argument("--guess-n0", type=_finite_float, help="initial N0 guess, cm^-3")
    p.add_argument("--guess-ld", type=_finite_float, help="initial L_d guess, um")
    p.add_argument("--guess-vbi", type=_finite_float, help="initial V_bi guess, V")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oracle", help="closed form vs numerical moment solver")
    _add_junction_flags(p)
    p.add_argument("--bias", type=_finite_float, required=True)
    p.add_argument("--model", choices=["paper", "net"], default="paper")
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--emit-profile", metavar="PATH",
                   help="write (x, E, u) samples to PATH")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("materials", help="list known materials")
    p.add_argument("--file", help="extra material CSV to load")
    p.set_defaults(func=cmd_materials)

    return parser


# (error class, stderr prefix, exit code) for library errors reaching
# main; the first row whose class matches wins, so the most specific
# come first (every JunctionError is a ValueError).
_ERROR_EXITS = (
    ((CurveFormatError, InsufficientDataError, UnfittableDataError), "bad data", EXIT_DATA),
    (PunchThroughError, "punch-through", EXIT_PUNCH_THROUGH),
    (JunctionError, "error", EXIT_PUNCH_THROUGH),
    (ValueError, "error", EXIT_USAGE),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:
        prefix, code = next((p, c) for cls, p, c in _ERROR_EXITS if isinstance(e, cls))
        line = getattr(e, "line", None)  # CurveFormatError knows its row
        where = f" (line {line})" if line is not None else ""
        print(f"{prefix}{where}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
