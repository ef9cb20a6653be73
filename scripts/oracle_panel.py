#!/usr/bin/env python3
"""Print a hashed panel of the Gauss's-law oracle's solves.

For five junctions and five target potentials each, it runs three solves:
the one-sided paper-model solve from x_j, the one-sided net-magnitude
solve from x_j, and the two-sided net-charge solve with a 201-sample
field reconstruction. Each solve prints one line: the float.hex of every
ScrSolution field, the charge-density evaluations, and for the two-sided
solve a sha256 prefix of the samples and the reconstruction's
evaluations. Every profile there is newly built, so each solve is cold.
Then, per junction and one-sided model, an ascending and a descending
41-point grid of targets from 0.5 V to V_bi + 10 V, solved on one
profile object, so that each solve continues from the last: one line
each with a sha256 prefix of the widths' float.hex and the charge-density
evaluations of the whole grid. Then four two-sided lines in a Si/Ge
stack whose Si layer ends past x_j: three junctions where a Newton step
from the start lands past the stack end, and one whose target the stack
cannot hold (StackExhaustedError). Last, three two-sided lines on
charges of limited extent, q*N on one side of x_j and k*q*N over a layer
d thick on the other, 0 past it, at a fraction f of the moment the whole
charge holds: a Newton step lands past the layer's end, and a solve
that halved its whole step there ran for millions of evaluations or
raised. A solve that raises prints the exception's class and message
instead. The last line is a sha256 over all lines before it.

Takes no flags. Two versions of the oracle agree bit for bit where their
panels do; compare two runs with diff.
"""

import dataclasses
import hashlib

from junctionlab import (ChargeProfile, GaussianProfile, HeteroStack, JunctionSpec, Q,
                         ScrSolution, get_material, junction_depth,
                         reconstruct_field_potential, solve_one_sided, solve_two_sided)

JUNCTIONS = [
    # (N0 m^-3, L_d m, N_B m^-3): the worked junction, three across the
    # acceptance ranges, and one whose N0/N_B is 1.0000001
    (1e24, 1e-5, 1e21),
    (1e26, 1e-7, 1e20),
    (5e23, 3e-7, 2.5e23),
    (1e25, 3e-6, 1e22),
    (1.0000001e21, 1e-5, 1e21),
]
# (N0 m^-3, L_d m, N_B m^-3, target V, Si layer m, Ge layer m) in a
# two-layer stack: the last one's SCR would pass the stack end
STACKED = [
    (3.852256979474014e25, 1.4431497627182993e-6, 1.0632138849696236e19, 6.080438458413013,
     9.1970615221164e-6, 4.484612617767771e-5),
    (1.8457006063587575e26, 2.0205548330130218e-8, 1.5319195174890042e20, 0.00841318755081368,
     1.1960756640575865e-7, 3.564845641627856e-7),
    (5.653537905063504e28, 6.49695685420635e-8, 6.121370181020992e21, 16.310653261377656,
     7.739301773242846e-7, 1.5842511407792405e-6),
    (3.852256979474014e25, 1.4431497627182993e-6, 1.0632138849696236e19, 30.0,
     9.1970615221164e-6, 4.484612617767771e-5),
]
# (N m^-3, k, d m, scale m, f, mirrored) at x_j = 1 um, eps = 1e-10 F/m:
# the layer past x_j, one thinner than 1e-3 scale, and one on the
# diffused side
LAYERS = [
    (1e22, 100.0, 10e-9, 1e-7, 0.1, False),
    (1e22, 10.0, 0.5e-9, 1e-6, 0.5, False),
    (1e22, 50.0, 10e-9, 1e-7, 0.9, True),
]
LAYER_X_J, LAYER_EPS = 1e-6, 1e-10
SAMPLES = 201
GRID_POINTS = 41


def _counted(rho: ChargeProfile) -> tuple:
    """rho with an evaluation counter, and the counter (a list of one int)."""
    count = [0]

    def fn(x):
        count[0] += 1
        return rho.fn(x)
    return dataclasses.replace(rho, fn=fn), count


def _fields(sol: ScrSolution) -> str:
    return " ".join(f"{f.name}={getattr(sol, f.name).hex()}"
                    for f in dataclasses.fields(ScrSolution))


def _one_sided(rho: ChargeProfile, spec: JunctionSpec, target: float) -> str:
    rho, count = _counted(rho)
    sol = solve_one_sided(rho, spec.eps, spec.x_j, target)
    return f"{_fields(sol)} rho={count[0]}"


def _grid(rho: ChargeProfile, spec: JunctionSpec, targets) -> str:
    rho, count = _counted(rho)
    widths = [solve_one_sided(rho, spec.eps, spec.x_j, t).width for t in targets]
    digest = hashlib.sha256("".join(f"{w.hex()}\n" for w in widths).encode()).hexdigest()
    return f"widths={digest[:16]} rho={count[0]}"


def _layer(n: float, k: float, d: float, scale: float, mirrored: bool) -> ChargeProfile:
    """q*n below LAYER_X_J and -k*q*n on the d above it, 0 past that; or
    mirrored, k*q*n on the d below LAYER_X_J, 0 above that, -q*n past it."""
    x_j = LAYER_X_J
    if mirrored:
        return ChargeProfile(fn=lambda x: 0.0 if x < x_j - d else k * Q * n if x < x_j else -Q * n,
                             steps=(x_j - d, x_j), scale=scale)
    return ChargeProfile(fn=lambda x: Q * n if x < x_j else -k * Q * n if x < x_j + d else 0.0,
                         steps=(x_j, x_j + d), scale=scale)


def _two_sided(rho: ChargeProfile, eps, x_j: float, target: float) -> str:
    rho, count = _counted(rho)
    sol = solve_two_sided(rho, eps, x_j, target)
    solve_count = count[0]
    samples = reconstruct_field_potential(rho, eps, sol.x_left, sol.x_right, SAMPLES)
    digest = hashlib.sha256("".join(f"{x.hex()},{e.hex()},{u.hex()}\n"
                                    for x, e, u in samples).encode()).hexdigest()
    return (f"{_fields(sol)} rho={solve_count} samples={digest[:16]} "
            f"rho_samples={count[0] - solve_count}")


def _record(lines: list, prefix: str, solve) -> None:
    try:
        result = solve()
    except Exception as e:  # the panel records every outcome
        result = f"{type(e).__name__}: {e}"
    line = f"{prefix}: {result}"
    lines.append(line)
    print(line)


def main():
    si = get_material("Si")
    lines = []
    for n0, l_d, n_b in JUNCTIONS:
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        spec = JunctionSpec(material=si, profile=profile)
        targets = [("1e-9", 1e-9), ("1e-6", 1e-6), ("0.5", 0.5), ("V_bi", spec.v_bi),
                   ("V_bi+10", spec.v_bi + 10.0)]
        solves = [("one-sided paper", lambda t: _one_sided(ChargeProfile.paper(profile),
                                                           spec, t)),
                  ("one-sided net_magnitude",
                   lambda t: _one_sided(ChargeProfile.net_magnitude(profile), spec, t)),
                  ("two-sided net",
                   lambda t: _two_sided(ChargeProfile.net(profile), spec.eps, spec.x_j, t))]
        for label, target in targets:
            for name, solve in solves:
                _record(lines, f"{n0!r} {l_d!r} {n_b!r} {label}={target.hex()} {name}",
                        lambda: solve(target))
        grid = [0.5 + (spec.v_bi + 9.5) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        for order, targets in (("ascending", grid), ("descending", grid[::-1])):
            for model in ("paper", "net_magnitude"):
                make = getattr(ChargeProfile, model)
                _record(lines, f"{n0!r} {l_d!r} {n_b!r} {order} grid one-sided {model}",
                        lambda: _grid(make(profile), spec, targets))
    ge = get_material("Ge")
    for n0, l_d, n_b, target, t_si, t_ge in STACKED:
        profile = GaussianProfile(n0=n0, l_d=l_d, n_b=n_b)
        stack = HeteroStack(layers=((si, t_si), (ge, t_ge)))
        _record(lines, f"{n0!r} {l_d!r} {n_b!r} {target.hex()} Si {t_si!r} Ge {t_ge!r} "
                       f"two-sided net",
                lambda: _two_sided(ChargeProfile.net(profile), stack, junction_depth(profile),
                                   target))
    for n, k, d, scale, f, mirrored in LAYERS:
        target = f * Q * n * k * (k + 1.0) * d * d / (2.0 * LAYER_EPS)
        _record(lines, f"layer {n!r} {k!r} {d!r} {scale!r} f={f!r}"
                       f"{' mirrored' if mirrored else ''} two-sided",
                lambda: _two_sided(_layer(n, k, d, scale, mirrored), LAYER_EPS, LAYER_X_J, target))
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
