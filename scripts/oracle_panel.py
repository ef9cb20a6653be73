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
instead. A sha256 over all these lines follows them.

Last come the fuzz lines, each hashed on its own: per seed 11, 12 and 13,
1 500 two-sided net solves on junctions drawn across the acceptance
ranges, half of them in a Si/Ge stack whose Si layer ends between x_j and
3 x_j; then 300 two-sided solves on seeded layers of limited charge (seed
7) at a random fraction of the moment they hold. Each line gives the
count of each outcome, a sha256 prefix over the outcomes in order (the
exception's class and message, or the float.hex of every ScrSolution
field) and the charge-density evaluations of all its solves.

The last line gives the charge-density evaluations per operation of the
benchmark's oracle_verify workload over seeds 1-3, for its three phases:
the one-sided paper-model grid, the two-sided net-charge solve and its
reconstruction. Its junctions, grids and biases are drawn with
perfbench/inputs.py in the order the workload draws them, and the
two-sided target comes from junctionlab.solve, as there.

Takes no flags. Two versions of the oracle agree bit for bit where their
panels do; compare two runs with diff.
"""

import collections
import dataclasses
import hashlib
import random
import sys
from pathlib import Path

from junctionlab import (Bias, ChargeProfile, GaussianProfile, HeteroStack, JunctionSpec, Q,
                         ScrSolution, get_material, junction_depth,
                         reconstruct_field_potential, solve, solve_one_sided, solve_two_sided)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  (perfbench's seeded junctions and bias grids)

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
FUZZ_SEEDS, FUZZ_JUNCTIONS = (11, 12, 13), 1500
LAYER_SEED, SEEDED_LAYERS = 7, 300
# oracle_verify's seeds counted here, and its junctions per seed and grid points
ORACLE_SEEDS, ORACLE_JUNCTIONS, ORACLE_GRID = (1, 2, 3), 8, 41


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


def _layer(n: float, k: float, d: float, scale: float, mirrored: bool,
           x_j: float = LAYER_X_J) -> ChargeProfile:
    """q*n below x_j and -k*q*n on the d above it, 0 past that; or
    mirrored, k*q*n on the d below x_j, 0 above that, -q*n past it."""
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


def _fuzz(label: str, solves) -> str:
    """One line for a sequence of (rho, eps, x_j, target): the count of
    each outcome, a sha256 prefix over the outcomes and the total
    charge-density evaluations."""
    outcomes, digest, total = collections.Counter(), hashlib.sha256(), 0
    for rho, eps, x_j, target in solves:
        rho, count = _counted(rho)
        try:
            outcome = _fields(solve_two_sided(rho, eps, x_j, target))
            outcomes["root"] += 1
        except Exception as e:  # the panel records every outcome
            outcome = f"{type(e).__name__}: {e}"
            outcomes[type(e).__name__] += 1
        digest.update(f"{outcome}\n".encode())
        total += count[0]
    counts = " ".join(f"{name}={n}" for name, n in sorted(outcomes.items()))
    return f"{label}: {counts} outcomes={digest.hexdigest()[:16]} rho={total}"


def _fuzz_junctions(seed: int):
    """FUZZ_JUNCTIONS net-model solves across the acceptance ranges, half
    in a Si/Ge stack whose Si layer ends between x_j and 3 x_j."""
    si, ge = get_material("Si"), get_material("Ge")
    rng = random.Random(seed)
    for _ in range(FUZZ_JUNCTIONS):
        n_b = 10.0 ** rng.uniform(19, 23)
        profile = GaussianProfile(n0=n_b * 10.0 ** rng.uniform(1e-7, 7),
                                  l_d=10.0 ** rng.uniform(-8, -3), n_b=n_b)
        target = 10.0 ** rng.uniform(-6, 2)
        x_j = junction_depth(profile)
        eps = si.eps
        if rng.random() < 0.5:
            eps = HeteroStack(layers=((si, x_j * rng.uniform(1.0001, 3)),
                                      (ge, profile.l_d * rng.uniform(1, 100))))
        yield ChargeProfile.net(profile), eps, x_j, target


def _fuzz_layers():
    """SEEDED_LAYERS layers across 1e20-1e24 m^-3, k = 1-1000 and d = 1
    nm-1 um in Si, each at a fraction f of the moment its charge holds."""
    eps = get_material("Si").eps
    rng = random.Random(LAYER_SEED)
    for _ in range(SEEDED_LAYERS):
        n, k = 10.0 ** rng.uniform(20, 24), 10.0 ** rng.uniform(0, 3)
        d = 10.0 ** rng.uniform(-9, -6)
        x_j, f = k * d * rng.uniform(1.5, 10), rng.uniform(0.01, 0.99)
        target = f * Q * n * k * (k + 1.0) * d * d / (2.0 * eps)
        yield _layer(n, k, d, d, False, x_j), eps, x_j, target


def _oracle_verify_counts() -> str:
    """Rho evaluations per oracle_verify operation over ORACLE_SEEDS: the
    one-sided grid, the two-sided solve and the reconstruction."""
    si = get_material("Si")
    totals, ops = [0, 0, 0], 0
    for seed in ORACLE_SEEDS:
        rng = random.Random(seed)
        for _ in range(ORACLE_JUNCTIONS):
            j = inputs.draw_junction(rng, two_sided=True)
            grid = inputs.bias_grid(-rng.uniform(0.3, 0.5) * j.v_bi, 0.98 * j.v_max_reverse,
                                    ORACLE_GRID)
            v_two = inputs.bias_two_sided(rng, j)
            profile = GaussianProfile(n0=j.n0, l_d=j.l_d, n_b=j.n_b)
            spec = JunctionSpec(material=si, profile=profile)
            paper, count = _counted(ChargeProfile.paper(profile))
            for v in grid:
                solve_one_sided(paper, spec.eps, spec.x_j, spec.v_bi + v)
            totals[0] += count[0]
            net, count = _counted(ChargeProfile.net(profile))
            two = solve_two_sided(net, spec.eps, spec.x_j,
                                  solve(spec, Bias.from_signed(v_two)).total_potential)
            totals[1] += count[0]
            count[0] = 0
            reconstruct_field_potential(net, spec.eps, two.x_left, two.x_right, SAMPLES)
            totals[2] += count[0]
            ops += 1
    one, two, samples = (n / ops for n in totals)
    return (f"oracle_verify seeds={','.join(map(str, ORACLE_SEEDS))} rho per op: "
            f"one-sided {one:.1f} two-sided {two:.1f} reconstruction {samples:.1f}")


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
    for seed in FUZZ_SEEDS:
        print(_fuzz(f"fuzz seed={seed} junctions={FUZZ_JUNCTIONS} two-sided net",
                    _fuzz_junctions(seed)))
    print(_fuzz(f"fuzz seed={LAYER_SEED} layers={SEEDED_LAYERS} two-sided",
                _fuzz_layers()))
    print(_oracle_verify_counts())


if __name__ == "__main__":
    main()
