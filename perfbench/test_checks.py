"""Each benchmark check passes on the library's output and catches that
output perturbed by 1e-6 relative.

    python3 -m pytest perfbench/test_checks.py

Checks on CLI lines printed with 6 significant digits can only see a
perturbation that moves those digits; they are tested at 1e-5 relative.
The fit check has criterion 10's 1e-3 bound and is tested at 2e-3.
"""

import contextlib
import dataclasses
import io
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import reference as R  # noqa: E402
import workloads  # noqa: E402
from junctionlab import (ChargeProfile, GaussianProfile, JunctionSpec, cli,  # noqa: E402
                         deserialize, fit, get_material,
                         reconstruct_field_potential, serialize,
                         solve_one_sided, solve_two_sided, sweep)

SI = get_material("Si")
J = inputs.Junction(n0_cm3=1e18, nb_cm3=1e15, ld_um=10.0)   # the worked junction
BUMP = 1.0 + 1e-6


@pytest.fixture(scope="module")
def ref():
    return R.reference_for(J.n0, J.n_b, J.l_d)


@pytest.fixture(scope="module")
def spec():
    return JunctionSpec(material=SI, profile=GaussianProfile(n0=J.n0, l_d=J.l_d, n_b=J.n_b))


def _bumped(rows, i, k, factor=BUMP):
    rows = [list(r) for r in rows]
    rows[i][k] *= factor
    return [tuple(r) for r in rows]


def test_sweep_points(ref, spec):
    v_start, v_stop = -0.7 * J.v_bi, 0.95 * J.v_max_reverse
    grid = inputs.bias_grid(v_start, v_stop, 201)
    points = sweep(spec, v_start, v_stop, 201).points
    assert R.check_curve_points(ref, points, grid) == []
    for i in (0, 100, 200):
        for k in range(3):
            assert R.check_curve_points(ref, _bumped(points, i, k), grid), (i, k)


def test_round_trip(spec):
    curve = sweep(spec, -0.3, 10.0, 51)
    for fmt in ("csv", "json"):
        back = deserialize(serialize(curve, fmt), fmt)
        assert R.check_round_trip(curve, back, fmt) == []
        for k in range(3):
            bad = dataclasses.replace(back, points=tuple(_bumped(back.points, 7, k)))
            assert R.check_round_trip(curve, bad, fmt), (fmt, k)
    back = deserialize(serialize(curve, "json"), "json")
    echo = dataclasses.replace(back.spec_echo, v_bi=back.spec_echo.v_bi * BUMP)
    assert R.check_round_trip(curve, dataclasses.replace(back, spec_echo=echo), "json")


@pytest.mark.parametrize("v", [-0.5 * J.v_bi, 0.0, 0.98 * J.v_max_reverse])
def test_one_sided(ref, spec, v):
    target = spec.v_bi + v
    sol = solve_one_sided(ChargeProfile.paper(spec.profile), SI.eps, spec.x_j, target)
    assert R.check_one_sided(ref, spec.x_j, target, sol) == []
    for field in ("x_left", "x_right", "moment_value"):
        bad = dataclasses.replace(sol, **{field: getattr(sol, field) * BUMP})
        assert R.check_one_sided(ref, spec.x_j, target, bad), field


@pytest.fixture(scope="module")
def two_sided(spec):
    target = spec.v_bi + 10.0
    rho = ChargeProfile.net(spec.profile)
    sol = solve_two_sided(rho, SI.eps, spec.x_j, target)
    samples = reconstruct_field_potential(rho, SI.eps, sol.x_left, sol.x_right, 201)
    return target, sol, samples


def test_two_sided(ref, two_sided):
    target, sol, _ = two_sided
    args = (sol.x_left, sol.x_right, sol.moment_value)
    assert R.check_two_sided(ref, target, *args) == []
    for i in range(3):
        bad = list(args)
        bad[i] *= BUMP
        assert R.check_two_sided(ref, target, *bad), i


def test_profile(ref, two_sided):
    target, sol, samples = two_sided
    xl, xr = sol.x_left, sol.x_right
    assert R.check_profile(ref, target, xl, xr, samples, 201) == []
    peak = max(range(201), key=lambda i: abs(samples[i][1]))
    for k in range(3):
        assert R.check_profile(ref, target, xl, xr, _bumped(samples, peak, k), 201), k
        column = [tuple(x * BUMP if c == k else x for c, x in enumerate(s)) for s in samples]
        assert R.check_profile(ref, target, xl, xr, column, 201), k


def test_fit_recovery(ref):
    truth = (J.n0, J.l_d, float(ref.v_bi))
    assert R.fit_recovered(ref, *truth, True)
    assert not R.fit_recovered(ref, *truth, False)
    for i in range(3):
        bad = list(truth)
        bad[i] *= 1.0 + 2e-3
        assert not R.fit_recovered(ref, *bad, True), i


def test_fit_stall_reproduction():
    """The kept fault: the stall curve fits to a 'converged' wrong V_bi."""
    stall = R.reference_for(inputs.STALL_JUNCTION.n0, inputs.STALL_JUNCTION.n_b,
                            inputs.STALL_JUNCTION.l_d)
    grid = inputs.bias_grid(*inputs.STALL_SWEEP)
    data = inputs.measured_csv(grid, R.measured_curve(stall, grid))
    r = fit(deserialize(data, "csv"), SI, 300.0, inputs.STALL_JUNCTION.n_b, fit_vbi=True)
    assert r.converged and not R.fit_recovered(stall, r.n0_hat, r.ld_hat, r.vbi_hat, True)


# ---------------------------------------------------------------- CLI ----

@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    return workloads.CliCalls(1, str(workdir), env={})


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return workloads.CliResult(code, out.getvalue(), "")


def _swap_number(text, label, factor):
    """Reprint the number after `label` scaled by factor, same digits."""
    m = re.search(re.escape(label) + r"(\S+)", text)
    digits = len(m[1].replace(".", "").replace("-", "").split("e")[0].lstrip("0"))
    new = format(float(m[1]) * factor, f".{digits}g")
    assert new != m[1]
    return text[:m.start(1)] + new + text[m.end(1):]


def test_cli_solve(calls):
    v = 10.0
    r = _cli(["solve", *J.cli_flags(), "--bias", repr(v)])
    assert calls._check_solve(r, J, v) == (False, [])
    for label in ("x_j = ", "V_bi = ", "reverse < ", "total potential ", "W_SC = ",
                  "C_b = ", "nF/cm^2 ("):
        bad = workloads.CliResult(r.code, _swap_number(r.out, label, 1.0 + 1e-5), "")
        assert calls._check_solve(bad, J, v)[1], label


def test_cli_sweep(calls):
    v_start, v_stop = -0.3, 50.0
    r = _cli(["sweep", *J.cli_flags(), "--vstart", repr(v_start), "--vstop", repr(v_stop),
              "--steps", str(workloads.CLI_SWEEP_POINTS), "--out", calls.sweep_csv])
    assert calls._check_sweep(r, J, v_start, v_stop) == (False, [])
    lines = Path(calls.sweep_csv).read_text().splitlines()
    v, c, w = lines[50].split(",")
    lines[50] = ",".join([v, c, repr(float(w) * BUMP)])
    Path(calls.sweep_csv).write_text("\n".join(lines) + "\n")
    assert calls._check_sweep(r, J, v_start, v_stop)[1]


def test_cli_fit(calls):
    r = _cli(["fit", "--data", calls.stall_csv, "--nb", "1.1e15", "--fit-vbi"])
    assert calls._check_fit(r) == (True, [])
    good = r.out.replace("V_bi = 0.806652 V", "V_bi = 0.81082 V")
    good = good.replace("N0 = 3.78086e+18", "N0 = 3.8e+18").replace("L_d = 8.30038", "L_d = 8.3")
    assert calls._check_fit(workloads.CliResult(0, good, "")) == (False, [])
    no = good.replace("converged = yes", "converged = no")
    assert calls._check_fit(workloads.CliResult(3, no, "")) == (True, [])
    assert calls._check_fit(workloads.CliResult(0, no, ""))[1]


def test_cli_oracle(calls):
    v = 10.0
    r = _cli(["oracle", *J.cli_flags(), "--bias", repr(v), "--two-sided",
              "--emit-profile", calls.profile_csv])
    assert calls._check_oracle(r, J, v, two_sided=True) == (False, [])
    for label in ("closed-form W_SC = ", "numerical  W_SC = ", "net W_SC = "):
        bad = workloads.CliResult(r.code, _swap_number(r.out, label, BUMP), "")
        assert calls._check_oracle(bad, J, v, two_sided=True)[1], label
