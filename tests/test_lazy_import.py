"""No path of the package loads scipy or numpy.

The closed form and its C-V kernel `cv_points`, `sweep` and serialization
need neither. Nor does the oracle, which integrates by its own
Gauss-Kronrod rule and reconstructs the field from Chebyshev series, nor
the fit, which runs its own Levenberg-Marquardt: all in pure `math`. Each
probe runs its paths in a cold process, and together they cover every
library path and CLI subcommand; the control imports scipy itself to
show that the probe sees an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import junctionlab
from junctionlab import momentsolver

SRC = str(Path(__file__).resolve().parents[1] / "src")

WORKED = ["--n0", "1e18", "--nb", "1e15", "--ld", "10"]

# each run in a fresh interpreter; prints the heavy packages then loaded
CLOSED_FORM = """
import junctionlab as jl
from junctionlab import cli
si = jl.get_material("Si")
spec = jl.JunctionSpec(material=si,
                       profile=jl.GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21))
bias = jl.Bias.from_signed(10.0)
jl.solve(spec, bias)
jl.capacitance(spec, bias)
jl.validity_window(spec)
for regime in ("general", "shallow", "deep"):
    jl.cv_points(spec, [-0.3, 0.0, 10.0], regime)
curve = jl.sweep(spec, -0.3, 20.0, 21)
for fmt in ("csv", "json"):
    assert jl.deserialize(jl.serialize(curve, fmt), fmt).points == curve.points
jl.fit(curve, si, 300.0, 1e21, fit_vbi=True)
assert cli.main(["solve", *WORKED, "--bias", "10"]) == 0
assert cli.main(["sweep", *WORKED, "--vstart", "0", "--vstop", "20", "--steps", "11",
                 "--out", OUT]) == 0
assert cli.main(["fit", "--data", OUT, "--nb", "1e15", "--fit-vbi"]) == 0
assert cli.main(["materials"]) == 0
"""

SOLVER_INPUTS = """
import junctionlab as jl
from junctionlab import momentsolver
profile = jl.GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
for build in (momentsolver.ChargeProfile.paper, momentsolver.ChargeProfile.net,
              momentsolver.ChargeProfile.net_magnitude):
    build(profile)
momentsolver.HeteroStack(layers=((jl.get_material("Si"), 1e-3),))
"""

# the two-sided SCR of the worked junction at V_bi + 10 V, hard-coded so
# that no solve runs
RECONSTRUCTION = """
import junctionlab as jl
from junctionlab import momentsolver
profile = jl.GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
momentsolver.reconstruct_field_potential(momentsolver.ChargeProfile.net(profile),
                                         jl.get_material("Si").eps,
                                         2.4068829208113994e-05, 2.972455866256642e-05, 201)
"""

# one cold process through every oracle entry point on the worked junction
ORACLE = """
import math
import junctionlab as jl
from junctionlab import cli, momentsolver
si = jl.get_material("Si")
profile = jl.GaussianProfile(n0=1e24, l_d=1e-5, n_b=1e21)
spec = jl.JunctionSpec(material=si, profile=profile)
target = spec.v_bi + 10.0
paper = momentsolver.ChargeProfile.paper(profile)
momentsolver.solve_one_sided(paper, si.eps, spec.x_j, target)
momentsolver.solve_two_sided(momentsolver.ChargeProfile.net(profile), si.eps, spec.x_j, target)
momentsolver.moment_integral(paper, si.eps, spec.x_j, math.inf)
momentsolver.solve_hetero(momentsolver.HeteroStack(layers=((si, 1e-3),)), paper, spec.x_j,
                          target)
assert cli.main(["oracle", *WORKED, "--bias", "10", "--two-sided",
                 "--emit-profile", OUT]) == 0
"""

REPORT = """
import json, sys
print(json.dumps(sorted({"scipy", "numpy"} & set(sys.modules))))
"""


def _heavy_modules(body, tmp_path):
    script = f"WORKED = {WORKED!r}\nOUT = {str(tmp_path / 'c.csv')!r}\n" + body + REPORT
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_paths_load_no_scipy_or_numpy(tmp_path):
    assert _heavy_modules(CLOSED_FORM, tmp_path) == []


def test_momentsolver_import_loads_no_scipy_or_numpy(tmp_path):
    assert _heavy_modules(SOLVER_INPUTS, tmp_path) == []


def test_reconstruction_loads_no_scipy_or_numpy(tmp_path):
    assert _heavy_modules(RECONSTRUCTION, tmp_path) == []


def test_oracle_paths_load_no_scipy_or_numpy(tmp_path):
    assert _heavy_modules(ORACLE, tmp_path) == []


def test_probe_sees_an_import_of_scipy(tmp_path):
    # the control: the probes above would see an import of scipy
    assert "scipy" in _heavy_modules("import scipy.optimize\n", tmp_path)


LAZY_NAMES = ["ChargeProfile", "HeteroStack", "ScrSolution", "moment_integral",
              "reconstruct_field_potential", "solve_hetero", "solve_one_sided",
              "solve_two_sided"]


def _from_import(name):
    namespace = {}
    exec(f"from junctionlab import {name}", namespace)
    return namespace[name]


@pytest.mark.parametrize("name", LAZY_NAMES)
def test_lazy_name_is_the_momentsolver_object(name):
    expected = getattr(momentsolver, name)
    for resolve in (lambda: getattr(junctionlab, name), lambda: _from_import(name)):
        assert resolve() is expected


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        junctionlab.no_such_name
    assert not hasattr(junctionlab, "no_such_name")
