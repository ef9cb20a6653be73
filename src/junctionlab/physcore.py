"""Physical constants and the material database.

Everything in this package works in SI units: meters, volts, F/m^2,
C/m^3, m^-3. Device-physics units (cm^-3, um) are converted exactly once
at the CLI boundary.
"""

import math
from dataclasses import dataclass

# CODATA / SI defined values
Q = 1.602176634e-19       # elementary charge, C
K_B = 1.380649e-23        # Boltzmann constant, J/K
EPS0 = 8.8541878128e-12   # vacuum permittivity, F/m


@dataclass(frozen=True)
class Material:
    """A homogeneous semiconductor: relative permittivity and intrinsic
    carrier concentration (m^-3) quoted at ``temp_ref`` kelvin. n_i^2 must
    be a positive finite float, since the built-in potential divides by it."""

    name: str
    eps_r: float
    n_i: float
    temp_ref: float

    def __post_init__(self):
        if not 1.0 < self.eps_r < math.inf:
            raise ValueError(f"eps_r must be finite and exceed 1, got {self.eps_r}")
        if not 0.0 < self.n_i < math.inf:
            raise ValueError(f"n_i must be finite and positive, got {self.n_i}")
        if not 0.0 < self.n_i * self.n_i < math.inf:
            raise ValueError(f"n_i^2 must be a positive finite float, got n_i = {self.n_i:g}")
        if not 0.0 < self.temp_ref < math.inf:
            raise ValueError(f"temp_ref must be finite and positive, got {self.temp_ref}")

    @property
    def eps(self) -> float:
        """Absolute permittivity eps0 * eps_r, F/m."""
        return EPS0 * self.eps_r


_BUILTINS = (
    Material("GaAs", 12.9, 2.1e12, 300.0),
    Material("Ge", 16.0, 2.4e19, 300.0),
    Material("Si", 11.7, 1.0e16, 300.0),
)


def builtin_materials() -> list[Material]:
    """Built-in material table, sorted by name. Content is fixed."""
    return list(_BUILTINS)


def get_material(name: str) -> Material:
    """Look up a builtin material by name."""
    for m in _BUILTINS:
        if m.name == name:
            return m
    raise KeyError(f"unknown material {name!r}; builtins: "
                   + ", ".join(m.name for m in _BUILTINS))


def thermal_voltage(temp: float) -> float:
    """k_B * T / q in volts. ``temp`` must be finite, positive kelvin."""
    if not 0.0 < temp < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {temp}")
    return K_B * temp / Q
