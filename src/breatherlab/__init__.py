"""Numerical laboratory for breathers in weakly coupled anharmonic chains."""

from .potential import (ActionAngleChart, PotentialSpec, action_of_energy, build_chart,
                        from_cartesian, h0_of_action, omega0, to_cartesian)
from .lattice import LatticeState, check_skew, hamiltonian, norm, vector_field
from .integrate import flow
from .csvio import read_state, write_table

__all__ = [
    "ActionAngleChart", "PotentialSpec", "action_of_energy", "build_chart",
    "from_cartesian", "h0_of_action", "omega0", "to_cartesian",
    "LatticeState", "check_skew", "hamiltonian", "norm", "vector_field",
    "flow",
    "read_state", "write_table",
]
