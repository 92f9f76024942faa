"""Pure-state simulator for cavity-mediated entanglement-generation networks.

The package has five layers: dense state vectors over mixed-radix
registers (``qstate``), the optical element catalog (``elements``), the
single-photon pulse integrator (``iomodel``), scheme builders plus the
measurement loop and retry walk (``schemes``), and target states with
verification helpers (``verify``).  ``cli`` exposes the same machinery
as a command line tool.

The package root re-exports only the scheme builders and the entry points;
everything else is reached through its submodule.
"""

from .iomodel import (
    PulseParams,
    adiabatic_output_coefficients,
    flip_probability_sweep,
    integrate_pulse,
)
from .schemes import (
    RetryWalkParams,
    build_cluster_atoms,
    build_field_cz_pair,
    build_field_graph,
    build_ghz_atoms,
    build_ghz_fields,
    build_w3_deterministic,
    build_w3_probabilistic,
    build_w_pow2,
    propagate,
    retry_walk,
    retry_walk_mc,
    run,
)
from .verify import Graph, stabilizer_expectations

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "PulseParams",
    "RetryWalkParams",
    "adiabatic_output_coefficients",
    "build_cluster_atoms",
    "build_field_cz_pair",
    "build_field_graph",
    "build_ghz_atoms",
    "build_ghz_fields",
    "build_w3_deterministic",
    "build_w3_probabilistic",
    "build_w_pow2",
    "flip_probability_sweep",
    "integrate_pulse",
    "propagate",
    "retry_walk",
    "retry_walk_mc",
    "run",
    "stabilizer_expectations",
]
