"""moistflow: pseudo-spectral simulator for compressible moist-air channel
flow with warm-rain microphysics, Robin-wall homogenization, and a
contraction-mapping (Picard) time stepper."""

from .fields import (Grid, PhysConstants, ScalarField, State, load_field,
                     load_state, make_grid, positive_values, save_field,
                     save_state)
from .thermo import (latent_heat, mixed_gas_constant, mixed_heat_capacity,
                     moist_density, potential_temperature, pressure_values,
                     q_factor_values)
from .microphysics import (SaturationClosure, exchange_terms, source_values,
                           water_exchange_residual)
from .boundary import (BoundarySpec, BoundaryExtension, HomogenizationFactors,
                       VariableBoundary, build_extension, build_factors,
                       cutoff_chi0, dehomogenize, homogenize,
                       robin_profile, trace_norm_check)
from .spectral_ops import Basis, BasisPair, make_bases
from .solver import (PicardReport, Simulation, SolverConfig, StepRejected,
                     Trajectory)
from .diagnostics import DiagnosticsRow, DiagnosticsWriter, stability_probe
from .presets import perturb_state, preset_initial
from .cli import ConfigError, RunConfig, main, parse_config

__version__ = "0.1.0"
