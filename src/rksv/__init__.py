"""Runge-Kutta spectral volume schemes for 1D scalar hyperbolic equations.

The package pairs a numerical solver (any-order SSP time stepping over
Gauss-Legendre or Radau control-volume subdivisions) with an exact integer
analyzer that classifies each scheme's stability and CFL requirement.
"""

from .mesh import BoundaryCondition, Mesh1D, SubdivisionRule, perturbed_mesh, uniform_mesh
from .quadrature import interpolatory_weights, right_radau_nodes
from .sv_space import Problem, SvState, error_norms, project_initial, reconstruct, snapshot_table
from .ssp_rk import RkTableau, integrate, rk_step, ssp_tableau
from .petrov_galerkin import (bilinear_ah, energy_norm, inner_star,
                              lagrange_interpolant, map_to_test, quadrature_residual)
from .matrix_transfer import (TransferReport, alpha_vector, error_transfer,
                              key_factor_table, render_table, stability_transfer)
from .harness import (ConvergenceTable, ExperimentConfig, NumericalError,
                      run_checks, run_convergence, run_solve)

__version__ = "0.1.0"
