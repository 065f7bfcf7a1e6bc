"""Nonholonomic first-order Lagrangian field theory, numerically.

Constraint distributions, nonholonomic projectors, free and constrained
De Donder-Weyl solvers with form-level verification, and constrained
Cauchy (method-of-lines) evolution on periodic grids, including the
incompressible barotropic fluid scenario.
"""

from .cauchy import (
    CauchyState,
    evolve,
    sode_vector_field,
    tilde_eta_contract,
    tilde_omega_contract,
)
from .constraint import (
    ConstraintPoint,
    ConstraintSpec,
    chetaev_coefficients,
    constraint_form_eval,
    constraint_rank_check,
    make_constraint,
)
from .ddw import (
    DdwSolution,
    el_residual,
    nh_ddw_residual,
    nh_field_residual,
    project_connection,
    solve_constrained_ddw,
    solve_free_ddw,
)
from .exterior import TangentVector, eval_wedge_monomial
from .fluid import (
    FluidParams,
    fluid_lagrangian,
    fluid_quantities,
    null_lagrangian_residual,
    psi_divergence_residual,
)
from .jet import (
    ConnectionCoeffs,
    Dims,
    Jet2Point,
    JetPoint,
    contact_eval,
    semiholonomic_residual,
)
from .lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    derivative_bundle,
    make_model,
    omega_L_eval,
    regularity_check,
)
from .projector import (
    ProjectorPair,
    ZetaBasis,
    build_projectors,
    compatibility_matrix,
    solve_zeta,
)
from .verify import verify_points

__version__ = "0.1.0"
