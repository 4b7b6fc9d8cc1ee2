"""Hamiltonian dynamics on [0,1] as a boundary-value field problem.

Integrates Hamilton's equations with symplectic one-step maps, projects
solution curves to their boundary data in T*Q x T*Q, certifies that the
projected solution set is Lagrangian, computes the principal function of
endpoint pairs by Newton shooting, and analyzes momentum constraints with a
presymplectic constraint algorithm.
"""

__version__ = "0.1.0"

from .core import (
    BoundaryPoint,
    BoundaryTangent,
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    action_functional,
    alpha_eval,
    boundary_projection,
    el_pairing,
    el_residual,
    hamiltonian_vector_field,
    omega_eval,
)
from .integrators import (
    BlowUp,
    Completed,
    FlowResult,
    IntegratorConfig,
    NewtonFailure,
    energy_drift,
    flow_jacobian,
    integrate_flow,
    symplecticity_defect,
)
from .shooting import (
    BvpSolutionSet,
    ShootingConfig,
    classify_theory,
    generating_function_check,
    hamilton_principal_function,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_with_lagrangian_boundary,
)
from .verify import (
    IsotropyReport,
    isotropy_defect_bvp,
    isotropy_defect_flow,
)
from .constraints import (
    ConstraintSpec,
    ExtendedState,
    GotayReport,
    check_hamiltonian_descends,
    constrained_vector_field,
    extended_action,
    gotay_step,
    integrate_constrained,
    polar_constraint_residual,
    stability_check,
)
from .systems import (
    ExampleSystem,
    make_cotangent_lift,
    make_example,
    make_free_particle,
    make_lambda_family,
    make_pendulum,
    make_quartic,
    make_sphere_geodesics,
    topological_limit_study,
)
