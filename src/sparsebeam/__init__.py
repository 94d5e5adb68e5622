"""Sparse box-constrained optimal control of static Timoshenko beams.

Library layout:

    meshes        1D meshes, P0/P1 fields, quadrature, norms
    fem           beam discretization (standard and locking-free), solves,
                  mixed-formulation blocks, error norms
    control       cost functional, pointwise optimality machinery
    problem       ControlProblem container tying the layers together, with
                  its cached operator and optimality system
    ssn           semismooth Newton / primal-dual active set solver
    oracles       independent solvers for verification
    manufactured  exact solutions with symbolically derived loads
    config        INI run configuration
    experiments   sweep / locking / convergence drivers
    cli           command-line interface
"""
from .control import (
    ControlParams,
    CostBreakdown,
    MultiplierState,
    complementarity,
    cost,
    pointwise_optimal_control,
    reconstruct_multipliers,
    shrink,
    variational_inequality_residual,
)
from .fem import (
    LOCKING_FREE,
    SCHEMES,
    STANDARD,
    AdjointSolution,
    BeamOperator,
    BeamParams,
    LinearSolveError,
    LoadData,
    StateSolution,
    assemble_load,
    assemble_mixed_blocks,
    assemble_stiffness,
    condense_mixed_system,
    error_norms,
    recover_shear,
    solve_state,
)
from .manufactured import ManufacturedCase, balanced_family, from_fields, sine_family
from .meshes import (
    Mesh1D,
    P0Field,
    P1Field,
    build_uniform_mesh,
    eval_p1,
    l2_norm_p0,
    l2_norm_p1,
    p0_average,
    pi_h,
)
from .oracles import (
    OracleConfig,
    OracleResult,
    ReducedQuadratic,
    dense_kkt_solve,
    fd_gradient_check,
    prox_gradient_solve,
)
from .problem import ControlProblem
from .ssn import SSNConfig, SSNResult, kkt_residual, newton_system, residual, ssn_solve

__version__ = "0.1.0"
