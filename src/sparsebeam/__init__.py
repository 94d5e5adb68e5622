"""Sparse box-constrained optimal control of static Timoshenko beams.

Library layout:

    meshes        1D meshes, P0/P1 fields, quadrature, projections, L2
                  norms and cross-mesh differences
    fem           beam discretization (standard and locking-free), banded
                  operator and solves, mixed-formulation blocks
    control       cost functional, branch classification, complementarity,
                  multipliers
    problem       ControlProblem container tying the layers together, with
                  its cached operator and sparse optimality system
    ssn           semismooth Newton / primal-dual active set solver
    oracles       dense reduced operator, certified proximal-gradient
                  solver and finite-difference gradient check, independent
                  of ssn
    config        INI run configuration
    experiments   sweep / locking / convergence drivers
    cli           command-line interface

Importing the package loads none of them; import the modules you use.
"""

__version__ = "0.1.0"
