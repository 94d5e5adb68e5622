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
    config        INI run configuration
    experiments   sweep / locking / convergence drivers
    cli           command-line interface

Importing the package loads none of them; import the modules you use.
"""

__version__ = "0.1.0"
