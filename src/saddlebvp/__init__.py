"""Saddle-point solvers for second-order discrete Dirichlet boundary value systems."""

__version__ = "0.1.0"

from .dependence import (DependenceReport, ParameterSequence, run_sequence, uniform_gap,
                         upper_limit_check)
from .expressions import ScalarField, compile_trees, differentiate, evaluate, parse, to_string
from .grid import (DirichletLaplacian, GridFunction, delta, embedding_constant,
                   embedding_estimate, h_norm, laplacian)
from .hypotheses import (BallRadii, GrowthCertificate, ball_radii, check_concavity_y,
                         check_convexity_x, fit_growth_certificate, verify_growth)
from .problem import (ParameterFunction, ProblemSpec, SaddleCandidate, action, grad,
                      load_problem, make_candidate, residual)
from .solvers import (SaddleSet, SolverConfig, extragradient, nested_minimax, newton,
                      product_distance, saddle_set, verify_saddle)

__all__ = [
    "BallRadii", "DependenceReport", "DirichletLaplacian", "GridFunction", "GrowthCertificate",
    "ParameterFunction", "ParameterSequence", "ProblemSpec", "SaddleCandidate", "SaddleSet",
    "ScalarField", "SolverConfig",
    "action", "ball_radii", "check_concavity_y", "check_convexity_x", "compile_trees", "delta",
    "differentiate", "embedding_constant", "embedding_estimate", "evaluate", "extragradient",
    "fit_growth_certificate", "grad", "h_norm", "laplacian", "load_problem", "make_candidate",
    "nested_minimax", "newton", "parse", "product_distance", "residual", "run_sequence",
    "saddle_set", "to_string", "uniform_gap", "upper_limit_check", "verify_growth",
    "verify_saddle",
]
