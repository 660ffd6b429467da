"""Workloads from the paper plus realistic extras."""

from .example1 import (ENDPOINTS, SOURCE, expected_z, generate_points,
                       run_example1)
from .regression import RegressionProblem, generate_problem

__all__ = ["ENDPOINTS", "RegressionProblem", "SOURCE", "expected_z",
           "generate_points", "generate_problem", "run_example1"]
