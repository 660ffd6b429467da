"""Out-of-core ordinary least squares — a motivating statistical workload.

The paper's introduction targets statisticians whose data outgrew memory;
OLS over a tall design matrix is the canonical such computation.  This
module draws synthetic instances; a session solves them as the statement
a user writes, ``session.solve(X.T @ X, X.T @ y)``, and its planner picks
the shared crossprod scan of X and the in-place pivoted LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RegressionProblem:
    """A synthetic y = X beta + noise instance."""

    x: np.ndarray
    y: np.ndarray
    beta_true: np.ndarray


def generate_problem(n_obs: int, n_feat: int, noise: float = 0.01,
                     seed: int = 0,
                     collinearity: float = 0.0) -> RegressionProblem:
    """Draw a synthetic OLS instance.

    ``collinearity`` in [0, 1) mixes each feature with a shared latent
    factor, driving X'X away from diagonal dominance toward
    near-singularity — the regime the pivoted solver handles and the
    old unpivoted factorization could not be trusted with.
    """
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(n_feat)
    x = rng.standard_normal((n_obs, n_feat))
    if collinearity:
        latent = rng.standard_normal(n_obs)
        x = ((1.0 - collinearity) * x
             + collinearity * latent[:, None])
    y = x @ beta + noise * rng.standard_normal(n_obs)
    return RegressionProblem(x, y, beta)
