"""Out-of-core ordinary least squares — a motivating statistical workload.

The paper's introduction targets statisticians whose data outgrew memory;
OLS over a tall design matrix is the canonical such computation.  This
module solves the normal equations entirely on the tile store:

    beta = (X'X)^{-1} X'y

using the symmetric transpose-free crossprod kernel for X'X — with X'y
computed on the same scan of X as its side product — and the blocked
out-of-core *partial-pivoting* LU solver for the final system.  ``t(X)``
is never stored: the kernel reads X's tiles in their stored layout
and transposes each tile in memory, deleting the full extra disk pass
(read X + write t(X)) earlier versions paid before the first multiply
even started.  Pivoting means the solve is correct for any nonsingular
normal-equation matrix — ill-conditioned or nearly collinear designs
included — not just the diagonally dominant systems the unpivoted
Doolittle factorization could survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import crossprod_side_fits
from repro.linalg import crossprod_matmul, lu_solve, square_tile_matmul
from repro.storage import ArrayStore


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


def ols_out_of_core(problem: RegressionProblem,
                    memory_scalars: int = 96 * 1024,
                    block_size: int = 8192,
                    storage=None) -> tuple[np.ndarray, object]:
    """Solve the normal equations on a memory-capped tile store.

    Returns ``(beta_hat, io_stats)``.  X'X runs the symmetric
    :func:`repro.linalg.crossprod_matmul` (upper-triangular blocks only,
    mirrored on write) and X'y rides on the same scan of X as its side
    product — ``crossprod_matmul(..., side=[(y, xty)])``, the call the
    planner's shared ``crossprod`` operator makes — so X is read once
    for both, in its stored layout: no transposed copy of the design
    matrix ever touches the disk.  When y does not fit beside the
    crossprod's panel (:func:`repro.core.costs.crossprod_side_fits`),
    X'y is a separate ``trans_a``-flagged square-tile multiply, as the
    planner would lower it.  The final system goes through the pivoted
    :func:`repro.linalg.lu_solve`, so the design needs no conditioning
    tricks.

    ``storage`` (a :class:`~repro.storage.StorageConfig`) selects the
    backing device — a file backend makes the same block traffic cost
    real seconds; ``memory_scalars``/``block_size`` are derived from it
    when given.
    """
    if storage is not None:
        memory_scalars = storage.memory_bytes // 8
        store = ArrayStore(storage=storage)
    else:
        store = ArrayStore(memory_bytes=memory_scalars * 8,
                           block_size=block_size)
    x = store.matrix_from_numpy(problem.x, layout="square", name="X")
    y = store.matrix_from_numpy(problem.y.reshape(-1, 1),
                                layout="square", name="y")
    store.pool.clear()
    store.reset_stats()
    if crossprod_side_fits(memory_scalars, max(x.tile_shape), 1):
        xty = store.create_matrix((x.shape[1], 1), layout="square",
                                  name="Xty")
        xtx = crossprod_matmul(store, x, memory_scalars, name="XtX",
                               side=[(y, xty)])
    else:
        xtx = crossprod_matmul(store, x, memory_scalars, name="XtX")
        xty = square_tile_matmul(store, x, y, memory_scalars,
                                 name="Xty", trans_a=True)
    beta = lu_solve(store, xtx, xty.to_numpy().ravel(), memory_scalars)
    store.flush()
    return beta, store.device.stats
