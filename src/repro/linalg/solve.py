"""Blocked triangular solves and a full pivoted linear solver.

Completes the LU story of §5: with :func:`repro.linalg.lu.lu_decompose`
producing a pivoted packed factor out of core, :func:`lu_solve` answers
``A x = b`` by permuting the right-hand side (``P b``) and running two
blocked substitution sweeps that stream one block row of the factor at
a time.  The right-hand side may be a vector or a (narrow) matrix of
columns; it rides along in memory while the factor streams from disk.
A right-hand side too wide for that — a stored matrix B, or the
identity behind ``inv(A)`` — goes through :func:`lu_solve_panels`, one
memory-sized column panel at a time against one factorization.

Block-row size is derived from the store's pool budget through the same
:func:`repro.core.costs.lu_panel_width` formula the factorization uses
(clamped to the tile side instead of raising — a substitution step only
ever holds one factor block plus the RHS), and every block row's tile
footprint is announced through ``pool.prefetch()`` before it is read,
per the storage stack's accounting contract: hints change the number
and size of device calls, never the block totals.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import lu_panel_width
from repro.storage import ArrayStore, TiledMatrix

from .lu import PackedLU


def _block_rows(packed: TiledMatrix, memory_scalars: int | None) -> int:
    """Block-row size for a substitution sweep, from the pool budget."""
    n = packed.shape[0]
    memory = memory_scalars or (packed.store.pool.capacity
                                * packed.store.scalars_per_block)
    return lu_panel_width(n, memory, packed.tile_shape[0])


def forward_substitute(packed: TiledMatrix, b: np.ndarray,
                       block: int | None = None,
                       unit_diagonal: bool = True,
                       memory_scalars: int | None = None) -> np.ndarray:
    """Solve L y = b with L the (unit-)lower triangle of ``packed``.

    ``block`` defaults to the pool-budget-derived block-row size; pass
    an explicit value only to pin the schedule (tests, ablations).
    """
    n = packed.shape[0]
    block = block or _block_rows(packed, memory_scalars)
    y = np.array(b, dtype=np.float64, copy=True)
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        # This block row touches the factor's columns [0, i1): announce
        # the exact tile footprint so the misses coalesce.
        packed.store.pool.prefetch(
            packed.submatrix_blocks(i0, i1, 0, i1))
        for j0 in range(0, i0, block):
            j1 = min(j0 + block, i0)
            l_ij = packed.read_submatrix(i0, i1, j0, j1)
            y[i0:i1] -= l_ij @ y[j0:j1]
        diag = packed.read_submatrix(i0, i1, i0, i1)
        l_ii = np.tril(diag, -1) + (np.eye(i1 - i0) if unit_diagonal
                                    else np.diag(np.diag(diag)))
        y[i0:i1] = np.linalg.solve(l_ii, y[i0:i1])
    return y


def backward_substitute(packed: TiledMatrix, y: np.ndarray,
                        block: int | None = None,
                        memory_scalars: int | None = None) -> np.ndarray:
    """Solve U x = y with U the upper triangle of ``packed``."""
    n = packed.shape[0]
    block = block or _block_rows(packed, memory_scalars)
    x = np.array(y, dtype=np.float64, copy=True)
    starts = list(range(0, n, block))
    for i0 in reversed(starts):
        i1 = min(i0 + block, n)
        packed.store.pool.prefetch(
            packed.submatrix_blocks(i0, i1, i0, n))
        for j0 in starts:
            if j0 <= i0:
                continue
            j1 = min(j0 + block, n)
            u_ij = packed.read_submatrix(i0, i1, j0, j1)
            x[i0:i1] -= u_ij @ x[j0:j1]
        u_ii = np.triu(packed.read_submatrix(i0, i1, i0, i1))
        x[i0:i1] = np.linalg.solve(u_ii, x[i0:i1])
    return x


def lu_solve_factored(factors: PackedLU, b: np.ndarray,
                      memory_scalars: int | None = None) -> np.ndarray:
    """Solve ``A x = b`` from an existing pivoted factorization.

    Applies the stored row permutation (``L U x = P b``), then the two
    substitution sweeps.  ``b`` may be ``(n,)`` or ``(n, k)``.
    """
    perm = factors.perm_array()
    pb = np.asarray(b, dtype=np.float64)[perm]
    y = forward_substitute(factors.packed, pb,
                           memory_scalars=memory_scalars)
    return backward_substitute(factors.packed, y,
                               memory_scalars=memory_scalars)


def lu_solve_panels(store: ArrayStore, a: TiledMatrix, k: int,
                    memory_scalars: int, rhs_panel) -> TiledMatrix:
    """Solve ``A X = B`` for an ``n x k`` right-hand side that is never
    whole in memory: factor ``a`` once, then substitute one
    memory-sized column panel at a time into a stored result.

    ``rhs_panel(j0, j1)`` supplies columns ``[j0, j1)`` of B as an
    ``(n, j1 - j0)`` array — a rectangle read off a stored B for
    ``solve(A, B)``, a slice of the identity for ``inv(A)``.  The
    panel width is :func:`repro.core.costs.lu_panel_width` on the
    result's tile width, the same budget the factorization honours.
    """
    from .lu import lu_decompose

    n = a.shape[0]
    factors = lu_decompose(store, a, memory_scalars)
    try:
        out = store.create_matrix((n, k), layout="square")
        pw = lu_panel_width(n, memory_scalars, out.tile_shape[1])
        for j0 in range(0, k, pw):
            out.write_submatrix(0, j0, lu_solve_factored(
                factors, rhs_panel(j0, min(j0 + pw, k)), memory_scalars))
        return out
    finally:
        factors.drop()


def lu_solve(store: ArrayStore, a: TiledMatrix, b: np.ndarray,
             memory_scalars: int | None = None) -> np.ndarray:
    """Solve ``A x = b`` by pivoted out-of-core LU + blocked substitution.

    Partial pivoting makes this correct for every nonsingular system —
    no diagonal-dominance assumption; an exactly singular ``a`` raises
    :class:`repro.linalg.lu.SingularMatrixError`.
    """
    from .lu import lu_decompose

    factors = lu_decompose(store, a, memory_scalars)
    try:
        return lu_solve_factored(factors, b, memory_scalars)
    finally:
        factors.drop()
