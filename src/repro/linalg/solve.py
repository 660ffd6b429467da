"""Blocked triangular solves and a full pivoted linear solver.

Completes the LU story of §5.  :func:`lu_solve` answers ``A x = b`` in
two steps: the right-hand side rides through the out-of-core pivoted
factorization (:mod:`repro.linalg.lu`), where each panel applies its
row interchanges, ``inv(L_kk)`` and update to the RHS rows in memory as
it does to a strip of the factor — so the forward substitution is done
when the factor is — and then one blocked backward sweep streams U one
block row at a time.  The row permutation never leaves memory.  The
right-hand side may be a vector or a (narrow) matrix of columns.  One
too wide for that — a stored matrix B, or the identity behind
``inv(A)`` — goes through :func:`lu_solve_panels`: its first
memory-sized column panel rides along the same way, and each later one
is permuted and substituted with both sweeps against the one
factorization.  :func:`lu_solve_factored` runs both sweeps against a
stored :class:`~repro.linalg.lu.PackedLU`.

The sweeps and a wide right-hand side's column panels are the LU
schedule's (:meth:`repro.core.costs.LUSchedule.sweep` and
``rhs_panels``); each block row of a sweep is one step of
:func:`repro.core.parallel.run_steps`.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import Panel, Step, run_steps
from repro.storage import ArrayStore, TiledMatrix, tile_shape_for_layout

from .lu import PackedLU, _factor, _schedule


def _sweep(packed: TiledMatrix, v: np.ndarray,
           memory_scalars: int | None, forward: bool,
           diagonal) -> np.ndarray:
    """One substitution sweep over ``packed``, block row by block row
    of the LU schedule.  A row is one step: it announces the row's
    exact tile footprint, reads its off-diagonal blocks and then its
    diagonal block, subtracts the products and solves against
    ``diagonal(the diagonal block)``."""
    x = np.array(v, dtype=np.float64, copy=True)

    def compute(tag, *blocks):
        (i0, i1, _, _), off = tag
        for (j0, j1), block in zip(off, blocks):
            x[i0:i1] -= block @ x[j0:j1]
        x[i0:i1] = np.linalg.solve(diagonal(blocks[-1]), x[i0:i1])

    sweep = _schedule(packed.store, packed, memory_scalars,
                      packed.tile_shape[0]).sweep(forward)
    run_steps(packed.store, [Panel(None, {}, (
        Step(tuple((packed, (*rect[:2], *cols), False)
                   for cols in [*off, rect[:2]]),
             (rect, off), ((packed, rect, False),))
        for rect, off in sweep))], compute)
    return x


def forward_substitute(packed: TiledMatrix, b: np.ndarray,
                       unit_diagonal: bool = True,
                       memory_scalars: int | None = None) -> np.ndarray:
    """Solve L y = b with L the (unit-)lower triangle of ``packed``."""
    return _sweep(packed, b, memory_scalars, True,
                  lambda d: np.tril(d, -1) + (np.eye(len(d)) if unit_diagonal
                                              else np.diag(np.diag(d))))


def backward_substitute(packed: TiledMatrix, y: np.ndarray,
                        memory_scalars: int | None = None) -> np.ndarray:
    """Solve U x = y with U the upper triangle of ``packed``."""
    return _sweep(packed, y, memory_scalars, False, np.triu)


def lu_solve_factored(factors: PackedLU, b: np.ndarray,
                      memory_scalars: int | None = None) -> np.ndarray:
    """Solve ``A x = b`` from an existing pivoted factorization.

    Applies the stored row permutation (``L U x = P b``), then the two
    substitution sweeps.  ``b`` may be ``(n,)`` or ``(n, k)``.
    """
    return _substitute(factors.packed, factors.perm_array(), b,
                       memory_scalars)


def _substitute(packed: TiledMatrix, perm: np.ndarray, b: np.ndarray,
                memory_scalars: int | None) -> np.ndarray:
    """Both sweeps for ``L U x = P b``, ``(P b)[i] = b[perm[i]]``."""
    pb = np.asarray(b, dtype=np.float64)[perm]
    y = forward_substitute(packed, pb, memory_scalars=memory_scalars)
    return backward_substitute(packed, y, memory_scalars=memory_scalars)


def _factor_carrying(store: ArrayStore, a: TiledMatrix, rhs: np.ndarray,
                     memory_scalars: int | None, release):
    """Factor ``a`` with ``rhs`` riding along, then run the backward
    sweep: returns the working factor, the permutation, the solution
    for ``rhs`` and the callable that lets the factor go, which the
    caller calls once."""
    y = np.array(rhs, dtype=np.float64)
    factor, perm, free = _factor(store, a, memory_scalars,
                                 release=release, rhs=y)
    try:
        return factor, perm, backward_substitute(
            factor, y, memory_scalars=memory_scalars), free
    except BaseException:
        free()
        raise


def lu_solve_panels(store: ArrayStore, a: TiledMatrix, k: int,
                    memory_scalars: int, rhs_panel,
                    release=None) -> TiledMatrix:
    """Solve ``A X = B`` for an ``n x k`` right-hand side that is never
    whole in memory, into a stored result.

    ``rhs_panel(j0, j1)`` supplies columns ``[j0, j1)`` of B as an
    ``(n, j1 - j0)`` array — a rectangle read off a stored B for
    ``solve(A, B)``, a slice of the identity for ``inv(A)``, in the
    schedule's ``rhs_panels`` on the result's tile width.
    The first panel is read before ``a`` is factored and rides through
    the factorization (:func:`lu_solve`); each later one is permuted
    and substituted against the one factor.  Passing ``release`` says A
    dies in this call, so the factorization may overwrite it
    (:func:`repro.linalg.lu.lu_decompose`).  The kernel calls it once:
    after the copy, for a copied factor; where it lets the factor go,
    for A factored in place; or when the factorization fails.
    """
    n = a.shape[0]
    _, tile_w = tile_shape_for_layout("square", (n, k),
                                      store.storage.block_scalars,
                                      store.pool.capacity)
    first, *rest = _schedule(store, a, memory_scalars).rhs_panels(k, tile_w)
    factor, perm, x, free = _factor_carrying(
        store, a, rhs_panel(*first), memory_scalars, release)
    out = store.create_matrix((n, k), layout="square")
    done = first[0]
    try:
        for j0, j1 in rest:
            out.write_submatrix(0, done, x)
            x = _substitute(factor, perm, rhs_panel(j0, j1),
                            memory_scalars)
            done = j0
    finally:
        free()
    # The last panel is written once the factor's frames are free.
    out.write_submatrix(0, done, x)
    return out


def lu_solve(store: ArrayStore, a: TiledMatrix, b: np.ndarray,
             memory_scalars: int | None = None,
             release=None) -> np.ndarray:
    """Solve ``A x = b`` by pivoted out-of-core LU with ``b`` riding
    along, then one blocked backward sweep.

    Partial pivoting makes this correct for every nonsingular system —
    no diagonal-dominance assumption; an exactly singular ``a`` raises
    :class:`repro.linalg.lu.SingularMatrixError`.  ``b`` may be
    ``(n,)`` or ``(n, k)``.  ``release`` as in
    :func:`lu_solve_panels`.
    """
    _, _, x, free = _factor_carrying(store, a, b, memory_scalars,
                                     release)
    free()
    return x
