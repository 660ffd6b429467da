"""Blocked out-of-core LU decomposition with partial pivoting.

§5 of the paper names LU decomposition as a first-class operator of the
RIOT expression algebra ("RIOT's expression algebra includes standard
linear algebra operations, such as matrix multiplication and LU
decomposition"); this module supplies the out-of-core implementation.

Right-looking blocked LU *with partial pivoting* (the LAPACK ``getrf``
schedule, out of core), run as :func:`repro.core.costs.lu_schedule`
states it — two steps per column panel, and each strip of the trailing
rows is read and written once per panel:

1. **Tall-panel factorization.**  The trailing column panel — all rows
   ``k0..n`` of the ``p`` panel columns — is read into memory and
   factored left-looking (Crout: per column one matrix-vector product
   brings it up to date, then the pivot search and swap, one more for
   U's row, then the scale), choosing each pivot as the
   largest-magnitude candidate across the full trailing panel.  The
   panel must be resident because pivot choice is data-dependent; panel
   width comes from :func:`repro.core.costs.lu_panel_width` so one tall
   panel takes at most a third of the memory budget.
2. **One pass over the other strips.**  While the panel stays resident,
   every other ``p``-wide strip of rows ``k0..n`` is read once: the
   panel's interchanges are applied as one row gather, and a trailing
   strip also gets U's row panel (``U[k, j] = inv(L_kk) @ A[k, j]``,
   one inverse per panel) and the update of the rows below
   (``A[i, j] -= L[i, k] @ U[k, j]``) before it is written back.  Each
   strip is one step of :func:`repro.core.parallel.run_steps`, which
   announces, reads and writes it as it does every dense kernel's.

A right-hand side may ride along (the solves of
:mod:`repro.linalg.solve`): each panel applies its gather, its
``inv(L_kk)`` and its update to the RHS rows in memory, as to a strip,
so what leaves the factorization is ``L^-1 P b`` and only the backward
sweep reads the factor afterwards.

:func:`lu_decompose` returns a :class:`PackedLU`: the packed L\\U factor
(unit-diagonal L strictly below, U on and above the diagonal) plus the
row permutation stored alongside it in the tile store, satisfying
``P A = L U`` with ``(P A)[i] = A[perm[i]]``.  The solves keep the
permutation in memory and store none.  An exactly singular input (a
pivot column with no nonzero candidate) raises
:class:`SingularMatrixError` instead of the silent garbage or
``ZeroDivisionError`` of unpivoted Doolittle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from repro.core.costs import (LUSchedule, cuts, lu_in_place,
                              lu_schedule, lu_tile_side)
from repro.core.parallel import Panel, Step, run_steps
from repro.storage import ArrayStore, TiledMatrix, TiledVector


class SingularMatrixError(ArithmeticError):
    """The matrix is exactly singular: no nonzero pivot candidate."""


@dataclass
class PackedLU:
    """A pivoted factorization living in the tile store.

    ``packed`` holds L (unit diagonal, strictly below) and U (on and
    above the diagonal) in place; ``perm`` is the row permutation as a
    stored vector, so the factorization is self-contained on disk:
    ``packed.to_numpy()[i] == (L @ U)[i]`` reconstructs row ``perm[i]``
    of the input.
    """

    packed: TiledMatrix
    perm: TiledVector

    @property
    def shape(self) -> tuple[int, int]:
        return self.packed.shape

    def perm_array(self) -> np.ndarray:
        """The permutation as 0-based integer row indices."""
        return self.perm.to_numpy().astype(np.int64)

    def drop(self) -> None:
        self.packed.drop()
        self.perm.drop()


def _panel_lu(panel: np.ndarray, global_row0: int) -> np.ndarray:
    """In-memory partial-pivot LU of a tall panel, packed in place.

    Left-looking (Crout): column ``k`` is brought up to date by one
    matrix-vector product with the columns already factored, its pivot
    is chosen and swapped in, U's row ``k`` is finished by a second
    product and the multipliers are scaled.  Returns the pivot rows
    chosen per column, as *local* row offsets into the panel (LAPACK
    ``ipiv`` convention: column ``k`` swapped rows ``k`` and
    ``piv[k]``).  ``global_row0`` only labels the error.
    """
    cols = panel.shape[1]
    piv = np.empty(cols, dtype=np.int64)
    for k in range(cols):
        if k:
            panel[k:, k] -= panel[k:, :k] @ panel[:k, k]
        r = k + int(np.argmax(np.abs(panel[k:, k])))
        if panel[r, k] == 0.0:
            raise SingularMatrixError(
                f"matrix is exactly singular: column {global_row0 + k} "
                f"has no nonzero pivot candidate")
        piv[k] = r
        if r != k:
            panel[[k, r]] = panel[[r, k]]
        if k and k + 1 < cols:
            panel[k, k + 1:] -= panel[k, :k] @ panel[:k, k + 1:]
        panel[k + 1:, k] /= panel[k, k]
    return piv


def _row_order(piv: np.ndarray, rows: int) -> np.ndarray:
    """The row order a panel's interchanges compose to: swapping rows
    ``k`` and ``piv[k]`` in turn leaves row ``i`` of a ``rows``-high
    strip holding what ``strip[order][i]`` reads."""
    order = np.arange(rows)
    for k, r in enumerate(piv):
        order[k], order[r] = order[r], order[k]
    return order


def _carry(rows: np.ndarray, order: np.ndarray, l_inv: np.ndarray,
           below: np.ndarray) -> np.ndarray:
    """A trailing strip's (or a riding RHS's) rows ``k0..n`` after one
    panel: the interchanges, U's rows ``inv(L_kk) @ A[k]`` and the
    update of the rows below by ``L_below @ U_top``."""
    rows = rows[order]
    w = l_inv.shape[0]
    rows[:w] = l_inv @ rows[:w]
    rows[w:] -= below @ rows[:w]
    return rows


def _schedule(store: ArrayStore, a: TiledMatrix,
              memory_scalars: int | None,
              tile: int | None = None) -> LUSchedule:
    """The LU schedule of ``a`` in ``memory_scalars`` (else the
    store's M) on ``tile``-sided tiles, by default the working
    factor's, so every panel and strip covers whole tiles."""
    n = a.shape[0]
    memory = memory_scalars or store.storage.memory_scalars
    return lu_schedule(n, memory, tile or lu_tile_side(
        n, memory, store.device.block_size // a.dtype.itemsize,
        store.pool.capacity))


def _factor(store: ArrayStore, a: TiledMatrix, memory_scalars: int | None,
            name: str | None = None, release=None,
            rhs: np.ndarray | None = None):
    """Factor ``a`` into a packed L\\U working factor; returns it, the
    row permutation as an in-memory array, and the callable that lets
    the factor go — its drop for a copy, ``release`` for ``a`` factored
    in place.  The one factor routine behind :func:`lu_decompose` and
    the solves: ``rhs`` (``(n,)`` or ``(n, k)``, float64) rides along
    and leaves as ``L^-1 P rhs``, updated in place.  Arguments and
    errors as in :func:`lu_decompose`.
    """
    n1, n2 = a.shape
    if n1 != n2:
        raise ValueError(f"LU requires a square matrix, got {a.shape}")
    n = n1
    plan = _schedule(store, a, memory_scalars)
    side = plan.tile
    if release is not None and lu_in_place(
            n, a.tile_shape, plan.memory,
            store.device.block_size // a.dtype.itemsize,
            store.pool.capacity):
        out, free = a, release
    else:
        out = store.create_matrix((n, n), tile_shape=(side, side),
                                  name=name, dtype=a.dtype)
        # Copy in rectangles that are whole tiles of both matrices
        # when one side divides the other (any two default sides do).
        for r0, r1 in cuts(n, max(a.tile_shape[0], side)):
            for c0, c1 in cuts(n, max(a.tile_shape[1], side)):
                out.write_submatrix(r0, c0,
                                    a.read_submatrix(r0, r1, c0, c1))
        free = out.drop
        if release is not None:     # A dies here, and is copied
            release()
    perm = np.arange(n, dtype=np.int64)
    # The panel's other steps reuse its factored columns, its row order
    # and inv(L_kk).
    panel = order = l_inv = None

    def compute(step, strip):
        nonlocal panel, order, l_inv
        k0, w = step.k0, step.k1 - step.k0
        if step.factors_panel:
            panel = strip
            order = _row_order(_panel_lu(panel, k0), n - k0)
            perm[k0:] = perm[k0:][order]
            l_inv = np.linalg.inv(np.tril(panel[:w], -1)
                                  + np.eye(w, dtype=panel.dtype))
            if rhs is not None:
                rhs[k0:] = _carry(rhs[k0:], order, l_inv, panel[w:])
        elif step.trailing:
            strip = _carry(strip, order, l_inv, panel[w:])
        else:
            strip = strip[order]
        return [(out, k0, step.j0, strip)]

    panels = (Panel("lu:panel", {"k0": k0, "p": plan.width},
                    (Step(((out, (s.k0, n, s.j0, s.j1), False),), s)
                     for s in steps))
              for k0, steps in groupby(plan.steps(), key=attrgetter("k0")))
    try:
        run_steps(store, panels, compute)
    except SingularMatrixError:
        # A singular input is a catchable, retryable condition: free
        # the half-built working factor instead of leaking its pages.
        free()
        raise
    return out, perm, free


def lu_decompose(store: ArrayStore, a: TiledMatrix,
                 memory_scalars: int | None = None,
                 name: str | None = None, release=None) -> PackedLU:
    """Factor a square matrix into packed L\\U with partial pivoting.

    The input is copied (RIOT's pure-operator discipline: the old state
    of the array remains valid) into a working factor whose tile side
    is :func:`repro.core.costs.lu_tile_side` — the store's default when
    three tall panels of that width fit the budget, smaller when not —
    and the permutation is stored alongside the factor.  A is copied
    unless the plan proves it dead: passing ``release`` says A dies in
    this call, and then A's own tiles are factored, with no copy,
    whenever they are laid out as the working factor would be
    (:func:`repro.core.costs.lu_in_place`); the packed factor is then
    A itself, and A's old values are gone.  The kernel never drops A:
    it calls ``release()`` — which drops A for its owner — once A is
    copied, or, factored in place, only if the factorization fails
    (else the factor it returns is A).  Raises
    :class:`ValueError` when the memory budget cannot hold even the
    minimum tall panel (one one-page tile column of full height,
    ``3 * n * tile_side`` scalars) — the budget is honored, never
    silently exceeded — and :class:`SingularMatrixError` on an exactly
    singular input.
    """
    out, perm, _ = _factor(store, a, memory_scalars, name, release)
    perm_vec = store.vector_from_numpy(perm.astype(np.float64),
                                       name=f"{out.name}_perm")
    return PackedLU(packed=out, perm=perm_vec)


def split_lu(store: ArrayStore, packed: PackedLU | TiledMatrix
             ) -> tuple[TiledMatrix, TiledMatrix]:
    """Unpack L (unit diagonal) and U from a packed factorization."""
    mat = packed.packed if isinstance(packed, PackedLU) else packed
    n = mat.shape[0]
    # On the factor's own grid: the loop below writes tile by tile.
    l_mat = store.create_matrix((n, n), tile_shape=mat.tile_shape,
                                dtype=mat.dtype)
    u_mat = store.create_matrix((n, n), tile_shape=mat.tile_shape,
                                dtype=mat.dtype)
    for ti, tj in mat.tiles():
        r0, r1, c0, c1 = mat.tile_bounds(ti, tj)
        block = mat.read_submatrix(r0, r1, c0, c1)
        l_block = np.zeros_like(block)
        u_block = np.zeros_like(block)
        if ti > tj:
            l_block = block
        elif ti < tj:
            u_block = block
        else:
            l_block = np.tril(block, -1) + np.eye(block.shape[0])
            u_block = np.triu(block)
        l_mat.write_submatrix(r0, c0, l_block)
        u_mat.write_submatrix(r0, c0, u_block)
    return l_mat, u_mat
