"""Blocked out-of-core LU decomposition with partial pivoting.

§5 of the paper names LU decomposition as a first-class operator of the
RIOT expression algebra ("RIOT's expression algebra includes standard
linear algebra operations, such as matrix multiplication and LU
decomposition"); this module supplies the out-of-core implementation.

Right-looking blocked LU *with partial pivoting* (the LAPACK ``getrf``
schedule, out of core):

1. **Tall-panel factorization.**  The trailing column panel — all rows
   ``k0..n`` of the ``p`` panel columns — is read into memory and
   factored with row interchanges, choosing each pivot as the
   largest-magnitude candidate across the full trailing panel.  The
   panel must be resident because pivot choice is data-dependent; panel
   width comes from :func:`repro.core.costs.lu_panel_width` so one tall
   panel takes at most a third of the memory budget.
2. **Out-of-core row swaps.**  The panel's interchanges are then applied
   to every other column — the already-factored blocks on the left *and*
   the trailing submatrix on the right — one ``p``-wide strip at a time.
   For trailing strips the pass is fused with the triangular solve that
   produces U's row panel (``U[k, j] = inv(L_kk) @ A[k, j]``).
3. **Trailing update.**  ``A[i, j] -= L[i, k] @ U[k, j]`` one block pair
   at a time, announcing each step's footprint via ``pool.prefetch()``
   like every other kernel.

The result is a :class:`PackedLU`: the packed L\\U factor (unit-diagonal
L strictly below, U on and above the diagonal) plus the row permutation
stored alongside it in the tile store, satisfying ``P A = L U`` with
``(P A)[i] = A[perm[i]]``.  An exactly singular input (a pivot column
with no nonzero candidate) raises :class:`SingularMatrixError` instead
of the silent garbage or ``ZeroDivisionError`` of unpivoted Doolittle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import lu_panel_width, lu_tile_side
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

    Returns the pivot rows chosen per column, as *local* row offsets
    into the panel (LAPACK ``ipiv`` convention: column ``k`` swapped
    rows ``k`` and ``piv[k]``).  ``global_row0`` only labels the error.
    """
    rows, cols = panel.shape
    piv = np.empty(cols, dtype=np.int64)
    for k in range(cols):
        r = k + int(np.argmax(np.abs(panel[k:, k])))
        if panel[r, k] == 0.0:
            raise SingularMatrixError(
                f"matrix is exactly singular: column {global_row0 + k} "
                f"has no nonzero pivot candidate")
        piv[k] = r
        if r != k:
            panel[[k, r]] = panel[[r, k]]
        panel[k + 1:, k] /= panel[k, k]
        if k + 1 < cols:
            panel[k + 1:, k + 1:] -= np.outer(panel[k + 1:, k],
                                              panel[k, k + 1:])
    return piv


def _apply_swaps(strip: np.ndarray, piv: np.ndarray) -> None:
    """Apply a panel's interchanges (in order) to a row-aligned strip."""
    for k, r in enumerate(piv):
        if r != k:
            strip[[k, r]] = strip[[r, k]]


def lu_decompose(store: ArrayStore, a: TiledMatrix,
                 memory_scalars: int | None = None,
                 name: str | None = None) -> PackedLU:
    """Factor a square matrix into packed L\\U with partial pivoting.

    The input is copied (RIOT's pure-operator discipline: the old state
    of the array remains valid) into a working factor whose tile side
    is :func:`repro.core.costs.lu_tile_side` — the store's default when
    three tall panels of that width fit the budget, smaller when not —
    and the permutation is stored alongside the factor.  Raises
    :class:`ValueError` when the memory budget cannot hold even the
    minimum tall panel (one one-page tile column of full height,
    ``3 * n * tile_side`` scalars) — the budget is honored, never
    silently exceeded — and :class:`SingularMatrixError` on an exactly
    singular input.
    """
    n1, n2 = a.shape
    if n1 != n2:
        raise ValueError(f"LU requires a square matrix, got {a.shape}")
    n = n1
    memory = memory_scalars or (store.pool.capacity
                                * store.scalars_per_block)
    side = min(n, lu_tile_side(
        n, memory, store.device.block_size // a.dtype.itemsize,
        store.pool.capacity))
    if memory < 3 * n * side:
        raise ValueError(
            f"memory budget of {memory} scalars cannot hold a tall "
            f"pivot panel for n={n}: partial pivoting needs at least "
            f"3 * n * tile_side = {3 * n * side} scalars "
            f"(panel + strip + working frames)")
    out = store.create_matrix((n, n), tile_shape=(side, side),
                              name=name, dtype=a.dtype)
    # Panels are cut in multiples of the factor's own tile width, so
    # every panel and strip covers whole tiles.
    p = lu_panel_width(n, memory, out.tile_shape[1])
    # Copy in rectangles that are whole tiles of both matrices when
    # one side divides the other (any two default sides do).
    step_r = max(a.tile_shape[0], side)
    step_c = max(a.tile_shape[1], side)
    for r0 in range(0, n, step_r):
        r1 = min(r0 + step_r, n)
        for c0 in range(0, n, step_c):
            out.write_submatrix(r0, c0, a.read_submatrix(
                r0, r1, c0, min(c0 + step_c, n)))
    perm = np.arange(n, dtype=np.int64)
    try:
        for k0 in range(0, n, p):
            k1 = min(k0 + p, n)
            with store.tracer.span("lu:panel", cat="kernel", k0=k0, p=p):
                # 1. Tall-panel factorization with row interchanges.
                store.pool.prefetch(out.submatrix_blocks(k0, n, k0, k1))
                panel = out.read_submatrix(k0, n, k0, k1)
                piv = _panel_lu(panel, k0)
                out.write_submatrix(k0, k0, panel)
                _apply_swaps(perm[k0:n], piv)
                l_kk = np.tril(panel[: k1 - k0], -1) + np.eye(k1 - k0)
                # 2. Apply the interchanges out-of-core: the already-
                # factored left blocks get the swaps alone, trailing
                # strips fuse the swaps with the triangular solve for
                # U's row panel.
                strips = [(j0, min(j0 + p, k0), False)
                          for j0 in range(0, k0, p)]
                strips += [(j0, min(j0 + p, n), True)
                           for j0 in range(k1, n, p)]
                for j0, j1, trailing in strips:
                    store.pool.prefetch(
                        out.submatrix_blocks(k0, n, j0, j1))
                    strip = out.read_submatrix(k0, n, j0, j1)
                    _apply_swaps(strip, piv)
                    if trailing:
                        strip[: k1 - k0] = np.linalg.solve(
                            l_kk, strip[: k1 - k0])
                    out.write_submatrix(k0, j0, strip)
                # 3. Trailing update: A[i, j] -= L[i, k] @ U[k, j].
                for i0 in range(k1, n, p):
                    i1 = min(i0 + p, n)
                    l_ik = out.read_submatrix(i0, i1, k0, k1)
                    for j0 in range(k1, n, p):
                        j1 = min(j0 + p, n)
                        store.pool.prefetch(
                            out.submatrix_blocks(k0, k1, j0, j1)
                            + out.submatrix_blocks(i0, i1, j0, j1))
                        u_kj = out.read_submatrix(k0, k1, j0, j1)
                        block = out.read_submatrix(i0, i1, j0, j1)
                        out.write_submatrix(i0, j0, block - l_ik @ u_kj)
    except SingularMatrixError:
        # A singular input is a catchable, retryable condition: free
        # the half-built working factor instead of leaking its pages.
        out.drop()
        raise
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
