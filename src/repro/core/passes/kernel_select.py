"""Sparse/dense kernel choice by the nnz-parameterized cost models
(§5 rule 8).

:func:`matmul_kernel_costs` is the comparison the physical planner
makes when it lowers a product at level 2: the matching sparse model
(``spgemm_io`` for sparse x sparse, ``spmm_io`` for sparse x dense,
each fed the operands' estimated nnz) against the dense Appendix-A
model clamped at the trivial floor of reading both operands and
writing the result once.
"""

from __future__ import annotations

from ..costs import (DEFAULT_TILE_SIDE, spgemm_model, spmm_model,
                     square_tile_matmul_io)
from ..expr import MatMul, Node
from .sparsity import sparse_stored, sparse_tile_shape


def clamped_dense_io(m: float, k: float, n: float, memory: float,
                     block: float, ratio: float = 1.0) -> float:
    """Appendix-A cost, clamped at the one-pass floor.

    The formula is asymptotic; at small sizes it drops below the
    trivial floor of reading both operands and writing the result
    once, so comparisons clamp it there.  ``ratio`` (the storage
    codec's compressed-byte ratio) scales both the formula and the
    floor — compression shrinks the one-pass traffic too.
    """
    return max(square_tile_matmul_io(m, k, n, memory, block, ratio),
               ratio * (m * k + k * n + m * n) / block)


def sparse_product_cost(a: Node, b: Node, dims: tuple[int, int, int],
                        memory: float, block: float) -> tuple[float, dict]:
    """Price the ``m x k x n`` product ``a %*% b`` (``a`` sparse-stored)
    on the sparse kernel its operands select; returns ``(blocks,
    cost_inputs)``.

    ``dims`` is the caller's own ``(m, k, n)``, so what is priced and
    recorded is what the caller lowers (the planner's are adjusted for
    operand flags, which the operand shapes do not show).  This is the
    one place that reads tile geometry off the operands: A's tile
    shape gives the row and inner sides, and for sparse x sparse B's
    own tile width gives the output column side (the two need not be
    stored on the same grid).  The inputs carry the memory budget and
    the panel geometry the model's schedule chose from it.
    """
    m, k, n = dims
    th, tk = sparse_tile_shape(a) or (DEFAULT_TILE_SIDE,) * 2
    inputs: dict = {"m": m, "k": k, "n": n, "nnz_a": a.estimated_nnz,
                    "memory": memory}
    if sparse_stored(b):
        tw = (sparse_tile_shape(b) or (tk, DEFAULT_TILE_SIDE))[1]
        inputs.update(nnz_b=b.estimated_nnz, tiles=(th, tk, tw))
        cost, geometry = spgemm_model(
            m, k, n, a.estimated_nnz, b.estimated_nnz, memory, block,
            tiles=(th, tk, tw))
    else:
        inputs["tiles"] = (th, tk)
        cost, geometry = spmm_model(m, k, n, a.estimated_nnz, memory,
                                    block, tiles=(th, tk))
    return cost, {**inputs, **geometry}


def matmul_kernel_costs(node: MatMul, memory: float,
                        block: float,
                        ratio: float = 1.0) -> dict[str, float] | None:
    """``{"sparse": blocks, "dense": blocks}`` for an eligible ``%*%``.

    Returns ``None`` when no sparse alternative exists: flagged
    operands (the sparse kernels have no flagged variants) or a dense
    left operand (no dense x sparse kernel exists; the evaluator
    densifies the right operand either way).
    """
    if node.trans_a or node.trans_b:
        return None
    a, b = node.children
    if not sparse_stored(a):
        return None
    m, k = a.shape
    n = b.shape[1]
    # Sparse tiles are not codec-compressed, so only the dense side
    # scales with the storage ratio.
    return {"sparse": sparse_product_cost(a, b, (m, k, n), memory,
                                          block)[0],
            "dense": clamped_dense_io(m, k, n, memory, block, ratio)}
