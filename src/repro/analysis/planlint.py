"""Static plan verification: reject infeasible plans before they run.

The kernels each defend their own preconditions deep inside execution
(``square_tile_matmul`` raises when the budget cannot hold three panel
submatrices, ``lu_decompose`` when a tall panel does not fit, ``spgemm``
when k-grids misalign...).  Those guards fire mid-plan, after earlier
operators have already burned I/O.  :func:`verify_plan` lifts them —
plus shape conformability, kernel-pin legality, epilogue-fusion
legality, shared-scan legality (a crossprod's side products), the
tape of every elementwise region and prediction sanity — into one
pre-execution walk over the
:class:`~repro.core.plan.PhysicalPlan`, with every error naming the
offending operator.

Wired into :meth:`repro.core.evaluator.Evaluator.execute` and
``session.explain()`` under ``OptimizerConfig(strict=True)``; the
golden-plan tests run it over every plan they snapshot.
"""

from __future__ import annotations

import math

from repro.core.costs import COST_MODELS, crossprod_side_fits
from repro.core.expr import (Crossprod, MatMul, Node, Range, Scalar,
                             Solve)
from repro.core.plan import (BnljOp, CrossprodOp, FusedEpilogueOp,
                             InverseOp, LUSolveOp, PhysOp, PhysicalPlan,
                             SparseSpGEMMOp, SparseSpMMOp, TileMatMulOp,
                             TransposeOp)
from repro.storage import default_tile_side


class PlanVerificationError(ValueError):
    """A physical plan failed static verification; the message names
    the offending operator (``op.label()``) and the violated check."""


def _fail(op: PhysOp, message: str) -> None:
    raise PlanVerificationError(f"{op.label()}: {message}")


def _effective_shapes(node: MatMul) -> tuple[tuple[int, int],
                                             tuple[int, int]]:
    a, b = node.children
    sa = a.shape[::-1] if node.trans_a else a.shape
    sb = b.shape[::-1] if node.trans_b else b.shape
    return sa, sb


def _check_square_budget(op: PhysOp, operand: Node, panels: int,
                         memory_scalars: int, block_scalars: int,
                         what: str) -> None:
    """The Appendix-A feasibility check of ``_square_panel``, lifted.

    Mirrors the kernel's ragged fallback: below ``panels`` whole tiles
    the panel shrinks (unaligned) instead of failing, so the only
    infeasible budget is one that cannot hold ``panels`` scalars.
    """
    if memory_scalars < panels:
        _fail(op, f"memory budget of {memory_scalars} scalars cannot "
                  f"hold {panels} 1 x 1 submatrices for {what} "
                  f"(needs >= {panels} scalars)")


def _check_side_products(op: CrossprodOp, memory_scalars: int) -> None:
    """A crossprod carrying side products: each is ``t(A) %*% B`` over
    the crossprod's own operand with B as tall as A, and together they
    fit beside its panel — the rule the planner shared them by and the
    kernel would refuse them on."""
    from repro.core.planner import operand_tile_side
    a = op.node.children[0]
    if not op.node.t_first:
        _fail(op, "side products ride on t(A) %*% A only, not on a "
                  "tcrossprod")
    for side in op.side_nodes:
        if not (isinstance(side, MatMul) and side.trans_a
                and not side.trans_b):
            _fail(op, f"side product {side.label()} is not a "
                      f"t(a) %*% b MatMul (trans_a=True, trans_b=False)")
        if side.children[0] is not a:
            _fail(op, f"side product {side.label()} reads another "
                      f"operand than the crossprod's own")
        rows = side.children[1].shape[0]
        if rows != a.shape[0]:
            _fail(op, f"side operand has {rows} rows, the crossprod's "
                      f"operand {a.shape[0]}")
    cols = sum(side.shape[1] for side in op.side_nodes)
    if not crossprod_side_fits(memory_scalars, operand_tile_side(a), cols):
        _fail(op, f"side products of {cols} columns do not fit beside "
                  f"the crossprod panel in {memory_scalars} scalars "
                  f"(3p^2 + 2p*cols > M)")


def _sparse_stored(node: Node) -> bool:
    from repro.core.passes import sparse_stored
    return sparse_stored(node)


def _verify_op(op: PhysOp, memory_scalars: int,
               block_scalars: int) -> None:
    # -- prediction sanity (every operator) ----------------------------
    io = op.predicted_io
    if not math.isfinite(io):
        _fail(op, f"predicted_io is not finite ({io!r})")
    if io < 0:
        _fail(op, f"predicted_io is negative ({io!r})")
    if op.cost_model is not None and op.cost_model not in COST_MODELS:
        _fail(op, f"cost model {op.cost_model!r} is not registered in "
                  f"core.costs.COST_MODELS")

    node = op.node

    # -- dense products ------------------------------------------------
    if isinstance(op, (TileMatMulOp, BnljOp)):
        if not isinstance(node, MatMul):
            _fail(op, f"expects a MatMul node, got "
                      f"{type(node).__name__}")
        sa, sb = _effective_shapes(node)
        if sa[1] != sb[0]:
            _fail(op, f"non-conformable operands: {sa} x {sb}")
        if node.shape != (sa[0], sb[1]):
            _fail(op, f"output shape {node.shape} != {(sa[0], sb[1])} "
                      f"implied by its operands")
        if node.kernel == "sparse" and _sparse_stored(node.children[0]):
            _fail(op, "node is pinned kernel='sparse' with a "
                      "sparse-stored operand but lowered to a dense "
                      "kernel")
        if isinstance(op, BnljOp):
            need = sa[1] + sb[1]
            if memory_scalars < need:
                _fail(op, f"memory budget of {memory_scalars} scalars "
                          f"cannot hold one A row plus one result row "
                          f"(n2 + n3 = {need} scalars); the BNLJ "
                          f"schedule would overrun the pool")
        else:
            _check_square_budget(op, node.children[0], 3,
                                 memory_scalars, block_scalars,
                                 "square_tile_matmul")
        return

    if isinstance(op, CrossprodOp):
        if not isinstance(node, Crossprod):
            _fail(op, f"expects a Crossprod node, got "
                      f"{type(node).__name__}")
        a = node.children[0]
        inner, k = a.shape if node.t_first else a.shape[::-1]
        if node.shape != (k, k):
            _fail(op, f"output shape {node.shape} != {(k, k)} implied "
                      f"by its operand")
        _check_square_budget(op, a, 3, memory_scalars, block_scalars,
                             "crossprod_matmul")
        if op.side_nodes:
            _check_side_products(op, memory_scalars)
        return

    # -- sparse products (kernel-pin legality) -------------------------
    if isinstance(op, (SparseSpMMOp, SparseSpGEMMOp)):
        if not isinstance(node, MatMul):
            _fail(op, f"expects a MatMul node, got "
                      f"{type(node).__name__}")
        sa, sb = _effective_shapes(node)
        if sa[1] != sb[0]:
            _fail(op, f"non-conformable operands: {sa} x {sb}")
        if node.kernel == "dense":
            _fail(op, "node is pinned kernel='dense' but lowered to a "
                      "sparse kernel")
        a, b = node.children
        if not _sparse_stored(a):
            _fail(op, "left operand is not sparse-stored; the sparse "
                      "kernels require a stored SparseTiledMatrix")
        if isinstance(op, SparseSpGEMMOp):
            if not _sparse_stored(b):
                _fail(op, "spgemm requires both operands "
                          "sparse-stored; right operand is not")
            ta = getattr(getattr(a, "data", None), "tile_shape", None)
            tb = getattr(getattr(b, "data", None), "tile_shape", None)
            if ta and tb and ta[1] != tb[0]:
                _fail(op, f"k-grids must align: A tiles {ta} vs "
                          f"B tiles {tb}")
        return

    # -- LU-based operators --------------------------------------------
    if isinstance(op, (LUSolveOp, InverseOp)):
        a = node.children[0]
        if a.shape[0] != a.shape[1]:
            _fail(op, f"LU requires a square matrix, got {a.shape}")
        if isinstance(node, Solve):
            b = node.children[1]
            if b.shape[0] != a.shape[0]:
                _fail(op, f"right-hand side has {b.shape[0]} rows for "
                          f"a {a.shape[0]} x {a.shape[1]} system")
        n = a.shape[0]
        # The kernel's refusal: its working factor steps down to the
        # one-page tile before it gives up (costs.lu_tile_side).
        tile_w = min(n, default_tile_side(max(1, block_scalars)))
        need = 3 * n * tile_w
        if memory_scalars < need:
            _fail(op, f"memory budget of {memory_scalars} scalars "
                      f"cannot hold a tall LU panel of {n} x {tile_w} "
                      f"(needs >= {need} scalars)")
        return

    # -- transpose materialization -------------------------------------
    if isinstance(op, TransposeOp):
        child = node.children[0]
        if node.shape != child.shape[::-1]:
            _fail(op, f"output shape {node.shape} != transpose of "
                      f"operand shape {child.shape}")
        return

    # -- elementwise regions (maps, reductions, fused epilogues) -------
    if op.region is not None:
        _check_region(op)
    if isinstance(op, FusedEpilogueOp):
        from repro.core.planner import _barrier_fusable
        if not _barrier_fusable(op.barrier):
            _fail(op, "barrier is not fusable with a dense epilogue "
                      "(sparse-pinned or sparse-dispatched product)")
        panels = 2 + len(op.region.sources)
        _check_square_budget(op, op.barrier.children[0], panels,
                             memory_scalars, block_scalars,
                             "the fused epilogue")


def _check_region(op: PhysOp) -> None:
    """A region's tape reads only slots already defined; every input
    but a fused epilogue's product is a child operator's node; every
    array input of a matrix region has the region's shape."""
    region = op.region
    defined = len(region.inputs)
    for step, (_, args) in enumerate(region.tape):
        if any(not 0 <= a < defined + step for a in args):
            _fail(op, f"tape step {step} reads slot {max(args)} before "
                      f"it is defined")
    computed = {id(n) for child in op.children for n in child.nodes}
    free = [n for n in region.inputs
            if not isinstance(n, (Range, Scalar))
            and id(n) not in computed]
    product = [op.barrier] if isinstance(op, FusedEpilogueOp) else []
    if free != product:
        names = ", ".join(n.label() for n in free) or "none"
        _fail(op, f"region inputs computed by no child operator: "
                  f"{names}" + (" (an epilogue has exactly one: its "
                                "product)" if product else ""))
    if region.root.ndim == 2:
        for n in region.sources:
            if n.shape != region.root.shape:
                _fail(op, f"elementwise input shape {n.shape} != "
                          f"region shape {region.root.shape}")


def verify_plan(plan: PhysicalPlan, config=None, *,
                memory_scalars: int | None = None,
                block_scalars: int | None = None) -> None:
    """Statically verify a physical plan against a storage budget.

    ``config`` is a :class:`~repro.storage.config.StorageConfig` (the
    budget source); alternatively pass ``memory_scalars`` /
    ``block_scalars`` directly.  Raises
    :class:`PlanVerificationError` naming the first offending operator;
    returns ``None`` on a verified plan.
    """
    if memory_scalars is None:
        if config is None:
            raise TypeError(
                "verify_plan needs a StorageConfig or explicit "
                "memory_scalars/block_scalars")
        memory_scalars = config.memory_bytes // config.itemsize
    if block_scalars is None:
        block_scalars = (config.block_size // config.itemsize
                         if config is not None else 1024)
    for op in plan.ops():
        _verify_op(op, memory_scalars, block_scalars)
