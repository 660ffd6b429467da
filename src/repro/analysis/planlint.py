"""Static plan verification: reject infeasible plans before they run.

The kernels each defend their own preconditions deep inside execution
(each dense kernel's schedule in :mod:`repro.core.costs` refuses a
budget it cannot run in, ``spgemm`` k-grids that misalign...).  Those
guards fire mid-plan, after earlier operators have already burned I/O.
:func:`verify_plan` lifts them — by calling the schedule of each dense
operator's own kernel, so both refuse the same budgets in the same
words — plus shape conformability, kernel-pin legality,
epilogue-fusion legality, shared-scan legality (a crossprod's side
products), the tape of every elementwise region, release points and
in-place operands (lifetimes) and prediction sanity (each operator's
``predicted_io`` is its registered model re-run on its
``cost_inputs``, exactly) into one pre-execution walk over the
:class:`~repro.core.plan.PhysicalPlan`, with every error naming the
offending operator.

Wired into :meth:`repro.core.evaluator.Evaluator.execute` and
``session.explain()`` under ``OptimizerConfig(strict=True)``; the
golden-plan tests run it over every plan they snapshot.
"""

from __future__ import annotations

import math

from repro.core.costs import (COST_MODELS, bnlj_schedule,
                              crossprod_schedule, lu_schedule,
                              lu_tile_side, square_schedule)
from repro.core.expr import (ArrayInput, Crossprod, MatMul, Node, Range,
                             Scalar, Solve, walk)
from repro.core.plan import (BnljOp, CrossprodOp, FusedEpilogueOp,
                             InverseOp, LUSolveOp, PhysOp, PhysicalPlan,
                             SparseSpGEMMOp, SparseSpMMOp, TileMatMulOp,
                             TransposeOp)
from repro.storage import StorageConfig, default_tile_side


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


def _schedule(op: PhysOp, build, *args):
    """The schedule ``build(*args)``, its refusal raised as ``op``'s."""
    try:
        return build(*args)
    except ValueError as exc:
        _fail(op, str(exc))


def _check_schedule(op: PhysOp, node: Node, memory_scalars: int,
                    block_scalars: int, extra: int = 0) -> None:
    """The schedule of the kernel ``op`` runs ``node`` on — BNLJ,
    square tile or crossprod, with ``extra`` fused-epilogue inputs —
    exists in the budget, and a crossprod's largest pass fits it with
    its side products, which need an operand whose tiles are known at
    plan time (:func:`repro.core.costs.crossprod_side_fits`)."""
    from repro.core.planner import operand_tile_side
    block = max(1, block_scalars)

    def tile(c: Node) -> int:  # a stored operand's own, else the default
        return operand_tile_side(c) or default_tile_side(
            block, memory_scalars // block, c.shape)

    a = node.children[0]
    if isinstance(node, MatMul):
        (m, l), (_, n) = _effective_shapes(node)
        if isinstance(op, BnljOp):
            _schedule(op, bnlj_schedule, m, l, n, tile(node.children[1]),
                      memory_scalars)
        else:
            _schedule(op, square_schedule, m, l, n, tile(a),
                      memory_scalars, extra)
        return
    inner, k = a.shape if node.t_first else a.shape[::-1]
    sides = getattr(op, "side_nodes", ())
    if sides:
        _check_side_products(op)
        if operand_tile_side(a) is None:
            _fail(op, "side products ride on a stored operand only: "
                      "the schedule needs its tiles at plan time")
    schedule = _schedule(op, crossprod_schedule, inner, k, tile(a),
                         memory_scalars, extra)
    cols = sum(side.shape[1] for side in sides)
    peak = schedule.peak(cols)
    if peak > memory_scalars:
        _fail(op, f"side products of {cols} columns do not fit beside "
                  f"the crossprod schedule: its largest pass would hold "
                  f"{peak} scalars of a budget of {memory_scalars}")


def _check_side_products(op: CrossprodOp) -> None:
    """Each side product is ``t(A) %*% B`` over the crossprod's own
    operand, with B as tall as A."""
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
    _check_price(op)

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
        _check_schedule(op, node, memory_scalars, block_scalars)
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
        _check_schedule(op, node, memory_scalars, block_scalars)
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
        _schedule(op, lu_schedule, n, memory_scalars,
                  lu_tile_side(n, memory_scalars, max(1, block_scalars)))
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
        _check_schedule(op, op.barrier, memory_scalars, block_scalars,
                        len(op.region.sources) - 1)


def _check_price(op: PhysOp) -> None:
    """The prediction is its registered model called with the inputs
    ``explain`` prints, exactly; an operator with no model predicts
    nothing."""
    if op.cost_model is None:
        if op.predicted_io:
            _fail(op, f"predicts {op.predicted_io!r} blocks with no "
                      f"cost model")
        return
    if op.cost_model not in COST_MODELS:
        _fail(op, f"cost model {op.cost_model!r} is not registered in "
                  f"core.costs.COST_MODELS")
    try:
        io = COST_MODELS[op.cost_model](**op.cost_inputs)
    except TypeError as exc:
        _fail(op, f"cost inputs do not fit {op.cost_model}: {exc}")
    if io != op.predicted_io:
        _fail(op, f"predicted_io {op.predicted_io!r} is not "
                  f"{op.cost_model}(**cost_inputs) = {io!r}")


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


def verify_plan(plan: PhysicalPlan, storage: StorageConfig) -> None:
    """Statically verify a physical plan against the budget of a
    :class:`~repro.storage.config.StorageConfig` (its
    ``memory_scalars`` and ``block_scalars``).  Raises
    :class:`PlanVerificationError` naming the first offending operator;
    returns ``None`` on a verified plan.
    """
    for op in plan.ops():
        _verify_op(op, storage.memory_scalars, storage.block_scalars)
    _check_lifetimes(plan)


def _check_lifetimes(plan: PhysicalPlan) -> None:
    """Release points and in-place operands, in execution order: no
    operator reads a node its release point has passed, stored inputs
    and the plan's result are never released, and the operand an LU
    factors in place is computed by another operator and read by
    nothing else."""
    released: dict[int, PhysOp] = {}
    for op in plan.ops():
        for child in op.children:
            for n in child.nodes:
                if id(n) in released:
                    _fail(op, f"reads {n.label()} after its release "
                              f"point, {released[id(n)].label()}")
        for n in op.releases:
            if isinstance(n, ArrayInput) or n is plan.logical_root:
                _fail(op, f"releases {n.label()}, which outlives the "
                          f"plan (a stored input or the result)")
            released[id(n)] = op
        if getattr(op, "in_place", False):
            _check_in_place(plan, op)


def _check_in_place(plan: PhysicalPlan, op: PhysOp) -> None:
    from repro.core.planner import SQUARE_RESULTS
    a = op.node.children[0]
    readers = sum(c is a for n in walk(plan.logical_root)
                  for c in n.children)
    if readers != 1:
        _fail(op, f"factors {a.label()} in place, but {readers} "
                  f"operand slots read it")
    producer = next(c for c in op.children
                    if any(n is a for n in c.nodes))
    if not isinstance(producer, SQUARE_RESULTS):
        _fail(op, f"factors {a.label()} in place, but it is not a "
                  f"square-tiled result of another operator "
                  f"({producer.label()})")
