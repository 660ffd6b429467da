"""Physical plans: trees of executable operators with costed choices.

The second stage of the optimizer.  The logical pass pipeline
(:mod:`repro.core.passes`) rewrites the expression DAG; the planner
(:mod:`repro.core.planner`) then lowers it to a :class:`PhysicalPlan` —
a DAG of :class:`PhysOp` nodes, each naming the concrete kernel or
access path that will run, the I/O the cost models predict for it, and
the alternatives that were enumerated and rejected.  The evaluator
executes plans op by op, recording the *measured* device blocks each
operator triggered next to its prediction — which is exactly what
``session.explain()`` prints.

Every op keeps a reference to the logical node it computes; execution
memoizes results by logical node, so shared subplans (CSE survivors)
run once.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .expr import COMPARISON_OPS, ELEMENTWISE_OPS, Map, Node, Range, Scalar


def _masked_assign(base, mask, value):
    """``base[mask] <- value`` elementwise: the logical-mask
    :class:`~repro.core.expr.SubscriptAssign`."""
    return np.where(np.asarray(mask, dtype=bool), value, base)


def _as_double(fn: Callable) -> Callable:
    """``fn`` with its logical result as R's 0/1 doubles."""
    return lambda *args: fn(*args).astype(np.float64)


#: Ufuncs whose every result is correctly rounded: computed into a
#: reused buffer (``out=``) by whichever loop, it has the same bits.
_EXACT_UFUNCS = frozenset([np.add, np.subtract, np.multiply, np.divide,
                           np.negative, np.absolute, np.floor, np.ceil,
                           np.sqrt, np.square])


def _step(node: Node, slot: dict[int, int]
          ) -> tuple[Callable, tuple[int, ...]]:
    """The tape step computing ``node``: its function and argument
    slots.  ``x ^ 2`` squares (R's ``R_POW`` rule, and what NumPy's
    ``**`` does): the same bits as ``np.power(x, 2.0)``, a third of the
    time."""
    args = tuple(slot[id(c)] for c in node.children)
    if not isinstance(node, Map):
        return _masked_assign, args
    if (node.op == "pow" and isinstance(node.children[1], Scalar)
            and node.children[1].value == 2.0):
        return np.square, args[:1]
    fn = ELEMENTWISE_OPS[node.op]
    return (_as_double(fn) if node.op in COMPARISON_OPS else fn), args


def _reusable(buffers: list[np.ndarray], operands: list
              ) -> np.ndarray | None:
    """A buffer from ``buffers`` that a float ufunc over ``operands``
    can write its result into, taken from the list; else None.  Only
    operands whose result type is plain: float arrays of one shape and
    dtype, beside Python numbers or scalars of that dtype."""
    arrays = [op for op in operands if type(op) is np.ndarray]
    if not arrays:
        return None
    shape, dtype = arrays[0].shape, arrays[0].dtype
    if dtype.kind != "f" or any(
            a.shape != shape or a.dtype != dtype for a in arrays[1:]):
        return None
    if any(type(op) is not np.ndarray and type(op) not in (float, int)
           and getattr(op, "dtype", None) != dtype for op in operands):
        return None
    for k, buf in enumerate(buffers):
        if buf.shape == shape and buf.dtype == dtype:
            return buffers.pop(k)
    return None


class Region:
    """An elementwise region compiled to a tape, built once by
    :func:`repro.core.planner.build_region`.

    Slots ``0 .. len(inputs) - 1`` hold the inputs, one per distinct
    node; tape step ``i`` is ``(ufunc, arg slots)`` and fills slot
    ``len(inputs) + i``, so an interior node is computed once per run
    however often it is used, and the last slot is the root's value.
    A run drops each slot after its last use, as a recursive walk
    would: a product epilogue's blocks are large.  An interior slot's
    array, once dead, is where a later step of the same run writes
    (``out=``), so a run allocates a few buffers, not one per step;
    an input's array is never written (a window of a stored vector is
    a read-only view of the buffer pool's pages).
    A comparison or logical step yields R's 0/1 doubles, as a stored
    logical would, so arithmetic may read it (``-(A > B)``).
    The inputs are barriers (computed by another operator — or, in a
    fused epilogue, the product whose resident block the kernel hands
    in), stored and generated leaves, and constants; ``sources`` are
    the array-valued barriers and stored leaves, what a run reads from
    storage.
    """

    def __init__(self, root: Node, inputs: list[Node],
                 interior: list[Node]) -> None:
        self.root = root
        self.inputs = tuple(inputs)
        self.nodes = self.inputs + tuple(interior)   # one per slot
        slot = {id(n): i for i, n in enumerate(self.nodes)}
        self.tape: tuple[tuple[Callable, tuple[int, ...]], ...] = tuple(
            _step(n, slot) for n in interior)
        last = {a: i for i, (_, args) in enumerate(self.tape)
                for a in args}
        self._dead = [[a for a, i in last.items() if i == step]
                      for step in range(len(self.tape))]
        self._exact = [fn in _EXACT_UFUNCS for fn, _ in self.tape]
        self.sources = tuple(n for n in inputs if n.ndim
                             and not isinstance(n, (Range, Scalar)))

    def run(self, read: Callable[[Node], object]):
        """The root's value, ``read(node)`` supplying each input's."""
        values = [read(n) for n in self.inputs]
        first_interior = len(values)
        free: list[np.ndarray] = []     # dead interior slots' arrays
        for (fn, args), dead, exact in zip(self.tape, self._dead,
                                           self._exact):
            operands = [values[a] for a in args]
            for a in dead:
                if a >= first_interior and type(values[a]) is np.ndarray:
                    free.append(values[a])
                values[a] = None
            out = _reusable(free, operands) if exact and free else None
            values.append(fn(*operands) if out is None
                          else fn(*operands, out=out))
        return values[-1]


class PhysOp:
    """One physical operator.

    ``predicted_io`` covers this operator's *own* work in device
    blocks (reading its inputs, writing its output) — children are
    costed by their own ops.  ``measured_io`` is the device-block
    delta the evaluator measured while this op ran.  Writes are
    attributed to the operator that triggered the device transfer, so
    a dirty block flushed during a later operator counts there; totals
    are exact, per-op splits are approximate.

    ``alternatives`` lists ``(label, predicted_io)`` pairs for the
    candidate strategies the planner enumerated and rejected.

    ``releases`` are the nodes this operator is the last reader of —
    its release point, set by the planner: once it has run, the
    evaluator drops their stored values.  An operator computing
    several nodes (a crossprod with side products) is released as a
    whole, at the last reader of any of them.

    ``cost_model`` names the :mod:`repro.core.costs` model that priced
    this operator (``None`` for leaves/constants) — the grouping key of
    :class:`repro.obs.CalibrationReport`.  ``cost_inputs`` carries the
    model's inputs (dimensions, tile counts, nnz, trans flags) so a
    drifted prediction is diagnosable from the explain transcript
    alone.  After execution the evaluator fills the full measurement
    trio: ``measured`` (an ``IOStats`` delta: blocks split seq/rand,
    bytes, syscalls, read/write ns), ``pool_measured`` (a ``PoolStats``
    delta) and ``wall_ns``; ``measured_io`` reads the plain block total
    off ``measured``.  Operators run one at a time, so each
    measurement is exclusive of every other operator's.
    """

    kind = "op"
    #: Name of the repro.core.costs model behind predicted_io, or None.
    cost_model: str | None = None

    def __init__(self, node: Node, children: tuple["PhysOp", ...] = (),
                 predicted_io: float = 0.0, detail: str = "",
                 alternatives: list[tuple[str, float]] | None = None,
                 region: Region | None = None) -> None:
        self.node = node
        self.children = tuple(children)
        #: The elementwise region this operator runs (streams, maps,
        #: reductions, fused epilogues), else None.  Its barriers and
        #: stored leaves are computed or held by ``children``.
        self.region = region
        self.predicted_io = float(predicted_io)
        self.detail = detail
        self.alternatives = list(alternatives or [])
        self.releases: tuple[Node, ...] = ()
        self.cost_inputs: dict[str, object] = {}
        self.measured = None       # IOStats delta once executed
        self.pool_measured = None  # PoolStats delta once executed
        self.wall_ns: int | None = None

    @property
    def measured_io(self) -> int | None:
        """Device blocks moved while this op ran, once executed."""
        return None if self.measured is None else self.measured.total

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Every logical node this operator computes — its own, plus
        any it shares a scan with (a crossprod's side products).  The
        evaluator memoizes one value per entry."""
        return (self.node,)

    def label(self) -> str:
        return self.kind + (f"[{self.detail}]" if self.detail else "")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.label()} ~{self.predicted_io:.0f} blk>"


class LeafOp(PhysOp):
    """A stored array: nothing to do, consumers read it."""

    kind = "input"

    def label(self) -> str:
        name = getattr(self.node, "name", "")
        return f"input:{name}" if name else "input"


class ScalarOp(PhysOp):
    kind = "const"

    def label(self) -> str:
        return f"const:{self.node.label()}"


class RangeOp(PhysOp):
    kind = "range"
    cost_model = "stream_io"


class MapOp(PhysOp):
    """A fused elementwise region (vector, scalar or tile-aligned
    matrix), run once per window, per tile, or once."""

    kind = "map"
    cost_model = "stream_io"

    def label(self) -> str:
        return f"map:{self.node.label()}" + (
            f"[{self.detail}]" if self.detail else "")


class GatherOp(PhysOp):
    kind = "gather"
    cost_model = "gather_io"


class ScatterOp(PhysOp):
    kind = "scatter"
    cost_model = "scatter_io"


class ReduceOp(PhysOp):
    """``sum`` / ``mean`` / ``min`` / ``max`` folded over the region of
    the reduced node, which is never stored."""

    kind = "reduce"
    cost_model = "stream_io"

    def label(self) -> str:
        return f"reduce:{self.node.op}"


class TileMatMulOp(PhysOp):
    """Dense Appendix-A square-tile multiply (flags transposed in
    memory)."""

    kind = "matmul.square"
    cost_model = "matmul_io"


class BnljOp(PhysOp):
    """The §3 block-nested-loop-join-inspired multiply."""

    kind = "matmul.bnlj"
    cost_model = "bnlj_io"


class CrossprodOp(PhysOp):
    """Symmetric ``t(A) %*% A`` — upper-triangular blocks only.

    ``side_nodes`` are ``MatMul(A, B_i, trans_a=True)`` nodes computed
    on the same scan of A (the planner's shared-scan rule): their B
    operands follow A among ``children``, and the op yields one value
    per entry of :attr:`nodes`.
    """

    kind = "crossprod"
    cost_model = "crossprod_io"

    def __init__(self, node: Node, children: tuple[PhysOp, ...] = (),
                 side_nodes: tuple[Node, ...] = (), **kwargs) -> None:
        super().__init__(node, children, **kwargs)
        self.side_nodes = tuple(side_nodes)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return (self.node, *self.side_nodes)


class SparseSpMMOp(PhysOp):
    kind = "matmul.spmm"
    cost_model = "spmm_io"


class SparseSpGEMMOp(PhysOp):
    kind = "matmul.spgemm"
    cost_model = "spgemm_io"


class LUSolveOp(PhysOp):
    """Pivoted out-of-core LU factorization + blocked substitution.

    ``in_place``: the operand dies here and is laid out as the working
    factor, so the factorization overwrites its tiles instead of a
    copy (:func:`repro.core.costs.lu_in_place`, proved by the
    planner)."""

    kind = "solve.lu"
    cost_model = "solve_io"
    in_place = False


class InverseOp(PhysOp):
    kind = "inverse.lu"
    cost_model = "inverse_io"
    in_place = False


class TransposeOp(PhysOp):
    """Explicit transpose materialization — the fallback disk pass the
    operand flags normally delete."""

    kind = "transpose.materialize"
    cost_model = "transpose_io"


class FusedEpilogueOp(PhysOp):
    """A product with its elementwise consumers fused in: the region is
    applied to each output submatrix while memory-resident, so the raw
    product never reaches disk.

    ``barrier`` is the MatMul/Crossprod logical node — the region's one
    barrier no child computes; its operands lead ``children``.
    """

    kind = "matmul+epilogue"
    cost_model = "matmul_epilogue_io"  # planner overrides per instance

    def __init__(self, node: Node, barrier: Node, **kwargs) -> None:
        super().__init__(node, **kwargs)
        self.barrier = barrier


class PhysicalPlan:
    """A lowered DAG: root operator plus bookkeeping for explain."""

    def __init__(self, logical_root: Node, root: PhysOp,
                 level: int) -> None:
        self.logical_root = logical_root
        self.root = root
        self.level = level
        self.executed = False

    # -- traversal -----------------------------------------------------
    def ops(self):
        """Yield each distinct operator once, children first."""
        seen: set[int] = set()

        def visit(op: PhysOp):
            if id(op) in seen:
                return
            seen.add(id(op))
            for c in op.children:
                yield from visit(c)
            yield op

        yield from visit(self.root)

    @property
    def total_predicted(self) -> float:
        return sum(op.predicted_io for op in self.ops())

    @property
    def total_measured(self) -> int | None:
        if not self.executed:
            return None
        return sum(op.measured_io or 0 for op in self.ops())

    # -- rendering -----------------------------------------------------
    def signature(self) -> str:
        """Compact one-line structural fingerprint for golden tests:
        operator kinds, details and tree shape — no cost numbers."""
        seen: set[int] = set()

        def visit(op: PhysOp) -> str:
            if id(op) in seen and op.children:
                return f"{op.label()}(shared)"
            seen.add(id(op))
            if not op.children:
                return op.label()
            inner = ", ".join(visit(c) for c in op.children)
            return f"{op.label()}({inner})"

        return visit(self.root)

    def render(self, analyze: bool = False,
               band: tuple[float, float] = (0.5, 2.0)) -> str:
        """Indented operator tree with predicted (and, once executed,
        measured) block I/O per operator.

        With ``analyze=True`` (after executing under the tracer) each
        measured operator additionally prints its full I/O delta
        (bytes, syscalls, read/write time), the buffer-pool behavior it
        triggered, wall-clock seconds, and the measured/predicted
        ratio — flagged with ``!!`` when it leaves ``band``, the
        0.5–2.0x range the cost models are validated against.
        """
        lines: list[str] = []
        seen: set[int] = set()

        def visit(op: PhysOp, indent: int) -> None:
            pad = "  " * indent
            label = f"{pad}{op.label()}"
            if id(op) in seen and op.children:
                lines.append(f"{label:<44} (shared)")
                return
            seen.add(id(op))
            cost = f"predicted ~{op.predicted_io:.1f} blk"
            if op.measured_io is not None:
                cost += f" | measured {op.measured_io} blk"
            lines.append(f"{label:<44} {cost}")
            if op.cost_inputs:
                inputs = " ".join(f"{k}={v}" for k, v
                                  in sorted(op.cost_inputs.items()))
                model = op.cost_model or "?"
                lines.append(f"{pad}  (cost: {model} {inputs})")
            if getattr(op, "in_place", False):
                lines.append(f"{pad}  (in place: factors its dying "
                             f"operand)")
            if analyze and op.measured_io is not None:
                self._render_measurement(lines, pad, op, band)
            for alt, io in op.alternatives:
                lines.append(f"{pad}  (rejected: {alt} "
                             f"~{io:.1f} blk)")
            for c in op.children:
                visit(c, indent + 1)

        visit(self.root, 0)
        total = f"total predicted ~{self.total_predicted:.1f} blk"
        if self.executed:
            total += f" | measured {self.total_measured} blk"
        lines.append(total)
        return "\n".join(lines)

    @staticmethod
    def _render_measurement(lines: list[str], pad: str, op: PhysOp,
                            band: tuple[float, float]) -> None:
        """Append the EXPLAIN ANALYZE detail lines for one operator."""
        io = op.measured
        if io is not None and io.total:
            lines.append(
                f"{pad}  io: {io.reads} rd / {io.writes} wr blk, "
                f"{io.bytes_read + io.bytes_written} bytes, "
                f"{io.syscalls} syscalls, "
                f"{io.seconds * 1e3:.3f} ms device")
        pool = op.pool_measured
        if pool is not None and pool.accesses:
            line = (f"{pad}  pool: {pool.hits} hits / "
                    f"{pool.misses} misses")
            if pool.prefetched:
                line += (f", {pool.prefetched} prefetched "
                         f"({pool.readahead_hits} hit, "
                         f"{pool.prefetch_wasted} wasted)")
            lines.append(line)
        if op.wall_ns is not None:
            wall = f"{pad}  wall: {op.wall_ns / 1e6:.3f} ms"
            if op.predicted_io > 0 and op.measured_io is not None:
                ratio = op.measured_io / op.predicted_io
                wall += f" | ratio {ratio:.2f}"
                if not band[0] <= ratio <= band[1]:
                    wall += (f" !! outside [{band[0]}, {band[1]}] "
                             f"validated band")
            lines.append(wall)
