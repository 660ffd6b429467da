"""Plan executor: runs a :class:`PhysicalPlan` over the tile store.

Every evaluation is a plan.  :meth:`Evaluator.execute` walks the
plan's operators children first, so by the time an operator runs each
of its inputs is a lookup in the execution's memo (results keyed by
logical node) — no operator evaluates a node it was not handed.
:data:`Evaluator.OP_RUNNERS` is the one table from each
:class:`~repro.core.plan.PhysOp` subclass to the method that runs it;
which operator a node becomes (kernel, chain order, fuse or
materialize) was decided by the planner.  :meth:`Evaluator.force`
lowers a DAG at optimizer level 0 — as written, no choice enabled —
and executes that.

What the operators do, following §5:

- **Fused elementwise regions.**  Every elementwise expression is a
  :class:`~repro.core.plan.Region` tape the planner built once;
  :meth:`Region.run` evaluates it per prefetch window of vectors, per
  matrix tile, or per resident product block.  No intermediate array
  is ever stored — the loop fusion the paper says a hand-coder would
  write — and a shared leaf or subexpression is read or computed once.
- **Gather for subscripts.**  After the pushdown pass has moved
  subscripts to the leaves, ``x[s]`` touches only the chunks containing
  the selected elements (selective evaluation).  Without it the source
  is its own operator and is stored first — the exact cost difference
  the Figure-2 ablation bench measures.
- **Out-of-core matmul.**  Products run the Appendix-A square-tile
  algorithm, BNLJ or a sparse kernel, as planned.  Transposed operand
  flags stream the stored tiles and transpose them in memory;
  ``Crossprod`` runs the symmetric output-stationary schedule, and
  computes any ``t(X) %*% B`` the planner paired with it on the same
  scan of X — one operator, one memo entry per node it computes.
- **Fused matmul epilogues.**  A matrix region fed by exactly one
  MatMul/Crossprod (``alpha * (A %*% B) + C``) runs *inside* the
  multiply as an epilogue callback on each output submatrix while it
  is still memory-resident, written once — the raw product never
  reaches disk.
- **Streaming reductions** fold a region's windows or tiles without
  materializing it.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.linalg.matmul import (bnlj_matmul, crossprod_matmul,
                                 square_tile_matmul)
from repro.storage import ArrayStore, TiledMatrix, TiledVector
from repro.storage.tile_store import stream_window

from .config import OptimizerConfig
from .expr import Crossprod, Node, Range, Scalar
from .parallel import Panel, Step, read, run_steps
from .plan import (BnljOp, CrossprodOp, FusedEpilogueOp, GatherOp,
                   InverseOp, LeafOp, LUSolveOp, MapOp, PhysOp,
                   PhysicalPlan, RangeOp, ReduceOp, Region, ScalarOp,
                   ScatterOp, SparseSpGEMMOp, SparseSpMMOp, TileMatMulOp,
                   TransposeOp)
from .planner import Planner


class MissingInputError(RuntimeError):
    """An operator ran before one of its inputs was computed."""


class Evaluator:
    """Evaluates DAG nodes to tiled arrays / scalars over an ArrayStore.

    Its settings come from the store's
    :class:`~repro.storage.StorageConfig` — the kernels' budget is its
    ``memory_scalars`` — and from ``config``
    (:class:`~repro.core.config.OptimizerConfig`, default when
    ``None``): ``strict`` runs
    :func:`repro.analysis.planlint.verify_plan` before every
    :meth:`execute`.  Every kernel runs on the calling thread.
    """

    def __init__(self, store: ArrayStore,
                 config: OptimizerConfig | None = None) -> None:
        config = config if config is not None else OptimizerConfig()
        self.store = store
        self.memory_scalars = store.storage.memory_scalars
        self.strict = config.strict
        # Sparse matrix -> its dense twin, so a sparse object consumed
        # by several dense-only contexts is converted (read fully +
        # written as dense tiles) once, not once per consumer.
        self._densified_cache: dict[int, tuple[object, object]] = {}
        # Matrices stored only to hand an operand to a dense kernel —
        # dense twins and coerced NumPy values — dropped when the
        # execution that made them ends.
        self._transients: list[TiledMatrix] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def force(self, node: Node):
        """Evaluate ``node`` as written; returns TiledVector/TiledMatrix
        or float.

        The DAG is lowered at optimizer level 0 — program order,
        type-driven kernels, no fusion, nothing rewritten — and the
        plan executed like any other.
        """
        planner = Planner(OptimizerConfig(level=0), self.store.storage)
        return self.execute(planner.plan(node))

    # ------------------------------------------------------------------
    # Physical-plan execution
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan, *, cold: bool = False):
        """Execute a :class:`PhysicalPlan` operator by operator.

        Children run before their parents; results are memoized by
        logical node in a memo this execution owns, so shared
        subplans run once per execution.  Around each
        operator's own work the device and pool counters are sampled
        and the full deltas recorded — ``op.measured`` (IOStats:
        blocks, bytes, syscalls, read/write ns), ``op.pool_measured``
        (PoolStats) and ``op.wall_ns``; ``op.measured_io``, the plain
        block total ``session.explain()`` prints next to the
        prediction, reads off ``op.measured``.  When the store's
        tracer is enabled each op is also bracketed in a span.

        ``cold=True`` measures under the cost models' own assumptions
        (EXPLAIN ANALYZE semantics): the decoded-tile cache and the
        pool are flushed and emptied first so inputs are read from the
        device rather than served from residue of earlier work, and the
        trailing write-back of pending codec tiles and dirty output
        frames is flushed and charged to the root operator — the same
        protocol the cost-agreement tests use, so measured/predicted
        ratios are comparable to the validated 0.5–2.0x band.  (Writes
        are charged to the operator that triggered the device transfer:
        a dirty block evicted during a later operator counts there.
        Totals are exact, per-op splits approximate.)

        Operators run one at a time, warm or cold, so the per-op
        deltas are exclusive and sum field for field to the session
        totals.
        """
        if self.strict:
            # Imported lazily: repro.analysis depends on repro.core,
            # not the other way around.
            from repro.analysis.planlint import verify_plan
            verify_plan(plan, self.store.storage)
        for op in plan.ops():
            op.measured = None
            op.pool_measured = None
            op.wall_ns = None
        if cold:
            self.store.tile_cache.clear()
            self.store.pool.clear()
        memo: dict[int, object] = {}
        with self.store.tracer.span(
                f"execute:level{plan.level}", cat="session"):
            try:
                for op in plan.ops():
                    self._keep(op, self._measured_op(op, memo), memo)
                    for node in op.releases:
                        self._drop(node, memo)
            except BaseException:
                # A failed execution keeps nothing it computed.
                for op in plan.ops():
                    if not isinstance(op, (LeafOp, ScalarOp)):
                        for node in op.nodes:
                            self._drop(node, memo)
                raise
            finally:
                self._drop_transients()
            if cold:
                self._flush_into_root(plan.root)
        plan.executed = True
        return memo[id(plan.root.node)]

    @staticmethod
    def _drop(node: Node, memo: dict[int, object]) -> None:
        """The one place a value the plan computed is dropped: it
        leaves the memo, and a stored one is dropped, discarding its
        dirty frames unwritten.  A second call for the same node finds
        nothing, so each value is dropped once: after the operator
        that releases it (``op.releases``, set by the planner), or
        inside that operator once its kernel holds the last of it in
        memory — a dying right-hand side at its read, an LU's operand
        through ``release`` — or when the execution fails."""
        drop = getattr(memo.pop(id(node), None), "drop", None)
        if drop is not None:
            drop()

    def _drop_transients(self) -> None:
        """End of an execution: drop its dense twins and coerced
        operands.  The twin cache de-duplicates conversions *within*
        one execution only, so a long session never pins the sparse
        operands it densified — not even the last evaluation's."""
        for mat in self._transients:
            mat.drop()
        self._transients.clear()
        self._densified_cache.clear()

    def _flush_into_root(self, root: PhysOp) -> None:
        """Flush the store, charging the write-back to the root op.

        The cost models price an operator's output *writes*; under
        write-back caching those blocks may still sit dirty in the pool
        when execution ends, and a codec result's tiles may still be
        pending, not yet encoded.  The store's flush encodes those,
        then writes every dirty frame; folding it into the root's delta
        keeps per-op sums equal to the session totals over the whole
        (cold) execution window.
        """
        _, io, pool, wall_ns = self._measured(self.store.flush)
        if root.measured is not None:
            root.measured = root.measured.merged(io)
        if root.pool_measured is not None:
            root.pool_measured = root.pool_measured.merged(pool)
        if root.wall_ns is not None:
            root.wall_ns += wall_ns

    def _measured(self, work):
        """Run ``work()`` between samples of the device counters, the
        pool counters and the clock; returns ``(result, I/O delta, pool
        delta, wall ns)``."""
        io_before = self.store.device.stats.snapshot()
        pool_before = self.store.pool.stats.snapshot()
        start_ns = time.perf_counter_ns()
        result = work()
        wall_ns = time.perf_counter_ns() - start_ns
        return (result, self.store.device.stats.delta(io_before),
                self.store.pool.stats.delta(pool_before), wall_ns)

    def _measured_op(self, op: PhysOp, memo: dict[int, object]):
        """Run one operator's own work (children already done) inside
        its span, record its I/O / pool / wall deltas on it and return
        its result.

        One operator at a time makes the deltas sum exactly to the
        session totals — the invariant the obs hypothesis test asserts
        on random DAGs.
        """
        def work():
            with self.store.tracer.span(op.label(), cat="op"):
                return self._dispatch_op(op, memo)

        result, op.measured, op.pool_measured, op.wall_ns = \
            self._measured(work)
        return result

    def _dispatch_op(self, op: PhysOp, memo: dict[int, object]):
        """Run one operator's own work (inputs already in ``memo``)."""
        return self.OP_RUNNERS[type(op)](self, op, memo)

    @staticmethod
    def _keep(op: PhysOp, result, memo: dict[int, object]) -> None:
        """Memoize an operator's result under every logical node it
        computes: one value, or one per entry of ``op.nodes`` when the
        operator computes several (a crossprod with side products)."""
        nodes = op.nodes
        for node, value in zip(nodes,
                               result if len(nodes) > 1 else (result,)):
            memo[id(node)] = value

    @staticmethod
    def _input(node: Node, memo: dict[int, object]):
        """The computed value of an operator's input node."""
        try:
            return memo[id(node)]
        except KeyError:
            raise MissingInputError(
                f"input {node.label()} has not been computed: "
                "operators run children first and never evaluate a "
                "node themselves") from None

    def _run_leaf(self, op: LeafOp, memo: dict[int, object]):
        return op.node.data

    def _run_scalar(self, op: ScalarOp, memo: dict[int, object]):
        return op.node.value

    def _run_map(self, op: MapOp | RangeOp, memo: dict[int, object]):
        """A region's values: streamed into a new vector window by
        window, into a new matrix tile by tile, or one number."""
        region = op.region
        values = self._region_values(region, memo)
        if region.root.ndim == 0:
            return float(region.run(lambda n: values[id(n)]))
        if region.root.ndim == 1:
            grid = None
            out = self.store.create_vector(region.root.shape[0])
        else:
            grid = self._grid(region, values)
            out = self.store.create_matrix(
                region.root.shape, tile_shape=grid.tile_shape,
                linearization=grid.linearization.name)
        # The tape's result is this window's or tile's own array.
        self._stream(region, values, lambda part, result: [
            (out, part[0], part[2] if grid is not None else 0, result)],
            grid)
        return out

    # ------------------------------------------------------------------
    # Matrix multiplication (dense and sparse kernels)
    # ------------------------------------------------------------------
    def _run_matmul(self, op: TileMatMulOp | BnljOp,
                    memo: dict[int, object]):
        """Dense product.  Transposed operand flags are honoured by
        both kernels (tiles are transposed in memory as they stream,
        so no transposed copy ever exists on disk); a sparse operand
        is densified first — no dense x sparse kernel exists."""
        node = op.node
        a = self._as_tiled_matrix(self._input(node.children[0], memo))
        b = self._as_tiled_matrix(self._input(node.children[1], memo))
        if isinstance(op, BnljOp):
            return bnlj_matmul(self.store, a, b, self.memory_scalars,
                               trans_a=node.trans_a,
                               trans_b=node.trans_b)
        return square_tile_matmul(self.store, a, b, self.memory_scalars,
                                  trans_a=node.trans_a,
                                  trans_b=node.trans_b)

    def _run_spmm(self, op: SparseSpMMOp, memo: dict[int, object]):
        from repro.sparse import spmm
        a, b = op.node.children
        return spmm(self.store, self._input(a, memo),
                    self._densified(self._input(b, memo)),
                    self.memory_scalars)

    def _run_spgemm(self, op: SparseSpGEMMOp, memo: dict[int, object]):
        from repro.sparse import spgemm
        a, b = op.node.children
        return spgemm(self.store, self._input(a, memo),
                      self._input(b, memo), self.memory_scalars)

    def _run_crossprod(self, op: CrossprodOp, memo: dict[int, object]):
        """``t(A) %*% A``; with side products, also each ``t(A) %*% B``
        computed on the same scan of A — returned after it, one value
        per entry of ``op.nodes``."""
        node = op.node
        a = self._as_tiled_matrix(self._input(node.children[0], memo))
        side = []
        for s in op.side_nodes:
            b = self._as_tiled_matrix(self._input(s.children[1], memo))
            side.append((b, self.store.create_matrix(
                s.shape, layout="square",
                dtype=np.result_type(a.dtype, b.dtype))))
        out = crossprod_matmul(self.store, a, self.memory_scalars,
                               t_first=node.t_first, side=side)
        if not side:
            return out
        return (out, *(out_b for _, out_b in side))

    def _densified(self, data):
        """Dense view of a forced matrix for tile-streaming consumers.

        Memoized per sparse object (the sparse operand is kept in the
        cache entry so its ``id`` stays valid for the cache's lifetime).
        """
        from repro.sparse import SparseTiledMatrix
        if not isinstance(data, SparseTiledMatrix):
            return data
        cached = self._densified_cache.get(id(data))
        if cached is not None and cached[0] is data:
            return cached[1]
        dense = data.to_dense()
        self._densified_cache[id(data)] = (data, dense)
        self._transients.append(dense)
        return dense

    # ------------------------------------------------------------------
    # Linear systems: solve() and inv()
    # ------------------------------------------------------------------
    def _as_tiled_matrix(self, data) -> TiledMatrix:
        """Coerce a forced matrix operand onto this evaluator's store."""
        data = self._densified(data)
        if isinstance(data, TiledMatrix):
            return data
        coerced = self.store.matrix_from_numpy(
            np.asarray(data, dtype=np.float64), layout="square")
        self._transients.append(coerced)
        return coerced

    def _run_solve(self, op: LUSolveOp, memo: dict[int, object]):
        """``solve(A, B)``: pivoted out-of-core LU with B's first column
        panel riding along, then blocked substitution.

        A vector B rides whole; a matrix B is read one memory-sized
        column panel at a time, so a wide B (e.g. a rewritten
        ``inv(A) %*% B`` with matrix B) respects the same budget the
        factorization does.  A B that dies here (released here, and
        not also A) is dropped as soon as its last column is in
        memory, not after the operator: its frames then never compete
        with the factor's.  An A factored in place is dropped where the
        kernel calls ``release``.
        """
        from repro.linalg.solve import lu_solve, lu_solve_panels
        node = op.node
        a_node, b_node = node.children
        a, release = self._lu_operand(op, memo)
        b = self._densified(self._input(b_node, memo))
        b_dies = (b_node is not a_node
                  and any(b_node is r for r in op.releases))
        n = node.shape[0]
        if node.ndim == 2:
            k = node.shape[1]
            b_mat = self._as_tiled_matrix(b)

            def rhs_panel(j0: int, j1: int) -> np.ndarray:
                cols = b_mat.read_submatrix(0, n, j0, j1)
                if j1 == k and b_dies:
                    self._drop(b_node, memo)
                return cols

            return lu_solve_panels(
                self.store, a, k, self.memory_scalars, rhs_panel,
                release=release)
        rhs = (b.to_numpy() if hasattr(b, "to_numpy")
               else np.asarray(b, dtype=np.float64))
        if b_dies:
            self._drop(b_node, memo)
        return self.store.vector_from_numpy(lu_solve(
            self.store, a, rhs.ravel(), self.memory_scalars,
            release=release))

    def _lu_operand(self, op: LUSolveOp | InverseOp,
                    memo: dict[int, object]):
        """An LU's A, with the ``release`` that drops it (through
        :meth:`_drop`) when it dies in the factorization
        (``op.in_place``), else ``None``."""
        node = op.node.children[0]
        return (self._as_tiled_matrix(self._input(node, memo)),
                partial(self._drop, node, memo) if op.in_place else None)

    def _run_inverse(self, op: InverseOp,
                     memo: dict[int, object]) -> TiledMatrix:
        """Materialize ``inv(A)``: factor once, then substitute one
        memory-sized column panel of the identity at a time.

        This is the plan the ``inv(A) %*% B -> solve(A, B)`` rewrite
        avoids; it exists for programs that genuinely need the inverse.
        """
        from repro.linalg.solve import lu_solve_panels
        n = op.node.shape[0]
        a, release = self._lu_operand(op, memo)
        return lu_solve_panels(
            self.store, a, n, self.memory_scalars,
            lambda j0, j1: np.eye(n, j1 - j0, k=-j0), release=release)

    # ------------------------------------------------------------------
    # Elementwise regions: one tape, three drivers
    # ------------------------------------------------------------------
    def _region_values(self, region: Region, memo: dict[int, object],
                       computed: Node | None = None) -> dict[int, object]:
        """Each region input's whole value by node id — a constant's
        number, the range node itself, or what its operator computed —
        but ``computed``'s, the product block an epilogue is handed."""
        return {id(n): n.value if isinstance(n, Scalar)
                else n if isinstance(n, Range) else self._input(n, memo)
                for n in region.inputs if n is not computed}

    def _stream(self, region: Region, values: dict[int, object], emit,
                grid=None) -> None:
        """Run a region on the schedule runner, a step per part — a
        window of the store's chunk grid (vector) or a tile of ``grid``
        in on-disk order (matrix) — that reads every input over the part
        and runs the tape; ``emit(part, result)`` returns its writes.  A
        window announces its chunks of each source on that grid; a
        tile's ``read_submatrix`` announces itself."""
        inputs = [values[id(node)] for node in region.inputs]
        if grid is None:
            n = region.root.shape[0]
            chunk = self.store.scalars_per_block
            sources = [v for v in inputs
                       if isinstance(v, TiledVector)
                       and v.store is self.store and v.chunk == chunk]
            width = stream_window(self.store.pool.capacity,
                                  len(sources)) * chunk
            parts = [((lo, min(lo + width, n)), sources)
                     for lo in range(0, n, width)]
        else:
            parts = [(grid.tile_bounds(ti, tj), ())
                     for ti, tj in grid.tiles()]

        def compute(part, *operands):
            by_id = dict(zip(map(id, region.inputs), operands))
            out = region.run(lambda node: by_id[id(node)])
            if np.ndim(out) == 0:       # a window of a constant region
                out = np.full(part[1] - part[0], float(out))
            return emit(part, np.asarray(out))

        run_steps(self.store, [Panel(None, {}, (
            Step(tuple((v, part, False) for v in inputs), part,
                 tuple((v, part, False) for v in announced))
            for part, announced in parts))], compute)

    def _grid(self, region: Region, values: dict[int, object]):
        """The tile grid a matrix region runs on — its first matrix
        input's — with every matrix input made readable by rectangle
        (a sparse one off that grid is densified first)."""
        grid = None
        for n in region.sources:
            value = values[id(n)]
            if not (hasattr(value, "read_tile_csr")
                    and (grid is None
                         or value.tile_shape == grid.tile_shape)):
                value = values[id(n)] = self._as_tiled_matrix(value)
            if grid is None:
                grid = value
        return grid

    # ------------------------------------------------------------------
    # Subscript (gather) — selective evaluation
    # ------------------------------------------------------------------
    def _run_gather(self, op: GatherOp,
                    memo: dict[int, object]) -> TiledVector:
        node = op.node
        index = self._index_values(node.index, memo)
        src = node.src
        if isinstance(src, Range):
            gathered = (index - 1 + src.lo).astype(np.float64)
        else:
            stored = self._input(src, memo)
            if isinstance(stored, TiledVector):
                gathered = stored.gather(index - 1)
            else:
                gathered = np.asarray(stored)[index - 1]
        return self.store.vector_from_numpy(gathered)

    def _index_values(self, node: Node,
                      memo: dict[int, object]) -> np.ndarray:
        """1-based integer index values of an index expression."""
        if isinstance(node, Range):
            return np.arange(node.lo, node.hi + 1, dtype=np.int64)
        stored = self._input(node, memo)
        if isinstance(stored, TiledVector):
            return stored.to_numpy().astype(np.int64)
        return np.asarray(stored).astype(np.int64)

    def _run_scatter(self, op: ScatterOp,
                     memo: dict[int, object]) -> TiledVector:
        """Positional ``b[s] <- v``: copy-on-write then random scatter."""
        node = op.node
        base = self._input(node.base, memo)
        if not isinstance(base, TiledVector):
            raise NotImplementedError("scatter base must be a vector")
        index = self._index_values(node.index, memo)
        value = self._input(node.value, memo)
        if isinstance(value, TiledVector):
            values = value.to_numpy()
        elif np.ndim(value) == 0:
            values = np.full(index.size, float(value))
        else:
            values = np.asarray(value, dtype=np.float64)
        out = self.store.create_vector(base.length)
        step = stream_window(self.store.pool.capacity, 1) * out.chunk
        for lo in range(0, base.length, step):
            out.write_chunk(lo // out.chunk,
                            base.read_range(lo, min(lo + step,
                                                    base.length)))
        out.scatter(index - 1, values)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _run_reduce(self, op: ReduceOp, memo: dict[int, object]):
        """Fold the reduced region without storing it.  Partials fold
        per chunk of the store's grid in chunk order, or per tile in
        on-disk order, so the bits do not depend on the window."""
        region = op.region
        values = self._region_values(region, memo)
        if region.root.ndim == 0:
            # sum / mean / min / max of one value is that value.
            return float(region.run(lambda n: values[id(n)]))
        chunk = self.store.scalars_per_block
        acc_sum, acc_min, acc_max, count = 0.0, np.inf, -np.inf, 0

        def fold(_, part: np.ndarray) -> None:
            nonlocal acc_sum, acc_min, acc_max, count
            for piece in ([part] if part.ndim == 2 else
                          [part[at: at + chunk]
                           for at in range(0, part.size, chunk)]):
                acc_sum += float(piece.sum())
                acc_min = min(acc_min, float(piece.min()))
                acc_max = max(acc_max, float(piece.max()))
                count += piece.size

        self._stream(region, values, fold, self._grid(region, values)
                     if region.root.ndim == 2 else None)
        return {"sum": acc_sum, "mean": acc_sum / max(count, 1),
                "min": acc_min, "max": acc_max}[op.node.op]

    # ------------------------------------------------------------------
    # Fused matmul epilogues
    # ------------------------------------------------------------------
    def _run_epilogue(self, op: FusedEpilogueOp,
                      memo: dict[int, object]) -> TiledMatrix:
        """The 3rd driver: the kernel hands each output submatrix of
        the product to the region while it is memory-resident, and the
        region's value is written once.  Legality (one dense product,
        conforming shapes, no outside consumer of the product) was
        established by the planner."""
        region, barrier = op.region, op.barrier
        operands = [self._as_tiled_matrix(self._input(c, memo))
                    for c in barrier.children]
        values = self._region_values(region, memo, computed=barrier)
        for n in region.sources:
            if n is not barrier:
                values[id(n)] = self._as_tiled_matrix(values[id(n)])

        def epilogue(r0: int, c0: int, block: np.ndarray) -> np.ndarray:
            rect = (r0, r0 + block.shape[0], c0, c0 + block.shape[1])
            return np.asarray(region.run(
                lambda n: block if n is barrier
                else read(values[id(n)], rect)), dtype=np.float64)

        kernel = dict(epilogue=epilogue,
                      epilogue_inputs=len(region.sources) - 1)
        if isinstance(barrier, Crossprod):
            return crossprod_matmul(self.store, operands[0],
                                    self.memory_scalars,
                                    t_first=barrier.t_first, **kernel)
        return square_tile_matmul(self.store, *operands,
                                  self.memory_scalars,
                                  trans_a=barrier.trans_a,
                                  trans_b=barrier.trans_b, **kernel)

    def _run_transpose(self, op: TransposeOp,
                       memo: dict[int, object]) -> TiledMatrix:
        """Materialize a transpose (one read + one write pass).

        The transpose pass absorbs transposes that feed products, so
        above level 0 this only runs for a bare ``t(A)``.  The output
        keeps the source's linearization and carries its name, so a
        stored transpose is as recognizable — and its scans as
        sequential — as the array it came from.
        """
        node = op.node
        src = self._densified(self._input(node.children[0], memo))
        out = self.store.create_matrix(
            node.shape, tile_shape=src.tile_shape[::-1],
            linearization=src.linearization.name,
            name=f"t({src.name})")
        for ti, tj in src.tiles():
            r0, r1, c0, c1 = src.tile_bounds(ti, tj)
            out.write_submatrix(c0, r0,
                                src.read_submatrix(r0, r1, c0, c1).T)
        return out

    #: The one place that maps an operator to the code that runs it.
    OP_RUNNERS = {
        LeafOp: _run_leaf,
        ScalarOp: _run_scalar,
        RangeOp: _run_map,
        MapOp: _run_map,
        GatherOp: _run_gather,
        ScatterOp: _run_scatter,
        ReduceOp: _run_reduce,
        TileMatMulOp: _run_matmul,
        BnljOp: _run_matmul,
        CrossprodOp: _run_crossprod,
        SparseSpMMOp: _run_spmm,
        SparseSpGEMMOp: _run_spgemm,
        LUSolveOp: _run_solve,
        InverseOp: _run_inverse,
        TransposeOp: _run_transpose,
        FusedEpilogueOp: _run_epilogue,
    }
