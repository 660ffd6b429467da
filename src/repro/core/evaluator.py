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
  ``Crossprod`` runs the symmetric half-the-blocks schedule, and
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
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.linalg.matmul import (bnlj_matmul, crossprod_matmul,
                                 square_tile_matmul)
from repro.storage import ArrayStore, TiledMatrix, TiledVector

from .config import OptimizerConfig
from .costs import stream_window
from .expr import Crossprod, Node, Range, Scalar
from .parallel import resolve_parallelism
from .plan import (BnljOp, CrossprodOp, FusedEpilogueOp, GatherOp,
                   InverseOp, LeafOp, LUSolveOp, MapOp, PhysOp,
                   PhysicalPlan, RangeOp, ReduceOp, Region, ScalarOp,
                   ScatterOp, SparseSpGEMMOp, SparseSpMMOp, TileMatMulOp,
                   TransposeOp)
from .planner import Planner


def _cut(value, window: tuple[int, ...]):
    """``value`` over ``window`` — an element range ``(lo, hi)`` of a
    vector or a rectangle ``(r0, r1, c0, c1)`` of a matrix, read from
    storage or sliced; a number passes through."""
    if isinstance(value, Range):
        lo, hi = window
        return np.arange(value.lo + lo, value.lo + hi, dtype=np.float64)
    if isinstance(value, TiledVector):
        return value.read_range(*window)
    if isinstance(value, TiledMatrix):
        return value.read_submatrix(*window)
    if hasattr(value, "read_tile_csr"):    # sparse, on the region's grid
        th, tw = value.tile_shape
        return value.read_tile(window[0] // th, window[2] // tw)
    if isinstance(value, np.ndarray) and value.ndim:
        return value[tuple(map(slice, window[::2], window[1::2]))]
    return value


def _reader(values: dict[int, object], window: tuple[int, ...]):
    """``read`` for :meth:`Region.run`: every input over ``window``."""
    return lambda n: _cut(values[id(n)], window)


class MissingInputError(RuntimeError):
    """An operator ran before one of its inputs was computed."""


class Evaluator:
    """Evaluates DAG nodes to tiled arrays / scalars over an ArrayStore."""

    def __init__(self, store: ArrayStore,
                 memory_scalars: int | None = None,
                 strict: bool = False,
                 parallelism: int | None = None) -> None:
        self.store = store
        self.memory_scalars = memory_scalars or (
            store.pool.capacity * store.scalars_per_block)
        #: Run repro.analysis.planlint.verify_plan before every
        #: execute() (OptimizerConfig(strict=True) sets this).
        self.strict = strict
        #: Worker count for plan- and tile-level parallelism.  ``None``
        #: defers to $REPRO_PARALLELISM (default 1 = serial), so a CI
        #: run can parallelize every evaluator without code changes.
        self.parallelism = resolve_parallelism(parallelism)
        # Worker pools are created lazily (first parallel execution)
        # and live for the evaluator's lifetime; see shutdown().
        self._op_executors: dict[int, object] = {}
        self._tile_parallel = None
        self._serial_kernels = False
        # Sparse matrix -> its dense twin, so a sparse object consumed
        # by several dense-only contexts is converted (read fully +
        # written as dense tiles) once, not once per consumer.
        self._densified_cache: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # Parallelism plumbing
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Join this evaluator's worker pools (idempotent)."""
        for ex in self._op_executors.values():
            ex.shutdown()
        self._op_executors.clear()
        if self._tile_parallel is not None:
            self._tile_parallel.shutdown()
            self._tile_parallel = None

    def _plan_executor(self, workers: int):
        ex = self._op_executors.get(workers)
        if ex is None:
            from .parallel import ParallelExecutor
            ex = self._op_executors[workers] = \
                ParallelExecutor(self, workers)
        return ex

    def _kernel_parallel(self):
        """The shared TileParallelism, or None when running serial.

        Tile-level parallelism is measurement-safe (all pool/device
        traffic stays on the calling thread in serial order), so it is
        active even on cold measured runs — except under
        :meth:`serial_kernels`, which forces an honest workers=1
        baseline.
        """
        if self.parallelism <= 1 or self._serial_kernels:
            return None
        if self._tile_parallel is None:
            from .parallel import TileParallelism
            self._tile_parallel = TileParallelism(self.parallelism)
        return self._tile_parallel

    @contextmanager
    def serial_kernels(self):
        """Disable tile-level kernel parallelism inside the block.

        Used by ``explain(analyze=True)``'s baseline run: the serial
        wall time it compares the parallel schedule against must not
        get tile-parallel help.
        """
        prev = self._serial_kernels
        self._serial_kernels = True
        try:
            yield
        finally:
            self._serial_kernels = prev

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
        planner = Planner(OptimizerConfig(level=0),
                          memory_scalars=self.memory_scalars,
                          block_scalars=self.store.matrix_scalars_per_block)
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
        (PoolStats) and ``op.wall_ns``, with ``op.measured_io`` keeping
        the plain block total ``session.explain()`` prints next to the
        prediction.  When the store's tracer is enabled each op is also
        bracketed in a span.

        ``cold=True`` measures under the cost models' own assumptions
        (EXPLAIN ANALYZE semantics): the pool is flushed and emptied
        first so inputs are read from the device rather than served
        from residue of earlier work, and the trailing write-back of
        dirty output frames is flushed and charged to the root
        operator — the same protocol the cost-agreement tests use, so
        measured/predicted ratios are comparable to the validated
        0.5–2.0x band.  (Writes
        are charged to the operator that triggered the device transfer:
        a dirty block evicted during a later operator counts there.
        Totals are exact, per-op splits approximate.)

        With ``parallelism > 1``, *warm* runs schedule independent
        operators onto the worker pool (see
        :class:`repro.core.parallel.ParallelExecutor`); results stay
        bitwise-identical.  ``cold=True`` runs always schedule ops
        serially — exclusive per-op deltas only sum exactly to the
        session totals when one op runs at a time — while tile-level
        kernel parallelism (which keeps all I/O on the calling thread)
        stays active either way.  Use :meth:`execute_parallel` to get
        a parallel schedule for a cold run.
        """
        with self._execution(plan, cold):
            for op in plan.ops():
                op.measured_io = None
                op.measured = None
                op.pool_measured = None
                op.wall_ns = None
            if cold or self.parallelism <= 1:
                memo: dict[int, object] = {}
                for op in plan.ops():
                    self._keep(op, self._measured_op(op, memo)[0], memo)
                result = memo[id(plan.root.node)]
            else:
                result = self._plan_executor(
                    self.parallelism).execute(plan)
            if cold:
                self._flush_into_root(plan.root)
        plan.executed = True
        return result

    @contextmanager
    def _execution(self, plan: PhysicalPlan, cold: bool):
        """The window every plan execution runs in: verify the plan
        when strict, start from an empty densified-twin cache (and an
        empty pool when ``cold``), run inside the ``execute:level<n>``
        span, and drain the cache again on the way out.

        The cache de-duplicates conversions *within* one execution, so
        a long session never pins the sparse operands it densified —
        not even the last evaluation's.
        """
        if self.strict:
            # Imported lazily: repro.analysis depends on repro.core,
            # not the other way around.
            from repro.analysis.planlint import verify_plan
            verify_plan(plan, memory_scalars=self.memory_scalars,
                        block_scalars=self.store.matrix_scalars_per_block)
        self._densified_cache.clear()
        if cold:
            self.store.pool.clear()
        try:
            with self.store.tracer.span(
                    f"execute:level{plan.level}", cat="session"):
                yield
        finally:
            self._densified_cache.clear()

    def execute_parallel(self, plan: PhysicalPlan, *,
                         cold: bool = False,
                         workers: int | None = None):
        """Execute a plan on the worker pool, recording its schedule.

        Unlike :meth:`execute` this never takes exclusive per-op
        deltas (``op.measured`` stays whatever it was — exactness
        needs serial op scheduling); instead it fills
        ``plan.parallel_schedule`` with per-op worker assignments and
        start/end times.  ``cold=True`` still empties the pool first
        and flushes dirty frames after, so the recorded wall time is
        comparable to a cold serial run's.  This is the first half of
        ``explain(analyze=True)``'s dual run.
        """
        w = (self.parallelism if workers is None
             else resolve_parallelism(workers))
        with self._execution(plan, cold):
            result = self._plan_executor(w).execute(plan)
            if cold:
                self.store.pool.flush_all()
        return result

    def _flush_into_root(self, root: PhysOp) -> None:
        """Flush dirty frames, charging the write-back to the root op.

        The cost models price an operator's output *writes*; under
        write-back caching those blocks may still sit dirty in the pool
        when execution ends.  Folding the final flush into the root's
        delta keeps per-op sums equal to the session totals over the
        whole (cold) execution window.
        """
        _, io, pool, _, wall_ns = self._measured(self.store.pool.flush_all)
        if root.measured is not None:
            root.measured = root.measured.merged(io)
            root.measured_io = root.measured.total
        if root.pool_measured is not None:
            root.pool_measured = root.pool_measured.merged(pool)
        if root.wall_ns is not None:
            root.wall_ns += wall_ns

    def _measured(self, work):
        """Run ``work()`` between samples of the device counters, the
        pool counters and the clock; returns ``(result, I/O delta, pool
        delta, start ns, wall ns)``."""
        io_before = self.store.device.stats.snapshot()
        pool_before = self.store.pool.stats.snapshot()
        start_ns = time.perf_counter_ns()
        result = work()
        wall_ns = time.perf_counter_ns() - start_ns
        return (result, self.store.device.stats.delta(io_before),
                self.store.pool.stats.delta(pool_before), start_ns,
                wall_ns)

    def _measured_op(self, op: PhysOp, memo: dict[int, object]):
        """Run one operator's own work (children already done) inside
        its span and record its I/O / pool / wall deltas on it; returns
        ``(result, start ns)``.

        One operator at a time (serial execution) makes the deltas sum
        exactly to the session totals — the invariant the obs hypothesis
        test asserts on random DAGs; on the worker pool they are window
        deltas (see :class:`~repro.core.parallel.ParallelExecutor`).
        """
        def work():
            with self.store.tracer.span(op.label(), cat="op"):
                return self._dispatch_op(op, memo)

        (result, op.measured, op.pool_measured, start_ns,
         op.wall_ns) = self._measured(work)
        op.measured_io = op.measured.total
        return result, start_ns

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
            out = self.store.create_vector(region.root.shape[0])
            for c0, window in self._windows(region, values):
                out.write_chunk(c0, window)
            return out
        grid = self._grid(region, values)
        out = self.store.create_matrix(
            region.root.shape, tile_shape=grid.tile_shape,
            linearization=grid.linearization.name)
        for ti, tj, tile in self._tiles(region, values, grid):
            out.write_tile(ti, tj, np.asarray(tile, dtype=np.float64))
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
                                  trans_b=node.trans_b,
                                  parallel=self._kernel_parallel())

    def _run_spmm(self, op: SparseSpMMOp, memo: dict[int, object]):
        from repro.sparse import spmm
        a, b = op.node.children
        return spmm(self.store, self._input(a, memo),
                    self._densified(self._input(b, memo)),
                    self.memory_scalars,
                    parallel=self._kernel_parallel())

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
                               t_first=node.t_first,
                               parallel=self._kernel_parallel(),
                               side=side)
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
        return dense

    # ------------------------------------------------------------------
    # Linear systems: solve() and inv()
    # ------------------------------------------------------------------
    def _as_tiled_matrix(self, data) -> TiledMatrix:
        """Coerce a forced matrix operand onto this evaluator's store."""
        data = self._densified(data)
        if isinstance(data, TiledMatrix):
            return data
        return self.store.matrix_from_numpy(
            np.asarray(data, dtype=np.float64), layout="square")

    def _run_solve(self, op: LUSolveOp, memo: dict[int, object]):
        """``solve(A, B)``: pivoted out-of-core LU + blocked substitution.

        The factor streams from the tile store; the right-hand side is
        factored once and substituted one memory-sized column panel at
        a time, so a wide B (e.g. a rewritten ``inv(A) %*% B`` with
        matrix B) respects the same budget the factorization does.
        """
        from repro.linalg.lu import lu_decompose
        from repro.linalg.solve import lu_solve_factored, lu_solve_panels
        node = op.node
        a = self._as_tiled_matrix(self._input(node.children[0], memo))
        b = self._densified(self._input(node.children[1], memo))
        if node.ndim == 2:
            n = node.shape[0]
            b_mat = self._as_tiled_matrix(b)
            return lu_solve_panels(
                self.store, a, node.shape[1], self.memory_scalars,
                lambda j0, j1: b_mat.read_submatrix(0, n, j0, j1))
        # A vector RHS is read after the factorization, as one piece.
        factors = lu_decompose(self.store, a, self.memory_scalars)
        try:
            rhs = (b.to_numpy() if hasattr(b, "to_numpy")
                   else np.asarray(b, dtype=np.float64))
            return self.store.vector_from_numpy(lu_solve_factored(
                factors, rhs.ravel(), self.memory_scalars))
        finally:
            factors.drop()

    def _run_inverse(self, op: InverseOp,
                     memo: dict[int, object]) -> TiledMatrix:
        """Materialize ``inv(A)``: factor once, then substitute one
        memory-sized column panel of the identity at a time.

        This is the plan the ``inv(A) %*% B -> solve(A, B)`` rewrite
        avoids; it exists for programs that genuinely need the inverse.
        """
        from repro.linalg.solve import lu_solve_panels
        n = op.node.shape[0]
        a = self._as_tiled_matrix(self._input(op.node.children[0], memo))
        return lu_solve_panels(
            self.store, a, n, self.memory_scalars,
            lambda j0, j1: np.eye(n, j1 - j0, k=-j0))

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

    def _windows(self, region: Region, values: dict[int, object]
                 ) -> Iterator[tuple[int, np.ndarray]]:
        """The 1-D driver: yield ``(first_chunk, values)`` of a vector
        region one prefetch window of the store's chunk grid at a time:
        announce the window's chunks of every source on that grid, run
        the tape once over the window's element range."""
        n = region.root.shape[0]
        chunk = self.store.scalars_per_block
        num_chunks = -(-n // chunk)
        sources = [v for v in values.values()
                   if isinstance(v, TiledVector)
                   and v.store is self.store and v.chunk == chunk]
        window = stream_window(self.store.pool.capacity, len(sources))
        for c0 in range(0, num_chunks, window):
            c1 = min(c0 + window, num_chunks)
            keys = [key for vec in sources for key in
                    vec.blocks_for_chunks(range(c0, min(c1,
                                                        vec.num_chunks)))]
            if keys:
                self.store.pool.prefetch(keys)
            lo, hi = c0 * chunk, min(c1 * chunk, n)
            out = region.run(_reader(values, (lo, hi)))
            if np.ndim(out) == 0:
                out = np.full(hi - lo, float(out))
            yield c0, np.asarray(out)

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

    def _tiles(self, region: Region, values: dict[int, object], grid
               ) -> Iterator[tuple[int, int, np.ndarray]]:
        """The 2-D driver: yield ``(ti, tj, values)`` of a matrix region
        tile by tile over ``grid``, in its on-disk order."""
        for ti, tj in grid.tiles():
            yield ti, tj, region.run(
                _reader(values, grid.tile_bounds(ti, tj)))

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
        if region.root.ndim == 2:
            parts = (tile for _, _, tile in self._tiles(
                region, values, self._grid(region, values)))
        else:
            chunk = self.store.scalars_per_block
            parts = (window[at: at + chunk]
                     for _, window in self._windows(region, values)
                     for at in range(0, window.size, chunk))
        acc_sum, acc_min, acc_max, count = 0.0, np.inf, -np.inf, 0
        for part in parts:
            acc_sum += float(part.sum())
            acc_min = min(acc_min, float(part.min()))
            acc_max = max(acc_max, float(part.max()))
            count += part.size
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
            read = _reader(values, (r0, r0 + block.shape[0],
                                    c0, c0 + block.shape[1]))
            return np.asarray(region.run(
                lambda n: block if n is barrier else read(n)),
                dtype=np.float64)

        kernel = dict(epilogue=epilogue,
                      epilogue_inputs=len(region.sources) - 1,
                      parallel=self._kernel_parallel())
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
