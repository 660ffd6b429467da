"""Streaming evaluator: executes optimized DAGs over the tile store.

Execution strategy, following §5:

- **Fused elementwise regions.**  A maximal subtree of Map /
  logical-mask-SubscriptAssign nodes is evaluated one prefetch window
  at a time in one pass: for every window the operands are announced
  and read as one run each, the expression DAG is walked once, and one
  result run is written.  No intermediate vector ever exists — the
  loop-fusion / array-contraction behaviour the paper says a
  hand-coder would write.
- **Gather for subscripts.**  After the rewriter has pushed subscripts to
  the leaves, ``x[s]`` touches only the chunks containing the selected
  elements (selective evaluation).  If rewriting is disabled, the source is
  forced to a temporary first — the exact cost difference the Figure-2
  ablation bench measures.
- **Out-of-core matmul.**  MatMul nodes call the Appendix-A square-tile
  algorithm; chains have already been reordered by the DP.  Transposed
  operand flags stream the stored tiles and transpose them in memory;
  ``Crossprod`` runs the symmetric half-the-blocks schedule.
- **Fused matmul epilogues.**  A matrix Map region fed by exactly one
  MatMul/Crossprod (``alpha * (A %*% B) + C``) is pushed *into* the
  multiply as an epilogue callback: the elementwise expression is applied
  to each output submatrix while it is still memory-resident and written
  once — the raw product never reaches disk.
- **Streaming reductions** accumulate across chunks without materializing.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.linalg.matmul import (bnlj_matmul, crossprod_matmul,
                                 square_tile_matmul)
from repro.storage import ArrayStore, TiledMatrix, TiledVector

from .expr import (ArrayInput, Crossprod, ELEMENTWISE_OPS, Inverse, Map,
                   MatMul, Node, Range, Reduce, Scalar, Solve, Subscript,
                   SubscriptAssign, Transpose, walk)
from .parallel import resolve_parallelism
from .plan import (BnljOp, CrossprodOp, FusedEpilogueOp, PhysOp,
                   PhysicalPlan, SparseSpGEMMOp, SparseSpMMOp,
                   TileMatMulOp)

#: Chunks of lookahead announced to the buffer pool during streaming.
STREAM_PREFETCH_CHUNKS = 16


def streamable(node: Node) -> bool:
    """Can this node be computed chunk-aligned from its children?"""
    if isinstance(node, (Scalar, Range, ArrayInput)):
        return True
    if isinstance(node, Map):
        return all(streamable(c) for c in node.children)
    if isinstance(node, SubscriptAssign) and node.logical_mask:
        return all(streamable(c) for c in node.children)
    return False


def collect_barriers(node: Node, barriers: list[Node],
                     seen: set[int]) -> None:
    """Find maximal non-streamable subtrees under a streaming region."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if streamable(node):
        for c in node.children:
            collect_barriers(c, barriers, seen)
    else:
        barriers.append(node)


class Evaluator:
    """Evaluates DAG nodes to tiled arrays / scalars over an ArrayStore."""

    def __init__(self, store: ArrayStore,
                 memory_scalars: int | None = None,
                 fuse_epilogues: bool = True,
                 strict: bool = False,
                 parallelism: int | None = None) -> None:
        self.store = store
        self.memory_scalars = memory_scalars or (
            store.pool.capacity * store.scalars_per_block)
        self.fuse_epilogues = fuse_epilogues
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
        #: True while executing a PhysicalPlan: fuse-vs-materialize was
        #: decided by the planner, so the runtime fusion heuristic of
        #: the tree-dispatch fallback must stay out of the way.
        self._executing_plan = False
        self._parent_edges: dict[int, int] = {}
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
    def force(self, node: Node, memo: dict[int, object] | None = None):
        """Evaluate ``node``; returns TiledVector/TiledMatrix or float.

        The densified-twin cache only needs to live for one evaluation
        (its job is de-duplicating conversions *within* a DAG): it is
        cleared on entry and drained again on exit, so a long session
        never pins the sparse operands it densified — not even the
        last evaluation's.
        """
        self._densified_cache.clear()
        # Parent-edge counts over the whole root DAG: epilogue fusion
        # evaluates a region's products and interior Maps without
        # memoizing them, so it must only fire when *every* consumer of
        # those nodes sits inside the fused region — otherwise the
        # multiply would silently run twice.
        self._parent_edges = {}
        if self.fuse_epilogues:
            for n in walk(node):
                for c in n.children:
                    self._parent_edges[id(c)] = \
                        self._parent_edges.get(id(c), 0) + 1
        memo = memo if memo is not None else {}
        try:
            return self._force(node, memo)
        finally:
            self._densified_cache.clear()

    # ------------------------------------------------------------------
    # Physical-plan execution
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan,
                memo: dict[int, object] | None = None, *,
                cold: bool = False):
        """Execute a :class:`PhysicalPlan` operator by operator.

        Children run before their parents; results are memoized by
        logical node, so shared subplans run once.  Around each
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
        self._verify_strict(plan)
        memo = memo if memo is not None else {}
        for op in plan.ops():
            op.measured_io = None
            op.measured = None
            op.pool_measured = None
            op.wall_ns = None
        self._densified_cache.clear()
        self._executing_plan = True
        if cold:
            self.store.pool.clear()
        try:
            with self.store.tracer.span(
                    f"execute:level{plan.level}", cat="session"):
                if cold or self.parallelism <= 1:
                    result = self._exec_op(plan.root, memo, set())
                else:
                    result = self._plan_executor(
                        self.parallelism).execute(plan, memo)
                if cold:
                    self._flush_into_root(plan.root)
            plan.executed = True
            return result
        finally:
            self._executing_plan = False
            self._densified_cache.clear()

    def _verify_strict(self, plan: PhysicalPlan) -> None:
        if not self.strict:
            return
        # Imported lazily: repro.analysis depends on repro.core,
        # not the other way around.
        from repro.analysis.planlint import verify_plan
        verify_plan(plan, memory_scalars=self.memory_scalars,
                    block_scalars=self.store.scalars_per_block)

    def execute_parallel(self, plan: PhysicalPlan,
                         memo: dict[int, object] | None = None, *,
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
        self._verify_strict(plan)
        memo = memo if memo is not None else {}
        w = (self.parallelism if workers is None
             else resolve_parallelism(workers))
        self._densified_cache.clear()
        self._executing_plan = True
        if cold:
            self.store.pool.clear()
        try:
            with self.store.tracer.span(
                    f"execute:level{plan.level}", cat="session"):
                result = self._plan_executor(w).execute(plan, memo)
                if cold:
                    self.store.pool.flush_all()
            return result
        finally:
            self._executing_plan = False
            self._densified_cache.clear()

    def _flush_into_root(self, root: PhysOp) -> None:
        """Flush dirty frames, charging the write-back to the root op.

        The cost models price an operator's output *writes*; under
        write-back caching those blocks may still sit dirty in the pool
        when execution ends.  Folding the final flush into the root's
        delta keeps per-op sums equal to the session totals over the
        whole (cold) execution window.
        """
        io_before = self.store.device.stats.snapshot()
        pool_before = self.store.pool.stats.snapshot()
        start_ns = time.perf_counter_ns()
        self.store.pool.flush_all()
        if root.measured is not None:
            root.measured = root.measured.merged(
                self.store.device.stats.delta(io_before))
            root.measured_io = root.measured.total
        if root.pool_measured is not None:
            root.pool_measured = root.pool_measured.merged(
                self.store.pool.stats.delta(pool_before))
        if root.wall_ns is not None:
            root.wall_ns += time.perf_counter_ns() - start_ns

    def _exec_op(self, op: PhysOp, memo: dict[int, object],
                 done: set[int]):
        if id(op) in done:
            return memo[id(op.node)]
        for c in op.children:
            self._exec_op(c, memo, done)
        # Each operator's own work runs sequentially between these
        # snapshots (children already done), so per-op deltas sum
        # exactly to the session totals — the invariant the obs
        # hypothesis test asserts on random DAGs.
        io_before = self.store.device.stats.snapshot()
        pool_before = self.store.pool.stats.snapshot()
        start_ns = time.perf_counter_ns()
        with self.store.tracer.span(op.label(), cat="op"):
            result = self._dispatch_op(op, memo)
        op.wall_ns = time.perf_counter_ns() - start_ns
        op.measured = self.store.device.stats.delta(io_before)
        op.pool_measured = self.store.pool.stats.delta(pool_before)
        op.measured_io = op.measured.total
        done.add(id(op))
        memo[id(op.node)] = result
        return result

    def _dispatch_op(self, op: PhysOp, memo: dict[int, object]):
        """Run one operator's own work (children already in memo)."""
        node = op.node
        if isinstance(op, (TileMatMulOp, BnljOp)):
            a = self._as_tiled_matrix(memo[id(node.children[0])])
            b = self._as_tiled_matrix(memo[id(node.children[1])])
            if isinstance(op, BnljOp):
                return bnlj_matmul(self.store, a, b,
                                   self.memory_scalars,
                                   trans_a=node.trans_a,
                                   trans_b=node.trans_b)
            return square_tile_matmul(self.store, a, b,
                                      self.memory_scalars,
                                      trans_a=node.trans_a,
                                      trans_b=node.trans_b,
                                      parallel=self._kernel_parallel())
        if isinstance(op, SparseSpMMOp):
            from repro.sparse import spmm
            a = memo[id(node.children[0])]
            b = self._densified(memo[id(node.children[1])])
            return spmm(self.store, a, b, self.memory_scalars,
                        parallel=self._kernel_parallel())
        if isinstance(op, SparseSpGEMMOp):
            from repro.sparse import spgemm
            return spgemm(self.store, memo[id(node.children[0])],
                          memo[id(node.children[1])],
                          self.memory_scalars)
        if isinstance(op, CrossprodOp):
            a = self._as_tiled_matrix(memo[id(node.children[0])])
            return crossprod_matmul(self.store, a,
                                    self.memory_scalars,
                                    t_first=node.t_first,
                                    parallel=self._kernel_parallel())
        if isinstance(op, FusedEpilogueOp):
            return self._run_epilogue(node, op.barrier,
                                      op.matrix_nodes,
                                      op.scalar_nodes, memo)
        # Everything else (leaves, streams, gathers, scatters,
        # reductions, solves, inverses, transposes) executes through
        # the tree machinery; its barriers are already memoized, so
        # only this operator's own work happens here.
        return self._force(node, memo)

    def _force(self, node: Node, memo: dict[int, object]):
        if id(node) in memo:
            return memo[id(node)]
        result = self._force_inner(node, memo)
        memo[id(node)] = result
        return result

    def _force_inner(self, node: Node, memo: dict[int, object]):
        if isinstance(node, Scalar):
            return node.value
        if isinstance(node, ArrayInput):
            return node.data
        if isinstance(node, Reduce):
            return self._force_reduce(node, memo)
        if isinstance(node, Subscript):
            return self._force_subscript(node, memo)
        if isinstance(node, MatMul):
            a = self._force(node.children[0], memo)
            b = self._force(node.children[1], memo)
            return self._dispatch_matmul(node, a, b)
        if isinstance(node, Crossprod):
            a = self._as_tiled_matrix(self._force(node.children[0],
                                                  memo))
            return crossprod_matmul(self.store, a, self.memory_scalars,
                                    t_first=node.t_first,
                                    parallel=self._kernel_parallel())
        if isinstance(node, Solve):
            return self._force_solve(node, memo)
        if isinstance(node, Inverse):
            return self._force_inverse(node, memo)
        if isinstance(node, Transpose):
            return self._force_transpose(node, memo)
        if isinstance(node, SubscriptAssign) and not node.logical_mask:
            return self._force_scatter(node, memo)
        if node.ndim == 1:
            return self._stream_vector(node, memo)
        if node.ndim == 2:
            if self.fuse_epilogues and not self._executing_plan \
                    and isinstance(node, Map):
                fused = self._try_fused_epilogue(node, memo)
                if fused is not None:
                    return fused
            return self._stream_matrix(node, memo)
        if node.ndim == 0:
            # Scalar-valued Map over reductions/constants.
            values = [self._force(c, memo) for c in node.children]
            if isinstance(node, Map):
                return float(ELEMENTWISE_OPS[node.op](*values))
        raise NotImplementedError(
            f"cannot evaluate node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Matrix multiplication dispatch (dense and sparse kernels)
    # ------------------------------------------------------------------
    def _dispatch_matmul(self, node: MatMul, a, b):
        """Route a forced ``%*%`` to the right kernel.

        The rewriter's cost-model verdict (``node.kernel``) wins;
        ``auto`` falls back to type-driven dispatch: sparse x sparse
        runs SpGEMM, sparse x dense runs SpMM, and a sparse *right*
        operand under a dense left one is densified (no dense x sparse
        kernel exists — the cost models treat that case as dense).
        Transposed operand flags force the dense flagged kernel (tiles
        are transposed in memory as they stream, so no transposed copy
        — dense or sparse — ever exists on disk).
        """
        from repro.sparse import SparseTiledMatrix, spgemm, spmm
        if node.trans_a or node.trans_b:
            return square_tile_matmul(
                self.store, self._as_tiled_matrix(a),
                self._as_tiled_matrix(b), self.memory_scalars,
                trans_a=node.trans_a, trans_b=node.trans_b,
                parallel=self._kernel_parallel())
        kernel = getattr(node, "kernel", "auto")
        if kernel == "dense":
            a = self._densified(a)
            b = self._densified(b)
        if isinstance(a, SparseTiledMatrix):
            if isinstance(b, SparseTiledMatrix):
                return spgemm(self.store, a, b, self.memory_scalars)
            return spmm(self.store, a, b, self.memory_scalars,
                        parallel=self._kernel_parallel())
        b = self._densified(b)
        return square_tile_matmul(self.store, a, b, self.memory_scalars,
                                  parallel=self._kernel_parallel())

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

    def _force_solve(self, node: Solve, memo: dict[int, object]):
        """``solve(A, B)``: pivoted out-of-core LU + blocked substitution.

        The factor streams from the tile store; the right-hand side is
        factored once and substituted one memory-sized column panel at
        a time, so a wide B (e.g. a rewritten ``inv(A) %*% B`` with
        matrix B) respects the same budget the factorization does.
        """
        from repro.core.costs import lu_panel_width
        from repro.linalg.lu import lu_decompose
        from repro.linalg.solve import lu_solve_factored
        a = self._as_tiled_matrix(self._force(node.children[0], memo))
        b = self._densified(self._force(node.children[1], memo))
        factors = lu_decompose(self.store, a, self.memory_scalars)
        try:
            if node.ndim == 1:
                rhs = (b.to_numpy() if hasattr(b, "to_numpy")
                       else np.asarray(b, dtype=np.float64))
                x = lu_solve_factored(factors, rhs.ravel(),
                                      self.memory_scalars)
                return self.store.vector_from_numpy(x)
            n, k = node.shape
            b_mat = self._as_tiled_matrix(b)
            out = self.store.create_matrix(node.shape, layout="square")
            pw = lu_panel_width(n, self.memory_scalars,
                                out.tile_shape[1])
            for j0 in range(0, k, pw):
                j1 = min(j0 + pw, k)
                rhs = b_mat.read_submatrix(0, n, j0, j1)
                out.write_submatrix(
                    0, j0,
                    lu_solve_factored(factors, rhs,
                                      self.memory_scalars))
            return out
        finally:
            factors.drop()

    def _force_inverse(self, node: Inverse,
                       memo: dict[int, object]) -> TiledMatrix:
        """Materialize ``inv(A)``: factor once, then substitute one
        memory-sized column panel of the identity at a time.

        This is the plan the ``inv(A) %*% B -> solve(A, B)`` rewrite
        avoids; it exists for programs that genuinely need the inverse.
        """
        from repro.core.costs import lu_panel_width
        from repro.linalg.lu import lu_decompose
        from repro.linalg.solve import lu_solve_factored
        a = self._as_tiled_matrix(self._force(node.children[0], memo))
        n = node.shape[0]
        factors = lu_decompose(self.store, a, self.memory_scalars)
        out = self.store.create_matrix((n, n), layout="square")
        pw = lu_panel_width(n, self.memory_scalars,
                            out.tile_shape[1])
        try:
            for j0 in range(0, n, pw):
                j1 = min(j0 + pw, n)
                rhs = np.zeros((n, j1 - j0))
                rhs[np.arange(j0, j1), np.arange(j1 - j0)] = 1.0
                out.write_submatrix(
                    0, j0,
                    lu_solve_factored(factors, rhs,
                                      self.memory_scalars))
        finally:
            factors.drop()
        return out

    # ------------------------------------------------------------------
    # Streamability analysis lives in the module-level streamable() /
    # collect_barriers() functions, shared with the planner.
    # ------------------------------------------------------------------
    def _collect_barriers(self, node: Node, barriers: list[Node],
                          seen: set[int]) -> None:
        collect_barriers(node, barriers, seen)

    # ------------------------------------------------------------------
    # Fused elementwise streaming
    # ------------------------------------------------------------------
    def _stream_sources(self, node: Node,
                        memo: dict[int, object]) -> list[TiledVector]:
        """Tiled vectors ``_eval_span`` will read one run of per window.

        Mirrors ``_eval_span``'s dispatch exactly — in particular a
        memoized (barrier) result shadows its subtree — so the returned
        footprint is precise: every listed vector is read chunk-aligned,
        and nothing else is.  Only vectors on this evaluator's store with
        the store's standard chunk grid qualify as prefetch targets.
        """
        sources: list[TiledVector] = []
        seen: set[int] = set()

        def visit(n: Node) -> None:
            if id(n) in seen or isinstance(n, (Scalar, Range)):
                return
            seen.add(id(n))
            data = memo.get(id(n))
            if data is None and isinstance(n, ArrayInput):
                data = n.data
            if isinstance(data, TiledVector):
                if (data.store is self.store
                        and data.chunk == self.store.scalars_per_block):
                    sources.append(data)
                return
            if data is not None:
                return
            if isinstance(n, Map) or (isinstance(n, SubscriptAssign)
                                      and n.logical_mask):
                for c in n.children:
                    visit(c)

        visit(node)
        return sources

    def _stream_window(self, n_sources: int) -> int:
        """Chunks per streamed window that the pool can actually hold.

        Each streamed chunk touches ``n_sources`` input blocks plus one
        output block; the window is sized so a full window of prefetched
        inputs plus the outputs written after consuming it fit in the
        pool together.  An oversized window would evict its own
        prefetched frames before they are read — re-reading them later
        and silently inflating the block totals the cost models rely on.
        """
        per_chunk = n_sources + 1
        fits = max(1, (self.store.pool.capacity - 2) // per_chunk)
        return min(STREAM_PREFETCH_CHUNKS, fits)

    def _prefetch_stream_window(self, sources: list[TiledVector],
                                lo_ci: int, hi_ci: int) -> None:
        """Announce chunks [lo_ci, hi_ci) of every streamed input."""
        keys: list[int] = []
        for vec in sources:
            hi = min(hi_ci, vec.num_chunks)
            if lo_ci < hi:
                keys.extend(vec.blocks_for_chunks(range(lo_ci, hi)))
        if keys:
            self.store.pool.prefetch(keys)

    def _force_barriers(self, roots: tuple[Node, ...],
                        memo: dict[int, object]) -> None:
        """Materialize the maximal non-streamable subtrees (gathers,
        matmuls, ...) under ``roots`` into ``memo``."""
        barriers: list[Node] = []
        seen: set[int] = set()
        for root in roots:
            self._collect_barriers(root, barriers, seen)
        for barrier in barriers:
            self._force(barrier, memo)

    def _stream_spans(self, node: Node, memo: dict[int, object]
                      ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(first_chunk, values)`` of 1-D ``node``, one prefetch
        window of the store's standard chunk grid at a time.

        Per window: announce the sources' chunks, walk the expression
        once over the window's element range, hand the values on.  The
        caller has forced the barriers (``_force_barriers``).
        """
        n = node.shape[0]
        chunk = self.store.scalars_per_block
        num_chunks = -(-n // chunk)
        sources = self._stream_sources(node, memo)
        window = self._stream_window(len(sources))
        for c0 in range(0, num_chunks, window):
            c1 = min(c0 + window, num_chunks)
            self._prefetch_stream_window(sources, c0, c1)
            lo, hi = c0 * chunk, min(c1 * chunk, n)
            values = self._eval_span(node, lo, hi, memo, {})
            if np.ndim(values) == 0:
                values = np.full(hi - lo, float(values))
            yield c0, np.asarray(values)

    def _stream_vector(self, node: Node,
                       memo: dict[int, object]) -> TiledVector:
        self._force_barriers(node.children, memo)
        out = self.store.create_vector(node.shape[0])
        for c0, values in self._stream_spans(node, memo):
            out.write_chunk(c0, values)
        return out

    def _eval_span(self, node: Node, lo: int, hi: int,
                   memo: dict[int, object], span: dict[int, object]):
        """Value of ``node[lo:hi)`` (0-based).

        ``span`` memoizes this window's values by node id, so a shared
        leaf is read once and a shared subexpression computed once per
        window.  Stored vectors are read by element range, whatever
        their own chunk size.
        """
        key = id(node)
        if key in span:
            return span[key]
        span[key] = value = self._span_value(node, lo, hi, memo, span)
        return value

    def _span_value(self, node: Node, lo: int, hi: int,
                    memo: dict[int, object], span: dict[int, object]):
        if isinstance(node, Scalar):
            return node.value
        if isinstance(node, Range):
            return np.arange(node.lo + lo, node.lo + hi, dtype=np.float64)
        data = memo.get(id(node))
        if data is None and isinstance(node, ArrayInput):
            data = node.data
        if isinstance(data, TiledVector):
            return data.read_range(lo, hi)
        if isinstance(data, float):
            return data
        if isinstance(node, ArrayInput):
            return np.asarray(data)[lo:hi]
        if isinstance(node, Map):
            return ELEMENTWISE_OPS[node.op](
                *[self._eval_span(c, lo, hi, memo, span)
                  for c in node.children])
        if isinstance(node, SubscriptAssign) and node.logical_mask:
            mask = self._eval_span(node.index, lo, hi, memo, span)
            base = self._eval_span(node.base, lo, hi, memo, span)
            value = self._eval_span(node.value, lo, hi, memo, span)
            return np.where(np.asarray(mask, dtype=bool), value, base)
        # Barrier node that was pre-forced into memo.
        forced = self._force(node, memo)
        if isinstance(forced, TiledVector):
            return forced.read_range(lo, hi)
        return forced

    # ------------------------------------------------------------------
    # Subscript (gather) — selective evaluation
    # ------------------------------------------------------------------
    def _force_subscript(self, node: Subscript,
                         memo: dict[int, object]) -> TiledVector:
        index = self._index_values(node.index, memo)
        src = node.src
        if isinstance(src, ArrayInput) and isinstance(src.data,
                                                      TiledVector):
            gathered = src.data.gather(index - 1)
        elif isinstance(src, Range):
            gathered = (index - 1 + src.lo).astype(np.float64)
        else:
            forced = self._force(src, memo)
            if isinstance(forced, TiledVector):
                gathered = forced.gather(index - 1)
            else:
                gathered = np.asarray(forced)[index - 1]
        return self.store.vector_from_numpy(gathered)

    def _index_values(self, node: Node,
                      memo: dict[int, object]) -> np.ndarray:
        """1-based integer index values of an index expression."""
        if isinstance(node, Range):
            return np.arange(node.lo, node.hi + 1, dtype=np.int64)
        forced = self._force(node, memo)
        if isinstance(forced, TiledVector):
            return forced.to_numpy().astype(np.int64)
        return np.asarray(forced).astype(np.int64)

    def _force_scatter(self, node: SubscriptAssign,
                       memo: dict[int, object]) -> TiledVector:
        """Positional ``b[s] <- v``: copy-on-write then random scatter."""
        base = self._force(node.base, memo)
        if not isinstance(base, TiledVector):
            raise NotImplementedError("scatter base must be a vector")
        index = self._index_values(node.index, memo)
        value = self._force(node.value, memo)
        if isinstance(value, TiledVector):
            values = value.to_numpy()
        elif np.ndim(value) == 0:
            values = np.full(index.size, float(value))
        else:
            values = np.asarray(value, dtype=np.float64)
        out = self.store.create_vector(base.length)
        step = self._stream_window(1) * out.chunk
        for lo in range(0, base.length, step):
            out.write_chunk(lo // out.chunk,
                            base.read_range(lo, min(lo + step,
                                                    base.length)))
        out.scatter(index - 1, values)
        return out

    # ------------------------------------------------------------------
    # Reductions / matrices
    # ------------------------------------------------------------------
    def _force_reduce(self, node: Reduce, memo: dict[int, object]):
        child = node.children[0]
        if child.ndim == 2:
            data = self._force(child, memo)
            acc_sum, acc_min, acc_max, count = 0.0, np.inf, -np.inf, 0
            for ti, tj in data.tiles():
                tile = data.read_tile(ti, tj)
                acc_sum += float(tile.sum())
                acc_min = min(acc_min, float(tile.min()))
                acc_max = max(acc_max, float(tile.max()))
                count += tile.size
        else:
            self._force_barriers((child,), memo)
            # Partials fold per chunk of the store's grid, in chunk
            # order, so the result's bits do not depend on the window.
            chunk_len = self.store.scalars_per_block
            acc_sum, acc_min, acc_max, count = 0.0, np.inf, -np.inf, 0
            for _, values in self._stream_spans(child, memo):
                for at in range(0, values.size, chunk_len):
                    chunk = values[at: at + chunk_len]
                    acc_sum += float(chunk.sum())
                    acc_min = min(acc_min, float(chunk.min()))
                    acc_max = max(acc_max, float(chunk.max()))
                    count += chunk.size
        if node.op == "sum":
            return acc_sum
        if node.op == "mean":
            return acc_sum / max(count, 1)
        if node.op == "min":
            return acc_min
        return acc_max

    def _stream_matrix(self, node: Node,
                       memo: dict[int, object]) -> TiledMatrix:
        """Tile-aligned elementwise evaluation for matrix Maps."""
        if not isinstance(node, Map):
            raise NotImplementedError(
                f"cannot stream matrix node {type(node).__name__}")
        inputs = []
        for c in node.children:
            if c.shape == ():
                inputs.append(self._force(c, memo))
            else:
                forced = self._densified(self._force(c, memo))
                if not isinstance(forced, TiledMatrix):
                    raise NotImplementedError(
                        "matrix operands must be stored matrices")
                inputs.append(forced)
        template = next(i for i in inputs if isinstance(i, TiledMatrix))
        out = self.store.create_matrix(
            node.shape, tile_shape=template.tile_shape,
            linearization=template.linearization.name)
        fn = ELEMENTWISE_OPS[node.op]
        for ti, tj in out.tiles():
            r0, r1, c0, c1 = out.tile_bounds(ti, tj)
            args = []
            for inp in inputs:
                if isinstance(inp, TiledMatrix):
                    args.append(inp.read_submatrix(r0, r1, c0, c1))
                else:
                    args.append(inp)
            out.write_tile(ti, tj, np.asarray(fn(*args),
                                              dtype=np.float64))
        return out

    # ------------------------------------------------------------------
    # Fused matmul epilogues
    # ------------------------------------------------------------------
    def _try_fused_epilogue(self, node: Map, memo: dict[int, object]):
        """Runtime fuse-or-not for the tree-dispatch fallback.

        When the Map region is fed by exactly one MatMul/Crossprod that
        will run a dense kernel, the whole scalar expression tree is
        applied to each output submatrix while it is memory-resident
        and written once: the raw product never exists on disk.
        Returns the result matrix, or ``None`` to fall back to the
        materialize-then-stream path (sparse plans, multiple barriers,
        non-conforming shapes).  Plans built by the
        :class:`~repro.core.planner.Planner` make this decision at
        plan time instead, with both alternatives costed.
        """
        from .planner import classify_epilogue_region
        region = classify_epilogue_region(
            node, lambda n: isinstance(n, ArrayInput),
            memo_ids=set(memo))
        if region is None:
            return None
        barriers, matrix_nodes, scalar_nodes, region_edges = region
        if len(barriers) != 1:
            return None
        barrier = barriers[0]
        if barrier.shape != node.shape:
            return None
        for nid, edges in region_edges.items():
            if edges < self._parent_edges.get(nid, 0):
                # The product — or an interior Map on the way to it —
                # has consumers outside this region; fusing (which
                # memoizes neither) would make them recompute the
                # multiply.
                return None
        if isinstance(barrier, MatMul):
            if barrier.kernel == "sparse":
                return None
            a = self._force(barrier.children[0], memo)
            from repro.sparse import SparseTiledMatrix
            if (barrier.kernel == "auto"
                    and not (barrier.trans_a or barrier.trans_b)
                    and isinstance(a, SparseTiledMatrix)):
                return None  # SpMM/SpGEMM dispatch wins; no dense fusion
        for n in matrix_nodes:
            forced = self._as_tiled_matrix(self._force(n, memo))
            if forced.shape != node.shape:
                return None
        return self._run_epilogue(node, barrier, matrix_nodes,
                                  scalar_nodes, memo)

    def _run_epilogue(self, node: Map, barrier: Node,
                      matrix_nodes: list[Node],
                      scalar_nodes: list[Node],
                      memo: dict[int, object]) -> TiledMatrix:
        """Run a fused epilogue region (legality already established).

        Shared by the runtime heuristic above and by
        :class:`~repro.core.plan.FusedEpilogueOp` execution; operand
        and input forcing hits the memo when a plan pre-executed them.
        """
        if isinstance(barrier, MatMul):
            operands = (
                self._as_tiled_matrix(
                    self._force(barrier.children[0], memo)),
                self._as_tiled_matrix(
                    self._force(barrier.children[1], memo)))
        else:
            operands = (self._as_tiled_matrix(
                self._force(barrier.children[0], memo)),)
        inputs: dict[int, TiledMatrix] = {
            id(n): self._as_tiled_matrix(self._force(n, memo))
            for n in matrix_nodes}
        values = {id(n): float(self._force(n, memo))
                  for n in scalar_nodes}

        def epilogue(r0: int, c0: int, block: np.ndarray) -> np.ndarray:
            r1 = r0 + block.shape[0]
            c1 = c0 + block.shape[1]

            def ev(n: Node):
                if n is barrier:
                    return block
                if id(n) in values:
                    return values[id(n)]
                sub = inputs.get(id(n))
                if sub is not None:
                    return sub.read_submatrix(r0, r1, c0, c1)
                return ELEMENTWISE_OPS[n.op](*[ev(c) for c in n.children])

            return np.asarray(ev(node), dtype=np.float64)

        if isinstance(barrier, Crossprod):
            return crossprod_matmul(self.store, operands[0],
                                    self.memory_scalars,
                                    t_first=barrier.t_first,
                                    epilogue=epilogue,
                                    epilogue_inputs=len(inputs),
                                    parallel=self._kernel_parallel())
        return square_tile_matmul(self.store, operands[0], operands[1],
                                  self.memory_scalars,
                                  trans_a=barrier.trans_a,
                                  trans_b=barrier.trans_b,
                                  epilogue=epilogue,
                                  epilogue_inputs=len(inputs),
                                  parallel=self._kernel_parallel())

    def _force_transpose(self, node: Transpose,
                         memo: dict[int, object]) -> TiledMatrix:
        """Materialize a *bare* transpose (one read + one write pass).

        The rewriter eliminates transposes that feed products, so this
        fallback only runs for explicitly forced ``t(A)``.  The output
        keeps the source's linearization and carries its name, so a
        stored transpose is as recognizable — and its scans as
        sequential — as the array it came from.
        """
        src = self._densified(self._force(node.children[0], memo))
        out = self.store.create_matrix(
            node.shape, tile_shape=src.tile_shape[::-1],
            linearization=src.linearization.name,
            name=f"t({src.name})")
        for ti, tj in src.tiles():
            r0, r1, c0, c1 = src.tile_bounds(ti, tj)
            out.write_submatrix(c0, r0,
                                src.read_submatrix(r0, r1, c0, c1).T)
        return out
