"""RiotSession: the public entry point to next-generation RIOT.

A session owns the tile store (with its memory-capped buffer pool), the
two-stage optimizer (logical pass pipeline + cost-based physical
planner), the evaluator, and a cache of materialized results for named
objects (§5's materialization policy: deferred evaluation needs selective
materialization "otherwise RIOT may have to repeat the same computation
across multiple complex expression DAGs").

``force()`` runs the pipeline, lowers the logical DAG to a
:class:`~repro.core.plan.PhysicalPlan` and executes it, at every
optimizer level: at level 0 the pipeline is empty and the planner
lowers the DAG as written, so the un-optimized baseline every ablation
benchmark measures against runs on the same executor.  ``explain()``
renders the plan with each operator's predicted block I/O — and, once
forced, the measured blocks next to it.

The session stores arrays and hands out their handles; it builds no
operator nodes itself.  ``solve`` / ``crossprod`` / ``tcrossprod``
delegate to the :mod:`~repro.core.arrays` handle methods, and whatever
``plan`` / ``force`` / ``explain`` are given — a handle, a node, a
number — is unwrapped by the handles' one rule (``_scalarize``).
"""

from __future__ import annotations

import numpy as np

from repro.obs import CalibrationReport, MetricsRegistry
from repro.storage import ArrayStore, IOStats, StorageConfig

from .arrays import RiotMatrix, RiotVector, _scalarize
from .config import OptimizerConfig
from .evaluator import Evaluator
from .expr import ArrayInput, Node, Range, render
from .passes import PassContext, build_pipeline
from .plan import PhysicalPlan
from .planner import Planner


class RiotSession:
    """Deferred, I/O-efficient array computing over a memory-capped store.

    A session takes its settings from two configs and nowhere else.
    The storage contract — backend (in-memory simulator, ``mmap`` page
    file, or ``pread`` page file), page-file path, buffer-pool budget,
    block size, durability, codec and dtype — is one
    :class:`~repro.storage.StorageConfig`, whose ``memory_scalars`` and
    ``block_scalars`` are the M and B the planner, the evaluator and
    the plan verifier all read; the optimizer level, its overrides and
    ``strict`` are one :class:`~repro.core.config.OptimizerConfig`::

        RiotSession(storage=StorageConfig(backend="mmap",
                                          path="/tmp/riot.db",
                                          memory_bytes=64 << 20),
                    config=OptimizerConfig(level=0))

    or through the URL convenience ``repro.open_session(...)``.
    Sessions on a file backend should be closed (or used as a context
    manager) so dirty frames reach the page file and temporary files
    are removed.
    """

    def __init__(self, config: OptimizerConfig | None = None,
                 storage: StorageConfig | None = None) -> None:
        if storage is None:
            storage = StorageConfig()
        self.storage = storage
        self.store = ArrayStore(storage)
        self.config = config if config is not None else OptimizerConfig()
        self.pipeline = build_pipeline(self.config)
        self.planner = Planner(self.config, storage)
        self.evaluator = Evaluator(self.store, self.config)
        # Observability: the store's tracer plus a registry of live
        # counter sources, all exported by session.metrics.snapshot().
        # Sources are lambdas so they track the *current* stats objects
        # across reset_stats() / device swaps.
        self.metrics = MetricsRegistry()
        self.metrics.register_source(
            "io", lambda: self.store.device.stats.as_dict())
        self.metrics.register_source(
            "pool", lambda: self.store.pool.stats.as_dict())
        self.metrics.register_source(
            "scheduler",
            lambda: self.store.pool.scheduler.stats.as_dict())
        self.metrics.register_source("tracer", self._tracer_health)
        # id -> (node, result).  The node rides along to pin its id:
        # a dict keyed on id() alone would hand a *new* DAG node that
        # recycled a collected node's address someone else's result.
        self._materialized: dict[int, tuple[Node, object]] = {}
        # id -> (node, plan): explain() and force() share one plan per
        # root, so measured I/O lands on the object explain() renders.
        self._plans: dict[int, tuple[Node, PhysicalPlan]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    def vector(self, data, name: str | None = None) -> RiotVector:
        """Store a vector and return its deferred handle."""
        stored = self.store.vector_from_numpy(
            np.asarray(data, dtype=np.float64), name=name)
        return RiotVector(self, ArrayInput(stored, name=stored.name))

    def matrix(self, data, layout: str = "square",
               linearization: str = "row",
               name: str | None = None) -> RiotMatrix:
        stored = self.store.matrix_from_numpy(
            np.asarray(data, dtype=self.store.dtype), layout=layout,
            linearization=linearization, name=name)
        return RiotMatrix(self, ArrayInput(stored, name=stored.name))

    def sparse_matrix(self, rows, cols, values, shape: tuple[int, int],
                      name: str | None = None) -> RiotMatrix:
        """Store 0-based COO triplets as CSR tiles under ``name``, which
        persists as a dense matrix's does; deferred handle.  Its DAG
        node carries the exact density, so the rewriter's chain
        ordering and the planner's kernel selection see it."""
        from repro.sparse import SparseTiledMatrix
        stored = SparseTiledMatrix.from_coo(self.store, rows, cols,
                                            values, shape, name=name)
        return RiotMatrix(self, ArrayInput(stored, name=stored.name))

    def random_sparse_matrix(self, rows: int, cols: int, density: float,
                             seed: int = 0) -> RiotMatrix:
        """Uniformly sparse random matrix (standard-normal values)."""
        rng = np.random.default_rng(seed)
        nnz = int(round(density * rows * cols))
        flat = rng.choice(rows * cols, size=nnz, replace=False)
        return self.sparse_matrix(flat // cols, flat % cols,
                                  rng.standard_normal(nnz),
                                  (rows, cols))

    def arange(self, lo: int, hi: int) -> RiotVector:
        """The lazy range ``lo:hi`` (generated, never stored)."""
        return RiotVector(self, Range(lo, hi))

    def zeros(self, n: int) -> RiotVector:
        return self.vector(np.zeros(n))

    def random_vector(self, n: int, seed: int = 0) -> RiotVector:
        rng = np.random.default_rng(seed)
        return self.vector(rng.standard_normal(n))

    def random_matrix(self, rows: int, cols: int, seed: int = 0,
                      layout: str = "square") -> RiotMatrix:
        rng = np.random.default_rng(seed)
        return self.matrix(rng.standard_normal((rows, cols)),
                           layout=layout)

    # ------------------------------------------------------------------
    # Linear systems
    # ------------------------------------------------------------------
    def solve(self, a: RiotMatrix, b=None):
        """R's ``solve()``: ``solve(a, b)`` defers ``A x = b``;
        ``solve(a)`` defers the explicit inverse.

        Both are DAG nodes, so the rewriter sees them: a deferred
        ``session.solve(a) @ b`` plan is rewritten back into a single
        Solve before anything is materialized.
        """
        return a.inv() if b is None else a.solve(b)

    def crossprod(self, a: RiotMatrix, b=None) -> RiotMatrix:
        """R's ``crossprod``: ``t(a) %*% b`` without materializing the
        transpose; ``crossprod(a)`` defers the symmetric
        :class:`~repro.core.expr.Crossprod` node (half the reads and
        FLOPs)."""
        return a.crossprod(b)

    def tcrossprod(self, a: RiotMatrix, b=None) -> RiotMatrix:
        """R's ``tcrossprod``: ``a %*% t(b)``, transpose-free."""
        return a.tcrossprod(b)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def plan(self, obj) -> PhysicalPlan:
        """The physical plan ``force()`` will (or did) execute.

        Plans are cached per root node, so calling ``explain`` before
        and after a ``force`` shows the same operator tree — first
        with predictions only, then with measured blocks next to them.
        """
        node = _scalarize(obj)
        cached = self._plans.get(id(node))
        if cached is not None and cached[0] is node:
            return cached[1]
        logical = self.pipeline.run(node, PassContext(self.tracer))
        with self.tracer.span("planner", cat="optimizer"):
            plan = self.planner.plan(logical)
        self._plans[id(node)] = (node, plan)
        return plan

    def force(self, obj):
        """Evaluate a handle's DAG; returns the stored array or scalar.

        Results for the exact DAG node are cached, so forcing a named
        object twice does not repeat its computation (the materialization
        policy of §5's Discussion).
        """
        node = _scalarize(obj)
        cached = self._materialized.get(id(node))
        if cached is not None and cached[0] is node:
            return cached[1]
        result = self.evaluator.execute(self.plan(node))
        self._materialized[id(node)] = (node, result)
        return result

    def values(self, obj) -> np.ndarray | float:
        """Force and pull the result into memory as numpy data."""
        result = self.force(obj)
        if hasattr(result, "to_numpy"):
            return result.to_numpy()
        return result

    # ------------------------------------------------------------------
    # Persistence & lifecycle
    # ------------------------------------------------------------------
    def open_vector(self, name: str) -> RiotVector:
        """Handle for a named vector already in the session's store —
        either created this session or persisted in the page file a
        file-backed session reopened."""
        stored = self.store.open_vector(name)
        return RiotVector(self, ArrayInput(stored, name=stored.name))

    def open_matrix(self, name: str) -> RiotMatrix:
        """Handle for a named matrix, dense or sparse, already in the
        session's store or persisted in the page file it reopened."""
        stored = self.store.open_matrix(name)
        return RiotMatrix(self, ArrayInput(stored, name=stored.name))

    def stored_names(self) -> list[str]:
        """Names of the store's live arrays (a dropped one is gone)."""
        return self.store.stored_names()

    def close(self) -> None:
        """Flush dirty frames and release the backing device.

        On a file backend with an explicit path this persists the
        array manifest for a later ``open_session``; unnamed temporary
        page files are deleted.  Idempotent.
        """
        self.store.close()

    def __enter__(self) -> "RiotSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> IOStats:
        return self.store.device.stats

    @property
    def tracer(self):
        """The store's span tracer (off by default; see repro.obs)."""
        return self.store.tracer

    def _tracer_health(self) -> dict:
        t = self.tracer
        return {"enabled": t.enabled, "spans": len(t),
                "spans_opened": t.spans_opened,
                "spans_dropped": t.spans_dropped}

    def reset_stats(self) -> None:
        self.store.reset_stats()

    def explain(self, obj, analyze: bool = False) -> str:
        """Render the optimizer's view of a DAG (Figure 2, upgraded).

        Three sections: the DAG as written, the logically rewritten
        DAG (the same one at level 0), and the physical plan with
        per-operator predicted block I/O (plus measured blocks once
        the handle has been forced) and the enumerated alternatives
        each choice beat.

        ``analyze=True`` executes the plan under the tracer first
        (EXPLAIN ANALYZE): every operator then also shows its measured
        I/O delta (blocks, bytes, syscalls, device time), buffer-pool
        behavior, wall-clock, and the measured/predicted ratio —
        flagged when it leaves the validated 0.5–2.0x band — followed
        by a per-cost-model calibration summary.  The plan runs once,
        cold, one operator at a time, so the per-op measurements are
        exclusive.
        """
        node = _scalarize(obj)
        if analyze:
            # Plan inside the recording window too, so the trace shows
            # the optimizer passes next to the execution spans (a
            # cached plan contributes no optimizer spans — it did not
            # run again).
            with self.tracer.recording():
                plan = self.plan(node)
                self.evaluator.execute(plan, cold=True)
        else:
            plan = self.plan(node)
            if self.config.strict:
                # The analyze path verifies inside execute(); verify
                # the render-only path too so strict explain() rejects
                # an infeasible plan instead of printing it.
                from repro.analysis.planlint import verify_plan
                verify_plan(plan, self.storage)
        text = ("-- original --\n" + render(node)
                + "\n-- optimized --\n" + render(plan.logical_root)
                + f"\n-- physical plan (level {plan.level}) --\n"
                + plan.render(analyze=analyze))
        if analyze:
            text += "\n" + self._render_analyze_summary(plan)
        return text

    def _render_analyze_summary(self, plan: PhysicalPlan) -> str:
        """The trailing EXPLAIN ANALYZE section: session-level totals
        plus the per-cost-model calibration verdicts."""
        # Per-op measurements are exclusive of children (the evaluator
        # snapshots after the children ran), so summing them yields the
        # run's exact totals.
        io = IOStats()
        pool_hits = pool_misses = 0
        wall_ns = 0
        for op in plan.ops():
            if op.measured is not None:
                io = io.merged(op.measured)
            if op.pool_measured is not None:
                pool_hits += op.pool_measured.hits
                pool_misses += op.pool_measured.misses
            wall_ns += op.wall_ns or 0
        lines = [f"-- analyze (backend={self.storage.backend}) --",
                 f"execution: {io.reads} blk read, {io.writes} blk "
                 f"written, {io.syscalls} syscalls, "
                 f"{io.seconds:.6f} s device, "
                 f"{wall_ns / 1e9:.6f} s wall",
                 f"pool: {pool_hits} hits / {pool_misses} misses"]
        report = CalibrationReport()
        report.add_plan(plan)
        for name in sorted(report.models):
            entry = report.models[name]
            med = entry.median_ratio
            if med is None:
                verdict = (f"no band-checkable samples "
                           f"({entry.n_skipped} below noise floor)")
            else:
                ok = entry.in_band(report.band)
                verdict = (f"median ratio {med:.3f} over "
                           f"{len(entry.ratios)} op(s) "
                           + ("ok" if ok else
                              f"!! outside [{report.band[0]}, "
                              f"{report.band[1]}]"))
            lines.append(f"calibration: {name}: {verdict}")
        return "\n".join(lines)

    def calibration_report(self, obj=None) -> CalibrationReport:
        """Machine-readable cost-model drift report.

        With ``obj``, covers that handle's (executed) plan; without,
        aggregates every plan this session has executed.  Run
        ``explain(obj, analyze=True)`` or ``force(obj)`` first so
        there are measurements to aggregate.
        """
        report = CalibrationReport()
        if obj is not None:
            plan = self.plan(obj)
            if plan.executed:
                report.add_plan(plan)
            return report
        for _node, plan in self._plans.values():
            if plan.executed:
                report.add_plan(plan)
        return report
