"""Optimizer configuration: one level, three overrides, two run modes.

Every level evaluates the same way — the DAG is lowered to a
:class:`~repro.core.plan.PhysicalPlan` and the evaluator executes it —
so ``explain`` and ``explain(analyze=True)`` work at each of them.  The
``level`` sets how much the optimizer may change on the way:

- **level 0** — nothing.  No logical pass runs and the planner lowers
  each node as written to its default operator (program order,
  type-driven kernel, no fusion, every LU on a copy of its operand).
  Dead intermediates are still dropped: that is the executor's, not
  an optimizer choice.  The ablation baseline of every
  benchmark: same executor, no optimizer.
- **level 1** — logical rewriting only: constant folding, CSE,
  subscript pushdown, transpose absorption and the inv-to-solve
  rewrite run to fixpoint, but physical choices stay heuristic
  (program-order chains, type-driven kernel dispatch, fuse epilogues
  and share crossprod scans whenever legal).
- **level 2** (default) — logical rewriting plus cost-based physical
  planning: the planner enumerates kernel alternatives, chain orders
  and fuse-vs-materialize per node and picks by the Appendix-A /
  nnz-parameterized I/O models.

``pushdown``, ``chain_reorder`` and ``fuse_epilogues`` override what
the level implies for that one decision (the ablations the benchmarks
and the README run); ``None`` means "whatever the level implies".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OptimizerConfig:
    """Optimization level plus per-decision overrides (``None`` =
    what the level implies).

    ``fuse_epilogues`` is special: at level 1 fusion fires whenever it
    is legal (the old heuristic); at level 2 the planner additionally
    checks that the fused plan is model-cheaper than materializing the
    product, and materializes when it is not (a fused crossprod's
    smaller panel can re-read its operand more than the product's
    write and re-read cost); ``explain`` shows the alternative either
    way.  It also
    gates the other way operators share work: a ``t(X) %*% B`` that
    rides on ``crossprod(X)``'s scan of X (one operator computes
    both).  Sharing needs level >= 1 — level 0 never shares, whatever
    the override — and ``fuse_epilogues=False`` turns it off with
    fusion.

    ``strict`` runs the static plan verifier
    (:func:`repro.analysis.planlint.verify_plan`) over every plan
    before it executes (and before ``explain`` renders it): shape
    conformability, kernel budgets and pins, epilogue legality and
    prediction sanity are checked up front, with errors naming the
    offending operator instead of a kernel failing mid-plan.

    ``parallelism`` has one legal value, 1: every kernel runs on the
    calling thread, and the engine's only parallelism is the BLAS
    library's threads (``OPENBLAS_NUM_THREADS``); see
    :mod:`repro.core.parallel` for the determinism contract.  The
    field stays only because the macro benchmark harness still passes
    ``parallelism=1``.
    """

    level: int = 2
    pushdown: bool | None = None
    chain_reorder: bool | None = None
    fuse_epilogues: bool | None = None
    strict: bool = False
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.level not in (0, 1, 2):
            raise ValueError(
                f"optimizer level must be 0, 1 or 2, got {self.level}")
        if self.parallelism != 1:
            raise ValueError(
                f"parallelism must be 1, got {self.parallelism!r}: the "
                "engine has no tile workers; set OPENBLAS_NUM_THREADS "
                "for BLAS threads")

    # -- resolution ----------------------------------------------------
    @property
    def rewrites(self) -> bool:
        """Do the logical passes run?"""
        return self.level >= 1

    @property
    def costed(self) -> bool:
        """Are physical choices made by the cost models?"""
        return self.level >= 2

    @property
    def pushdown_enabled(self) -> bool:
        if self.pushdown is not None:
            return bool(self.pushdown)
        return self.rewrites

    @property
    def chain_reorder_enabled(self) -> bool:
        if self.chain_reorder is not None:
            return bool(self.chain_reorder)
        return self.costed

    @property
    def fusion_enabled(self) -> bool:
        if self.fuse_epilogues is not None:
            return bool(self.fuse_epilogues)
        return self.rewrites
