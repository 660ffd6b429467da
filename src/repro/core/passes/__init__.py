"""The logical pass pipeline of the two-stage optimizer.

Stage 1 of the optimizer (:mod:`repro.core.planner` is stage 2): a
sequence of independent, ordered, individually-testable rewrites over
expression DAGs, iterated to fixpoint.  :func:`build_pipeline` derives
the pass list from an :class:`~repro.core.config.OptimizerConfig`;
``legacy=True`` additionally appends the chain-reorder and
kernel-select passes so the deprecated :class:`~repro.core.rewrite.
Rewriter` shim reproduces the old monolith's behaviour on the logical
DAG.
"""

from __future__ import annotations

from ..config import OptimizerConfig
from .base import Pass, PassContext, Pipeline, bottom_up
from .chain_reorder import (ChainReorderPass, build_order,
                            chosen_order, collect_chain, current_order)
from .cse import CSEPass
from .fold import FoldPass
from .kernel_select import (KernelSelectPass, clamped_dense_io,
                            matmul_kernel_costs, sparse_product_cost)
from .pushdown import PushdownPass
from .signatures import canon_key, dag_signature, node_attrs
from .solve import SolveRewritePass
from .sparsity import (DENSE_THRESHOLD, sparse_stored,
                       sparse_tile_shape, storage_map)
from .transpose import TransposePass

__all__ = [
    "CSEPass", "ChainReorderPass", "DENSE_THRESHOLD", "FoldPass",
    "KernelSelectPass", "Pass", "PassContext", "Pipeline",
    "PushdownPass", "SolveRewritePass", "TransposePass",
    "bottom_up", "build_order", "build_pipeline", "canon_key",
    "chosen_order", "clamped_dense_io", "collect_chain",
    "current_order", "dag_signature", "matmul_kernel_costs",
    "node_attrs", "sparse_product_cost", "sparse_stored",
    "sparse_tile_shape", "storage_map",
]


def build_pipeline(config: OptimizerConfig,
                   legacy: bool = False) -> Pipeline:
    """Pass list implied by a config.

    Order mirrors the old monolithic rule loop: fold, pushdown,
    inv-to-solve, transpose absorption, (legacy: chain reorder and
    kernel select), CSE.  The pipeline's fixpoint loop re-runs the
    whole sequence until the DAG signature stabilizes.
    """
    passes: list[Pass] = []
    if config.pass_enabled("fold"):
        passes.append(FoldPass())
    if config.pass_enabled("pushdown"):
        passes.append(PushdownPass())
    if config.pass_enabled("solve_rewrite"):
        passes.append(SolveRewritePass())
    if config.pass_enabled("transpose"):
        passes.append(TransposePass())
    if legacy:
        if config.choice_enabled("chain_reorder"):
            passes.append(ChainReorderPass())
        if config.choice_enabled("kernel_select"):
            passes.append(KernelSelectPass())
    if config.pass_enabled("cse"):
        passes.append(CSEPass())
    return Pipeline(passes, max_passes=config.max_passes)
