"""The logical pass pipeline of the two-stage optimizer.

Stage 1 of the optimizer (:mod:`repro.core.planner` is stage 2): a
sequence of independent, ordered, individually-testable rewrites over
expression DAGs, iterated to fixpoint.  :func:`build_pipeline` derives
the pass list from an :class:`~repro.core.config.OptimizerConfig` —
empty at level 0.  Chain order and kernel choice are not passes: the
planner makes them while lowering, chain order with the helpers in
:mod:`.chain_reorder`.
"""

from __future__ import annotations

from ..config import OptimizerConfig
from .base import Pass, PassContext, Pipeline, bottom_up
from .chain_reorder import (build_order, chosen_order, collect_chain,
                            current_order)
from .cse import CSEPass
from .fold import FoldPass
from .pushdown import PushdownPass
from .signatures import canon_key, dag_signature, node_attrs
from .solve import SolveRewritePass
from .sparsity import (DENSE_THRESHOLD, sparse_stored,
                       sparse_tile_shape, storage_map)
from .transpose import TransposePass

__all__ = [
    "CSEPass", "DENSE_THRESHOLD", "FoldPass", "Pass", "PassContext",
    "Pipeline", "PushdownPass", "SolveRewritePass", "TransposePass",
    "bottom_up", "build_order", "build_pipeline", "canon_key",
    "chosen_order", "collect_chain", "current_order", "dag_signature",
    "node_attrs", "sparse_stored", "sparse_tile_shape", "storage_map",
]


def build_pipeline(config: OptimizerConfig) -> Pipeline:
    """Pass list implied by a config.

    Order: fold, pushdown, inv-to-solve, transpose absorption, CSE.
    The pipeline's fixpoint loop re-runs the whole sequence until the
    DAG signature stabilizes.
    """
    passes: list[Pass] = []
    if config.rewrites:
        passes.append(FoldPass())
    if config.pushdown_enabled:
        passes.append(PushdownPass())
    if config.rewrites:
        passes += [SolveRewritePass(), TransposePass(), CSEPass()]
    return Pipeline(passes)
