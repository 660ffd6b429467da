"""Next-generation RIOT (§5): expression DAGs, rewrites, cost models.

Public API::

    from repro.core import RiotSession
    from repro.storage import StorageConfig

    s = RiotSession(storage=StorageConfig(memory_bytes=64 << 20))
    x = s.random_vector(1 << 20, seed=1)
    d = ((x - 3.0) ** 2).sqrt()
    z = d[s.arange(1, 100)]     # deferred
    z.values()                  # selective evaluation: touches ~1 chunk
"""

from . import chain, costs, passes
from .arrays import RiotMatrix, RiotVector
from .config import OptimizerConfig
from .evaluator import Evaluator
from .expr import (ArrayInput, Crossprod, Inverse, Map, MatMul, Node,
                   Range, Reduce, Scalar, Solve, Subscript,
                   SubscriptAssign, Transpose, count_nodes, render,
                   to_dot, walk)
from .plan import PhysicalPlan
from .planner import Planner
from .session import RiotSession

__all__ = [
    "ArrayInput", "Crossprod", "Evaluator", "Inverse", "Map", "MatMul",
    "Node", "OptimizerConfig", "PhysicalPlan", "Planner", "Range",
    "Reduce", "RiotMatrix", "RiotSession", "RiotVector",
    "Scalar", "Solve", "Subscript", "SubscriptAssign",
    "Transpose", "chain", "costs", "count_nodes", "passes",
    "render", "to_dot", "walk",
]
