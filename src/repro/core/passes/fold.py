"""Constant folding over scalar subtrees (§5 rule 5)."""

from __future__ import annotations

from ..expr import ELEMENTWISE_OPS, Map, Node, Scalar
from .base import Pass, PassContext


class FoldPass(Pass):
    """``Map`` over all-Scalar children collapses to one Scalar."""

    name = "fold"

    def rewrite(self, node: Node, ctx: PassContext) -> Node:
        if isinstance(node, Map) and all(
                isinstance(c, Scalar) for c in node.children):
            value = ELEMENTWISE_OPS[node.op](
                *(c.value for c in node.children))
            ctx.record("constant-fold")
            return Scalar(float(value))
        return node
