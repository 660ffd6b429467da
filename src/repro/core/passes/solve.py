"""Inverse elimination: ``inv(A) %*% B -> solve(A, B)`` (§5 rule 9)."""

from __future__ import annotations

from ..expr import Inverse, MatMul, Node, Solve
from .base import Pass, PassContext


class SolveRewritePass(Pass):
    """Replace a multiply by an explicit inverse with a Solve node.

    Algebraically equal, but the solve plan factors A once and
    substitutes, while the inverse plan additionally materializes the
    n x n inverse and runs a full out-of-core multiply — strictly more
    I/O (:func:`repro.core.costs.inverse_io` vs ``solve_op_io``).
    The classic array-algebra rewrite a SQL host cannot express.
    """

    name = "solve-rewrite"

    def rewrite(self, node: Node, ctx: PassContext) -> Node:
        if isinstance(node, MatMul) and \
                isinstance(node.children[0], Inverse):
            ctx.record("inv-to-solve")
            return Solve(node.children[0].children[0],
                         node.children[1])
        return node
