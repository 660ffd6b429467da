"""Transpose elimination (§5 rule 10): flags, not disk passes.

``t(t(A))`` cancels; ``t`` of a symmetric :class:`Crossprod` is the
identity; ``t(A %*% B)`` swaps the operands and flips their flags
(``(AB)^T = B^T A^T``); ``t(A) %*% B`` becomes
``MatMul(A, B, trans_a=True)`` (the flag reads A in stored layout,
transposing tiles in memory); and the symmetric patterns
``t(A) %*% A`` / ``A %*% t(A)`` become :class:`Crossprod`, whose kernel
computes only the upper-triangular output blocks.  Sparse-stored
operands keep their Transpose, and so does every operand of a product
pinned to the sparse kernels — they have no flagged variants, so
materialising the transpose stays the fallback.
"""

from __future__ import annotations

from ..expr import Crossprod, MatMul, Node, Transpose
from .base import Pass, PassContext
from .sparsity import sparse_stored


class TransposePass(Pass):
    name = "transpose"

    def rewrite(self, node: Node, ctx: PassContext) -> Node:
        if isinstance(node, Transpose):
            return self._push(node, ctx)
        if isinstance(node, MatMul):
            return self._absorb(node, ctx)
        return node

    # -- t(...) of a subtree -------------------------------------------
    def _push(self, node: Transpose, ctx: PassContext) -> Node:
        child = node.children[0]
        if isinstance(child, Transpose):
            ctx.record("transpose-cancel")
            return child.children[0]
        if isinstance(child, Crossprod):
            ctx.record("transpose-symmetric")
            return child
        if isinstance(child, MatMul) and child.kernel != "sparse":
            a, b = child.children
            if sparse_stored(a) or sparse_stored(b):
                return node
            ctx.record("transpose-push-matmul")
            return MatMul(b, a, kernel=child.kernel,
                          trans_a=not child.trans_b,
                          trans_b=not child.trans_a)
        return node

    # -- t(...) as a product operand -----------------------------------
    def _absorb(self, node: MatMul, ctx: PassContext) -> Node:
        if node.kernel == "sparse":
            return node
        a, b = node.children
        ta, tb = node.trans_a, node.trans_b
        changed = False
        if isinstance(a, Transpose) and \
                not sparse_stored(a.children[0]):
            a, ta, changed = a.children[0], not ta, True
        if isinstance(b, Transpose) and \
                not sparse_stored(b.children[0]):
            b, tb, changed = b.children[0], not tb, True
        if changed:
            ctx.record("transpose-absorb")
            return MatMul(a, b, kernel=node.kernel,
                          trans_a=ta, trans_b=tb)
        if a is b and ta != tb and not sparse_stored(a):
            ctx.record("crossprod")
            return Crossprod(a, t_first=ta)
        return node
