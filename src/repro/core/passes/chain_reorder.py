"""Matrix-chain collection and reordering (§5 rule 7, Appendix B).

Helpers for the physical planner, which reorders whole chains on the
logical DAG before lowering and records the rejected program order as
a costed alternative.  When any factor carries an estimated density
below :data:`~repro.core.passes.sparsity.DENSE_THRESHOLD`, the
nnz-weighted DP replaces the dense flop count, so e.g. a
sparse-sparse-vector chain collapses the cheap sparse product first.
"""

from __future__ import annotations

from .. import chain as chain_mod
from ..expr import MatMul, Node
from .sparsity import DENSE_THRESHOLD


def collect_chain(node: Node, factors: list[Node]) -> None:
    """Flatten a tree of unflagged MatMuls into its factor list.

    A flagged MatMul is opaque to reordering (its operands are not
    chain factors of the outer product) — treat it as a leaf.
    """
    if isinstance(node, MatMul) and not (node.trans_a or node.trans_b):
        collect_chain(node.children[0], factors)
        collect_chain(node.children[1], factors)
    else:
        factors.append(node)


def chosen_order(factors: list[Node]) -> tuple:
    """(order, rule-name) the DP picks for a factor list."""
    dims = [factors[0].shape[0]] + [f.shape[1] for f in factors]
    densities = [f.density for f in factors]
    if min(densities) < DENSE_THRESHOLD:
        return (chain_mod.optimal_order_sparse(dims, densities),
                "chain-reorder-sparse")
    return chain_mod.optimal_order(dims), "chain-reorder"


def current_order(node: Node, factors: list[Node]):
    """The parenthesization ``node`` already has, over ``factors``.

    Leaves are numbered in :func:`collect_chain`'s walk order, not by
    identity: a matrix used twice (``A %*% A %*% A``) is two factors.
    """
    position = iter(range(len(factors)))

    def build(n: Node):
        if isinstance(n, MatMul) and not (n.trans_a or n.trans_b):
            return (build(n.children[0]), build(n.children[1]))
        return next(position)

    return build(node)


def build_order(factors: list[Node], order) -> Node:
    """Materialize a parenthesization as fresh MatMul nodes."""
    if isinstance(order, int):
        return factors[order]
    return MatMul(build_order(factors, order[0]),
                  build_order(factors, order[1]))
