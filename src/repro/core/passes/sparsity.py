"""Sparsity propagation: which plan nodes yield *sparse-stored* results.

Estimated density (propagated at node construction, see
:mod:`repro.core.expr`) and storage format are different things: a SpMM
result is dense-stored however sparse its values.  Sparse storage
arises from a sparse ``ArrayInput`` or from a SpGEMM (sparse x sparse
``%*%`` not forced dense).  Transpose absorption, kernel selection and
the physical planner all consult this one analysis.
"""

from __future__ import annotations

from ..expr import ArrayInput, MatMul, Node, walk

#: Densities at or above this are treated as dense (estimates are
#: fuzzy; a 99.9%-full matrix gains nothing from CSR tiles).
DENSE_THRESHOLD = 0.999


def sparse_stored(node: Node) -> bool:
    """Will forcing this node yield a sparse-stored matrix?"""
    if isinstance(node, ArrayInput):
        return hasattr(node.data, "tile_nnz")
    if isinstance(node, MatMul) and node.kernel != "dense":
        return (sparse_stored(node.children[0])
                and sparse_stored(node.children[1]))
    return False


def sparse_tile_shape(node: Node) -> tuple[int, int] | None:
    """Tile shape the forced sparse matrix will actually have.

    A SpGEMM result takes its tile rows from the left factor and its
    tile columns from the right one, so recursing down both edges
    reaches the stored leaves.
    """
    if isinstance(node, ArrayInput):
        tile_shape = getattr(node.data, "tile_shape", None)
        return tuple(tile_shape) if tile_shape else None
    if isinstance(node, MatMul):
        left = sparse_tile_shape(node.children[0])
        right = sparse_tile_shape(node.children[1])
        return (left[0], right[1]) if left and right else None
    return None


def storage_map(root: Node) -> dict[int, bool]:
    """id(node) -> sparse-stored, for every node of a DAG in one walk."""
    out: dict[int, bool] = {}
    for n in walk(root):
        if isinstance(n, ArrayInput):
            out[id(n)] = hasattr(n.data, "tile_nnz")
        elif isinstance(n, MatMul) and n.kernel != "dense":
            out[id(n)] = (out.get(id(n.children[0]), False)
                          and out.get(id(n.children[1]), False))
        else:
            out[id(n)] = False
    return out
