"""One source of truth for node identity.

Fixpoint detection and CSE hashing must agree on "what makes a node
itself": a signature blind to ``Crossprod.t_first`` or
``SubscriptAssign.logical_mask`` makes a pass flipping only those
attributes invisible to the fixpoint loop, while CSE tells the nodes
apart.  Both are derived from one helper:

- :func:`node_attrs` — the node's local attributes (no children),
- :func:`canon_key` — attrs + children identities, for CSE hashing,
- :func:`dag_signature` — attrs + canonical child indices over a whole
  DAG, for fixpoint detection.

``tests/core/test_signatures.py`` pins the contract: two nodes with
different kernel hints or operand flags never share a key.
"""

from __future__ import annotations

from ..expr import (ArrayInput, Crossprod, Map, MatMul, Node, Range,
                    Reduce, Scalar, SubscriptAssign, walk)


def node_attrs(node: Node) -> tuple:
    """Local identity of a node: type plus every semantic attribute.

    Children are deliberately excluded — callers add child identities
    in whatever form suits them (object ids for CSE, canonical indices
    for DAG signatures).
    """
    if isinstance(node, ArrayInput):
        return ("ArrayInput", id(node.data))
    if isinstance(node, Scalar):
        return ("Scalar", node.value)
    if isinstance(node, Range):
        return ("Range", node.lo, node.hi)
    if isinstance(node, Map):
        return ("Map", node.op)
    if isinstance(node, Reduce):
        return ("Reduce", node.op)
    if isinstance(node, SubscriptAssign):
        return ("SubscriptAssign", node.logical_mask)
    if isinstance(node, MatMul):
        return ("MatMul", node.kernel, node.trans_a, node.trans_b)
    if isinstance(node, Crossprod):
        return ("Crossprod", node.t_first)
    return (type(node).__name__,)


def canon_key(node: Node) -> tuple:
    """CSE key: local attributes plus the *object identities* of the
    children.  Two structurally equal nodes whose children have already
    been canonicalized to the same objects get equal keys; a flagged
    and an unflagged matmul over the same operands never do."""
    return node_attrs(node) + tuple(id(c) for c in node.children)


def dag_signature(root: Node) -> tuple:
    """Whole-DAG signature for fixpoint detection.

    Children are numbered in traversal order, so the signature is
    stable across rebuilds of an identical DAG and changes whenever
    any node's type, semantic attribute, or wiring changes.
    """
    sig = []
    ids: dict[int, int] = {}
    for n in walk(root):
        ids[id(n)] = len(ids)
        sig.append(node_attrs(n)
                   + (tuple(ids[id(c)] for c in n.children),))
    return tuple(sig)
