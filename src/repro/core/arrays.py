"""Deferred array handles: the one place a user operation becomes DAG nodes.

``RiotVector`` and ``RiotMatrix`` wrap DAG nodes and overload Python
operators, so user code reads like the R programs in the paper::

    d = ((x - xs)**2 + (y - ys)**2).sqrt() + ((x - xe)**2 + (y - ye)**2).sqrt()
    z = d[s]          # deferred; nothing computed yet
    z.values()        # forces exactly the selected elements

Modification is pure: ``b.assign(b > 100, 100)`` returns the *new state*
(the ``[]<-`` operator of Figure 2) and leaves ``b`` untouched — matching R
value semantics and enabling the subscript-pushdown rewrite.

Every front end lowers through these handles: the R generics table of
:mod:`repro.core.engine` registers ``RiotVector`` / ``RiotMatrix``
themselves and dispatches each R operator to the Python operator or
method below, and ``RiotSession.solve`` / ``crossprod`` / ``tcrossprod``
delegate here.  So scalar lifting (:func:`_scalarize`), the subscript
forms (:meth:`RiotVector._index_node`) and the logical-mask rule
(:func:`repro.core.expr.is_logical`) are each stated once.
"""

from __future__ import annotations

import numpy as np

from .expr import (ArrayInput, Crossprod, Inverse, Map, MatMul, Node,
                   Range, Reduce, Scalar, Solve, Subscript,
                   SubscriptAssign, Transpose, is_logical)


def _scalarize(value) -> Node:
    """The DAG node behind any operand: a handle's node, a node itself,
    or a number lifted to a :class:`Scalar`."""
    if isinstance(value, _Deferred):
        return value.node
    if isinstance(value, Node):
        return value
    return Scalar(float(value))


class _Deferred:
    """Shared operator plumbing for vector and matrix handles."""

    def __init__(self, session, node: Node) -> None:
        self.session = session
        self.node = node

    # -- arithmetic ------------------------------------------------------
    def _binary(self, op: str, other, swap: bool = False):
        left, right = _scalarize(self), _scalarize(other)
        if swap:
            left, right = right, left
        return self._wrap(Map(op, left, right))

    def __add__(self, other):
        return self._binary("+", other)

    def __radd__(self, other):
        return self._binary("+", other, swap=True)

    def __sub__(self, other):
        return self._binary("-", other)

    def __rsub__(self, other):
        return self._binary("-", other, swap=True)

    def __mul__(self, other):
        return self._binary("*", other)

    def __rmul__(self, other):
        return self._binary("*", other, swap=True)

    def __truediv__(self, other):
        return self._binary("/", other)

    def __rtruediv__(self, other):
        return self._binary("/", other, swap=True)

    def __pow__(self, other):
        return self._binary("pow", other)

    def __rpow__(self, other):
        return self._binary("pow", other, swap=True)

    def __mod__(self, other):
        return self._binary("mod", other)

    def __rmod__(self, other):
        return self._binary("mod", other, swap=True)

    def __neg__(self):
        return self._wrap(Map("neg", self.node))

    # -- comparisons (produce logical arrays) ------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return self._binary("==", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._binary("!=", other)

    def __lt__(self, other):
        return self._binary("<", other)

    def __le__(self, other):
        return self._binary("<=", other)

    def __gt__(self, other):
        return self._binary(">", other)

    def __ge__(self, other):
        return self._binary(">=", other)

    __hash__ = None  # handles are not hashable (== is elementwise)

    # -- logical connectives (R's & | !) -----------------------------------
    def __and__(self, other):
        return self._binary("and", other)

    def __rand__(self, other):
        return self._binary("and", other, swap=True)

    def __or__(self, other):
        return self._binary("or", other)

    def __ror__(self, other):
        return self._binary("or", other, swap=True)

    def __invert__(self):
        return self._wrap(Map("not", self.node))

    # -- elementwise functions ----------------------------------------------
    def sqrt(self):
        return self._wrap(Map("sqrt", self.node))

    def abs(self):
        return self._wrap(Map("abs", self.node))

    def exp(self):
        return self._wrap(Map("exp", self.node))

    def log(self):
        return self._wrap(Map("log", self.node))

    def floor(self):
        return self._wrap(Map("floor", self.node))

    def ceil(self):
        return self._wrap(Map("ceil", self.node))

    def ifelse(self, then_value, else_value):
        """Elementwise conditional with self as the (logical) condition."""
        return self._wrap(Map("ifelse", self.node,
                              _scalarize(then_value),
                              _scalarize(else_value)))

    # -- reductions --------------------------------------------------------
    def sum(self) -> float:
        return float(self.session.force(Reduce("sum", self.node)))

    def mean(self) -> float:
        return float(self.session.force(Reduce("mean", self.node)))

    def min(self) -> float:
        return float(self.session.force(Reduce("min", self.node)))

    def max(self) -> float:
        return float(self.session.force(Reduce("max", self.node)))

    # -- sparsity metadata -------------------------------------------------
    @property
    def density(self) -> float:
        """Estimated nonzero fraction of this handle's DAG node."""
        return self.node.density

    @property
    def estimated_nnz(self) -> float:
        """Expected nonzero count under the density estimate."""
        return self.node.estimated_nnz

    # -- evaluation --------------------------------------------------------
    def force(self):
        """Materialize this handle's DAG into the tile store."""
        return self.session.force(self.node)

    def values(self) -> np.ndarray:
        """Force and return the result as a numpy array."""
        return self.session.values(self.node)

    def explain(self, analyze: bool = False) -> str:
        return self.session.explain(self.node, analyze=analyze)

    def _wrap(self, node: Node):
        if node.ndim == 1:
            return RiotVector(self.session, node)
        if node.ndim == 2:
            return RiotMatrix(self.session, node)
        return node


class RiotVector(_Deferred):
    """A deferred 1-D array."""

    @property
    def length(self) -> int:
        return self.node.shape[0]

    def __len__(self) -> int:
        return self.length

    # -- subscripts -----------------------------------------------------------
    def _index_node(self, index) -> Node:
        """The 1-based position vector a subscript denotes."""
        if isinstance(index, RiotVector):
            if not is_logical(index.node):
                return index.node
            # A logical mask selects data-dependent positions, so it is
            # forced here and the positions stored (R's which()).
            index = np.flatnonzero(index.values()) + 1
        elif isinstance(index, slice):
            lo = 1 if index.start is None else int(index.start)
            hi = self.length if index.stop is None else int(index.stop)
            if index.step not in (None, 1):
                raise ValueError("only unit-step slices are supported")
            return Range(lo, hi)
        elif isinstance(index, (int, np.integer)):
            return Range(int(index), int(index))
        arr = np.asarray(index)
        if arr.dtype == bool:
            raise TypeError(
                "boolean gather is not deferred; use .assign for masked "
                "updates or which() semantics via numpy first")
        stored = self.session.store.vector_from_numpy(
            arr.astype(np.float64))
        return ArrayInput(stored, name="idx")

    def __getitem__(self, index) -> "RiotVector":
        """1-based subscript, deferred (``d[s]`` of Example 1)."""
        return RiotVector(self.session,
                          Subscript(self.node, self._index_node(index)))

    def assign(self, index, value) -> "RiotVector":
        """The pure ``[]<-``: returns the NEW state (Figure 2).

        ``index`` may be a logical RiotVector mask (``b > 100``) or a
        positional index vector/slice.
        """
        mask = isinstance(index, RiotVector) and is_logical(index.node)
        return RiotVector(self.session, SubscriptAssign(
            self.node, index.node if mask else self._index_node(index),
            _scalarize(value), logical_mask=mask))

    def head(self, n: int = 6) -> "RiotVector":
        return self[1:min(n, self.length)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RiotVector(n={self.length}, deferred)"


class RiotMatrix(_Deferred):
    """A deferred 2-D array."""

    @classmethod
    def from_coo(cls, session, rows, cols, values,
                 shape: tuple[int, int],
                 name: str | None = None) -> "RiotMatrix":
        """Build a sparse matrix handle from 0-based COO triplets.

        Storage is CSR tiles with a per-tile nnz directory (empty tiles
        occupy zero pages); the handle's density drives chain ordering
        and sparse/dense kernel selection in the rewriter.
        """
        return session.sparse_matrix(rows, cols, values, shape,
                                     name=name)

    @property
    def shape(self) -> tuple[int, int]:
        return self.node.shape

    def __matmul__(self, other: "RiotMatrix") -> "RiotMatrix":
        return RiotMatrix(self.session,
                          MatMul(self.node, _scalarize(other)))

    @property
    def T(self) -> "RiotMatrix":
        """Deferred (lazy) transpose — a DAG node, never a disk pass.

        A transpose that feeds a product is absorbed into the
        multiply's operand flags by the rewriter; only a ``force()``
        of a bare transpose materializes anything.
        """
        return RiotMatrix(self.session, Transpose(self.node))

    def crossprod(self, other=None) -> "RiotMatrix":
        """``t(self) %*% other`` without materializing the transpose.

        With no argument (or with ``self`` again, which is how R's
        one-argument ``crossprod(a)`` arrives) the product is
        ``t(self) %*% self``: the symmetric :class:`Crossprod` node,
        whose kernel computes only the upper-triangular output blocks
        and mirrors them on write.
        """
        other = self.node if other is None else _scalarize(other)
        if other is self.node:
            return RiotMatrix(self.session, Crossprod(self.node))
        return RiotMatrix(self.session, MatMul(self.node, other, trans_a=True))

    def tcrossprod(self, other=None) -> "RiotMatrix":
        """``self %*% t(other)`` (``other`` defaults to self),
        transpose-free like :meth:`crossprod`."""
        other = self.node if other is None else _scalarize(other)
        if other is self.node:
            return RiotMatrix(self.session,
                              Crossprod(self.node, t_first=False))
        return RiotMatrix(self.session, MatMul(self.node, other, trans_b=True))

    def inv(self) -> "RiotMatrix":
        """Deferred explicit inverse.

        ``a.inv() @ b`` never materializes the inverse: the rewriter
        turns it into ``solve(a, b)`` before evaluation.
        """
        return RiotMatrix(self.session, Inverse(self.node))

    def solve(self, b):
        """Deferred solution of ``self @ x == b`` (vector or matrix b)."""
        node = Solve(self.node, _scalarize(b))
        return self._wrap(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RiotMatrix(shape={self.shape}, deferred)"
