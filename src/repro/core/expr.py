"""Expression DAG — the next-generation RIOT algebra (§5).

Unlike RIOT-DB, which encoded deferred computation in SQL views, the
next-generation design builds an expression DAG of *high-level* array
operators: elementwise maps, subscripts, matrix multiplication, reductions —
and, crucially, **modification as a pure operator**: ``b[i] <- v`` becomes a
:class:`SubscriptAssign` node taking the old state and returning the new
state, which is what lets the Figure-2 rewrite push subscripts through
updates.

Nodes are immutable; shapes are inferred at construction.  Indices follow R:
1-based, inclusive.
"""

from __future__ import annotations

import numpy as np

#: Elementwise operations and their numpy implementations, by arity.
UNARY_OPS = {
    "sqrt": np.sqrt, "abs": np.abs, "exp": np.exp, "log": np.log,
    "neg": np.negative, "floor": np.floor, "ceil": np.ceil,
    "not": np.logical_not,
}

BINARY_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "pow": np.power, "mod": np.mod,
    "==": np.equal, "!=": np.not_equal, "<": np.less, ">": np.greater,
    "<=": np.less_equal, ">=": np.greater_equal,
    "and": np.logical_and, "or": np.logical_or,
}

TERNARY_OPS = {
    "ifelse": np.where,
}

#: Every Map op by name, whatever its arity — the table evaluators index.
ELEMENTWISE_OPS = {**UNARY_OPS, **BINARY_OPS, **TERNARY_OPS}

COMPARISON_OPS = frozenset(["==", "!=", "<", ">", "<=", ">=",
                            "and", "or", "not"])


def is_logical(node: "Node") -> bool:
    """Does ``node`` hold R logical (TRUE/FALSE as 1/0) values?

    The one statement of the rule every front end consults — for
    ``x[mask]``, ``x[mask] <- v`` and ``print``: comparisons and
    ``& | !`` produce logicals, ``ifelse`` does when both branches do,
    and ``[`` / ``head`` / ``[<-`` keep the logical-ness of the vector
    they select from or update.
    """
    while isinstance(node, (Subscript, SubscriptAssign)):
        node = node.children[0]
    if not isinstance(node, Map):
        return False
    if node.op == "ifelse":
        return all(is_logical(c) for c in node.children[1:])
    return node.op in COMPARISON_OPS


#: Unary ops with f(0) == 0: they preserve the operand's zero pattern,
#: so the estimated density passes through unchanged.
ZERO_PRESERVING_UNARY = frozenset(["sqrt", "abs", "neg", "floor", "ceil"])


def _estimate_map_density(op: str, children: tuple["Node", ...]) -> float:
    """Estimated fraction of nonzeros a Map produces.

    Follows the standard independence heuristics of sparse query
    optimizers: products intersect zero patterns, sums union them,
    zero-preserving unaries pass density through.  Anything whose zero
    pattern cannot be predicted (comparisons, exp/log, ifelse) is
    conservatively dense.
    """
    ds = [c.density for c in children]
    if op in ("*", "and"):
        d = 1.0
        for x in ds:
            d *= x
        return d
    if op in ("+", "-", "or"):
        return min(1.0, sum(ds))
    if op in ZERO_PRESERVING_UNARY or op in ("/", "pow", "mod"):
        # For the binaries only the first operand's zeros survive
        # (0 / y == 0, 0 ** y == 0 for y > 0, 0 %% y == 0).
        return ds[0]
    return 1.0


class Node:
    """Base class for DAG nodes.

    ``shape`` is ``()`` for scalars, ``(n,)`` for vectors, ``(r, c)`` for
    matrices.  ``children`` is a tuple of child nodes.  ``density`` is
    the estimated fraction of nonzero elements (1.0 when unknown); the
    rewriter uses it to order matrix chains and the planner to pick
    sparse vs. dense kernels through the nnz-parameterized cost models.
    """

    shape: tuple[int, ...] = ()
    children: tuple["Node", ...] = ()
    density: float = 1.0

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def estimated_nnz(self) -> float:
        """Expected nonzero count under the density estimate."""
        return self.density * self.size

    def key(self) -> tuple:
        """Structural identity for CSE (children by object id)."""
        return (type(self).__name__,
                tuple(id(c) for c in self.children))

    def with_children(self, children: tuple["Node", ...]) -> "Node":
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.label()} shape={self.shape}>"


class ArrayInput(Node):
    """A stored array (leaf): wraps a TiledVector/TiledMatrix or ndarray."""

    def __init__(self, data, name: str = "") -> None:
        self.data = data
        self.name = name or getattr(data, "name", "input")
        if hasattr(data, "length"):          # TiledVector
            self.shape = (data.length,)
        elif hasattr(data, "shape"):          # TiledMatrix / ndarray
            self.shape = tuple(int(s) for s in data.shape)
        else:
            raise TypeError(f"cannot wrap {type(data).__name__}")
        nnz = getattr(data, "nnz", None)      # SparseTiledMatrix
        if nnz is not None and self.size:
            self.density = nnz / self.size

    def key(self) -> tuple:
        return ("ArrayInput", id(self.data))

    def with_children(self, children) -> "ArrayInput":
        return self

    def label(self) -> str:
        return f"input:{self.name}"


class Scalar(Node):
    """A scalar constant."""

    def __init__(self, value: float) -> None:
        self.value = float(value)
        self.shape = ()
        self.density = 0.0 if self.value == 0.0 else 1.0

    def key(self) -> tuple:
        return ("Scalar", self.value)

    def with_children(self, children) -> "Scalar":
        return self

    def label(self) -> str:
        return f"{self.value:g}"


class Range(Node):
    """The virtual vector ``lo:hi`` — generated on demand, never stored."""

    def __init__(self, lo: int, hi: int) -> None:
        if hi < lo:
            raise ValueError(f"descending ranges unsupported: {lo}:{hi}")
        self.lo = int(lo)
        self.hi = int(hi)
        self.shape = (self.hi - self.lo + 1,)

    def key(self) -> tuple:
        return ("Range", self.lo, self.hi)

    def with_children(self, children) -> "Range":
        return self

    def label(self) -> str:
        return f"{self.lo}:{self.hi}"


def _broadcast_shape(shapes: list[tuple[int, ...]], op: str
                     ) -> tuple[int, ...]:
    array_shapes = [s for s in shapes if s != ()]
    if not array_shapes:
        return ()
    first = array_shapes[0]
    for s in array_shapes[1:]:
        if s != first:
            raise ValueError(
                f"non-conformable operands for {op!r}: {shapes}")
    return first


class Map(Node):
    """Elementwise operation over aligned operands (scalars broadcast).

    These are the nodes the evaluator fuses into single streaming passes —
    the loop-fusion / array-contraction optimization of §3 ("we could in
    fact compute d without materializing any of the twelve intermediate
    results").
    """

    def __init__(self, op: str, *children: Node) -> None:
        arity = len(children)
        if arity == 1 and op in UNARY_OPS:
            pass
        elif arity == 2 and op in BINARY_OPS:
            pass
        elif arity == 3 and op in TERNARY_OPS:
            pass
        else:
            raise ValueError(f"unknown op {op!r} with arity {arity}")
        self.op = op
        self.children = tuple(children)
        self.shape = _broadcast_shape([c.shape for c in children], op)
        self.density = _estimate_map_density(op, self.children)

    def key(self) -> tuple:
        return ("Map", self.op, tuple(id(c) for c in self.children))

    def with_children(self, children) -> "Map":
        return Map(self.op, *children)

    def label(self) -> str:
        return self.op


class Subscript(Node):
    """``src[index]`` with a 1-based integer index vector."""

    def __init__(self, src: Node, index: Node) -> None:
        if src.ndim != 1:
            raise ValueError("Subscript currently applies to vectors")
        if index.ndim != 1:
            raise ValueError("index must be a vector")
        self.children = (src, index)
        self.shape = index.shape
        self.density = src.density

    @property
    def src(self) -> Node:
        return self.children[0]

    @property
    def index(self) -> Node:
        return self.children[1]

    def with_children(self, children) -> "Subscript":
        return Subscript(children[0], children[1])

    def label(self) -> str:
        return "[]"


class SubscriptAssign(Node):
    """The pure ``[]<-`` operator of Figure 2.

    Takes the old state, a *logical mask* (elementwise aligned) or a
    positional index vector, and the replacement value; returns the new
    state.  Nothing is modified in place, which is exactly what allows
    further deferral and the Figure-2 pushdown.
    """

    def __init__(self, base: Node, index: Node, value: Node,
                 logical_mask: bool) -> None:
        if logical_mask and index.shape != base.shape:
            raise ValueError("logical mask must align with the base")
        self.children = (base, index, value)
        self.logical_mask = logical_mask
        self.shape = base.shape
        # Assigning zeros can only clear elements; anything else may fill.
        self.density = (base.density if value.density == 0.0
                        else min(1.0, base.density + value.density))

    @property
    def base(self) -> Node:
        return self.children[0]

    @property
    def index(self) -> Node:
        return self.children[1]

    @property
    def value(self) -> Node:
        return self.children[2]

    def key(self) -> tuple:
        return ("SubscriptAssign", self.logical_mask,
                tuple(id(c) for c in self.children))

    def with_children(self, children) -> "SubscriptAssign":
        return SubscriptAssign(children[0], children[1], children[2],
                               self.logical_mask)

    def label(self) -> str:
        return "[]<-"


class MatMul(Node):
    """Matrix multiplication — a first-class operator (§5: *"This approach
    departs from those that are more minimalist in design"*).

    ``kernel`` is a caller's pin — no pass sets it; the planner chooses
    the kernel in ``_lower_product`` from the nnz-parameterized cost
    models: ``"auto"`` (default, the planner decides), ``"sparse"``
    (keep sparse operands sparse), or ``"dense"`` (densify sparse
    operands and run the Appendix-A square-tile multiply).

    ``trans_a``/``trans_b`` are *operand flags*: the product uses the
    transpose of the corresponding operand, but the operand itself is
    read in its stored layout — each tile is transposed in memory as it
    streams through, so the transposed copy never exists on disk.  The
    rewriter sets them by absorbing :class:`Transpose` children
    (``t(A) %*% B -> MatMul(A, B, trans_a=True)``).
    """

    KERNELS = ("auto", "sparse", "dense")

    def __init__(self, a: Node, b: Node, kernel: str = "auto",
                 trans_a: bool = False, trans_b: bool = False) -> None:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("MatMul operands must be matrices")
        sa = a.shape[::-1] if trans_a else a.shape
        sb = b.shape[::-1] if trans_b else b.shape
        if sa[1] != sb[0]:
            raise ValueError(
                f"non-conformable: {sa} x {sb}")
        if kernel not in self.KERNELS:
            raise ValueError(f"unknown kernel hint {kernel!r}")
        if kernel == "sparse" and (trans_a or trans_b):
            raise ValueError(
                "transposed operand flags imply dense execution; the "
                "sparse kernels have no flagged variants")
        self.children = (a, b)
        self.shape = (sa[0], sb[1])
        self.kernel = kernel
        self.trans_a = bool(trans_a)
        self.trans_b = bool(trans_b)
        from .costs import matmul_result_density
        self.density = matmul_result_density(
            a.density, b.density, sa[1])

    def key(self) -> tuple:
        return ("MatMul", self.kernel, self.trans_a, self.trans_b,
                tuple(id(c) for c in self.children))

    def with_children(self, children) -> "MatMul":
        return MatMul(children[0], children[1], kernel=self.kernel,
                      trans_a=self.trans_a, trans_b=self.trans_b)

    def label(self) -> str:
        left = "t(a)" if self.trans_a else "a"
        right = "t(b)" if self.trans_b else "b"
        base = ("%*%" if not (self.trans_a or self.trans_b)
                else f"%*%[{left},{right}]")
        return base if self.kernel == "auto" else f"{base}[{self.kernel}]"


class Crossprod(Node):
    """The symmetric product ``t(A) %*% A`` (R's ``crossprod``), or
    ``A %*% t(A)`` (``tcrossprod``) when ``t_first`` is False.

    A first-class node because the symmetry is worth a dedicated
    schedule: the kernel computes only the upper-triangular output
    blocks (half the multiply FLOPs, half the operand reads) and
    mirrors each block to its transposed position on write.  The
    rewriter produces it from ``t(A) %*% A`` patterns; nothing ever
    materializes ``t(A)``.
    """

    def __init__(self, a: Node, t_first: bool = True) -> None:
        if a.ndim != 2:
            raise ValueError("Crossprod operand must be a matrix")
        self.children = (a,)
        self.t_first = bool(t_first)
        inner, k = a.shape if t_first else a.shape[::-1]
        self.shape = (k, k)
        from .costs import matmul_result_density
        self.density = matmul_result_density(a.density, a.density, inner)

    def key(self) -> tuple:
        return ("Crossprod", self.t_first,
                tuple(id(c) for c in self.children))

    def with_children(self, children) -> "Crossprod":
        return Crossprod(children[0], t_first=self.t_first)

    def label(self) -> str:
        return "crossprod" if self.t_first else "tcrossprod"


class Solve(Node):
    """``solve(A, B)``: the solution of the linear system ``A X = B``.

    A first-class operator like MatMul and Transpose (§5 names LU
    decomposition in the expression algebra; this is its consumer).
    ``B`` may be a vector or a matrix of right-hand-side columns; the
    result has B's shape.  Executed by pivoted out-of-core LU plus
    blocked substitution — never by materializing ``inv(A)``, which is
    exactly what the ``inv(A) %*% B -> solve(A, B)`` rewrite exploits.
    """

    def __init__(self, a: Node, b: Node) -> None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(
                f"solve() needs a square coefficient matrix, got "
                f"{a.shape}")
        if b.ndim not in (1, 2):
            raise ValueError("solve() RHS must be a vector or matrix")
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"non-conformable system: {a.shape} vs RHS {b.shape}")
        self.children = (a, b)
        self.shape = b.shape

    def with_children(self, children) -> "Solve":
        return Solve(children[0], children[1])

    def label(self) -> str:
        return "solve"


class Inverse(Node):
    """``inv(A)`` — the explicit matrix inverse.

    Present in the algebra so user programs can write it, but plans
    should rarely execute it: the rewriter turns ``inv(A) %*% B`` into
    :class:`Solve`, the classic algebraic optimization a SQL-hosted
    system cannot see.  Forcing an Inverse directly materializes it by
    one pivoted factorization and per-panel substitution sweeps.
    """

    def __init__(self, a: Node) -> None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(
                f"inv() needs a square matrix, got {a.shape}")
        self.children = (a,)
        self.shape = a.shape

    def with_children(self, children) -> "Inverse":
        return Inverse(children[0])

    def label(self) -> str:
        return "inv"


class Transpose(Node):
    """Matrix transpose."""

    def __init__(self, a: Node) -> None:
        if a.ndim != 2:
            raise ValueError("Transpose operand must be a matrix")
        self.children = (a,)
        self.shape = (a.shape[1], a.shape[0])
        self.density = a.density

    def with_children(self, children) -> "Transpose":
        return Transpose(children[0])

    def label(self) -> str:
        return "t"


class Reduce(Node):
    """Full reduction to a scalar: sum | mean | min | max."""

    _OPS = ("sum", "mean", "min", "max")

    def __init__(self, op: str, child: Node) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown reduction {op!r}")
        self.op = op
        self.children = (child,)
        self.shape = ()

    def key(self) -> tuple:
        return ("Reduce", self.op, tuple(id(c) for c in self.children))

    def with_children(self, children) -> "Reduce":
        return Reduce(self.op, children[0])

    def label(self) -> str:
        return self.op


# ----------------------------------------------------------------------
# DAG utilities
# ----------------------------------------------------------------------
def walk(node: Node, _seen: set[int] | None = None):
    """Yield each distinct node of the DAG once, children first."""
    seen = _seen if _seen is not None else set()
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in node.children:
        yield from walk(child, seen)
    yield node


def count_nodes(node: Node) -> int:
    return sum(1 for _ in walk(node))


def to_dot(node: Node) -> str:
    """Graphviz rendering of a DAG (used to reproduce Figure 2 visually)."""
    lines = ["digraph dag {", "  node [shape=box];"]
    ids: dict[int, int] = {}
    for n in walk(node):
        ids[id(n)] = len(ids)
        lines.append(f'  n{ids[id(n)]} [label="{n.label()}"];')
    for n in walk(node):
        for c in n.children:
            lines.append(f"  n{ids[id(n)]} -> n{ids[id(c)]};")
    lines.append("}")
    return "\n".join(lines)


def render(node: Node, indent: int = 0,
           _seen: set[int] | None = None) -> str:
    """Indented text rendering of a DAG (shared nodes marked)."""
    seen = _seen if _seen is not None else set()
    pad = "  " * indent
    if id(node) in seen and node.children:
        return f"{pad}{node.label()} (shared)"
    seen.add(id(node))
    lines = [f"{pad}{node.label()}"]
    for c in node.children:
        lines.append(render(c, indent + 1, seen))
    return "\n".join(lines)
