"""Next-generation RIOT as an R-language engine.

The same transparency mechanism that plugged RIOT-DB into R (§4) plugs the
§5 expression-DAG engine in as well, with no second deferred type: the
session's own :class:`~repro.core.arrays.RiotVector` /
:class:`~repro.core.arrays.RiotMatrix` handles are the classes on the
generics table, and each R operator dispatches to the Python operator or
method the handle already overloads (``+`` to ``operator.add``, ``%*%``
to ``operator.matmul``, ``solve`` to ``RiotMatrix.solve``, ...).  One
statement, typed in R or through the host API, is one DAG, built by
:mod:`repro.core.arrays` alone.  What stays here is R-specific:
``RScalar`` / ``MissingIndex`` conversion, ``c()``, ``matrix()``
reshaping, ``which``, ``print`` formatting and the ``Engine`` metrics.

This is the engine the paper's conclusion promises: *"With a specialized
storage engine, algorithms, and database-style optimization strategies
tailored towards numerical computing, we expect the next generation of RIOT
to make significant further gain in I/O-efficiency."*
"""

from __future__ import annotations

import operator

import numpy as np

from repro.engines.base import Engine
from repro.rlang.generics import Generics
from repro.rlang.reference import format_vector
from repro.rlang.values import MissingIndex, RError, RScalar
from repro.storage import IOStats, SimClock, StorageConfig

from .arrays import RiotMatrix, RiotVector
from .expr import is_logical
from .session import RiotSession

#: R binary operator -> the Python operator the handles overload.
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": operator.pow, "%%": operator.mod,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
    "&": operator.and_, "|": operator.or_,
}

#: R elementwise function -> handle method.
_UNARY = {
    "sqrt": "sqrt", "abs": "abs", "exp": "exp", "log": "log",
    "floor": "floor", "ceiling": "ceil",
}


def _lifted(fn):
    """``fn`` with each ``RScalar`` argument passed as its float; the
    handles' own scalar lifting makes the DAG constant from it."""
    def call(*args):
        return fn(*(a.as_float() if isinstance(a, RScalar) else a
                    for a in args))
    return call


def _position(idx):
    """An R subscript in the form the handles' ``[]`` takes."""
    if isinstance(idx, RScalar):
        return idx.as_int()
    if isinstance(idx, RiotVector):
        return idx
    raise RError("unsupported subscript")


class RiotNGEngine(Engine):
    """Deferred DAG engine behind the standard R interpreter."""

    name = "RIOT (next-gen)"

    def __init__(self, memory_bytes: int = 68 * 1024 * 1024,
                 block_size: int = 8192, optimize: bool = True,
                 config=None, storage=None) -> None:
        """``config`` (an :class:`~repro.core.config.OptimizerConfig`)
        overrides the boolean ``optimize`` switch: pass
        ``OptimizerConfig(level=1)`` for logical rewriting without
        cost-based planning, or per-pass overrides for ablations.
        ``storage`` (a :class:`~repro.storage.StorageConfig`) selects
        the backend/page file; ``memory_bytes``/``block_size`` are
        ignored when it is given."""
        Engine.__init__(self)
        if storage is None:
            storage = StorageConfig(memory_bytes=memory_bytes,
                                    block_size=block_size)
        self.session = RiotSession(storage=storage,
                                   optimize=optimize,
                                   config=config)
        self.generics = Generics()
        self._register_all()

    # -- constructors -----------------------------------------------------
    def make_vector(self, data: np.ndarray) -> RiotVector:
        return self.session.vector(data)

    def make_matrix(self, data: np.ndarray) -> RiotMatrix:
        return self.session.matrix(data)

    def make_sparse_matrix(self, rows, cols, values,
                           shape: tuple[int, int]) -> RiotMatrix:
        """Store 0-based COO triplets as CSR tiles (``sparseMatrix``)."""
        return self.session.sparse_matrix(rows, cols, values, shape)

    # -- registration ------------------------------------------------------
    def _register_all(self) -> None:
        g = self.generics
        vec, mat = RiotVector, RiotMatrix
        for h in (vec, mat):
            for op, fn in _BINARY.items():
                lifted = _lifted(fn)
                g.set_method(op, (h, h), fn)
                g.set_method(op, (h, RScalar), lifted)
                g.set_method(op, (RScalar, h), lifted)
            for rname, method in _UNARY.items():
                g.set_method(rname, (h,), getattr(h, method))
            g.set_method("unary-", (h,), operator.neg)
            for red in ("sum", "mean", "min", "max"):
                g.set_method(red, (h,), lambda x, red=red: RScalar(
                    getattr(x, red)()))
            g.set_method("explain", (h,), h.explain)
            g.set_method("explain_analyze", (h,),
                         lambda x: x.explain(analyze=True))
        g.set_method("unary!", (vec,), operator.invert)
        g.set_method("all", (vec,), lambda v: RScalar(v.min() != 0))
        g.set_method("any", (vec,), lambda v: RScalar(v.max() != 0))
        g.set_method("length", (vec,), lambda v: RScalar(v.length))
        g.set_method("length", (mat,), lambda m: RScalar(
            m.shape[0] * m.shape[1]))
        g.set_method("dim", (mat,), lambda m: self.make_vector(m.shape))
        g.set_method("range", (RScalar, RScalar), lambda lo, hi:
                     self.session.arange(lo.as_int(), hi.as_int()))
        for arity in (1, 2, 3):
            g.set_method("concat", (object,) * arity, self._concat)
        g.set_method("[", (vec, object), self._index)
        g.set_method("[<-", (vec, object, object), self._assign)
        g.set_method("%*%", (mat, mat), operator.matmul)
        g.set_method("solve", (mat,), mat.inv)
        g.set_method("solve", (mat, mat), mat.solve)
        g.set_method("solve", (mat, vec), mat.solve)
        g.set_method("t", (mat,), lambda m: m.T)
        # crossprod(a) arrives as crossprod(a, a): the handles turn the
        # repeated operand into the symmetric Crossprod node.
        g.set_method("crossprod", (mat, mat), mat.crossprod)
        g.set_method("tcrossprod", (mat, mat), mat.tcrossprod)
        g.set_method("reshape", (vec, RScalar, RScalar), self._reshape)
        g.set_method("print", (vec,), self._print_vector)
        g.set_method("print", (mat,), self._print_matrix)
        g.set_method("iterate", (vec,), lambda v: v.values().tolist())
        g.set_method("first", (vec,),
                     lambda v: self._index(v, RScalar(1)))
        g.set_method("which", (vec,), self._which)
        g.set_method("head", (vec, RScalar),
                     lambda v, n: v.head(n.as_int()))

    # -- R-specific operations ----------------------------------------------
    def _concat(self, *parts) -> RiotVector:
        arrays = []
        for p in parts:
            if isinstance(p, RScalar):
                arrays.append(np.asarray([p.as_float()]))
            elif isinstance(p, RiotVector):
                arrays.append(p.values())
            else:
                raise RError(f"cannot concatenate {type(p).__name__}")
        return self.make_vector(np.concatenate(arrays))

    def _index(self, x: RiotVector, idx):
        """``x[idx]``: a scalar subscript is forced to an ``RScalar``,
        anything else stays deferred."""
        if isinstance(idx, MissingIndex):
            return x
        picked = x[_position(idx)]
        if isinstance(idx, RScalar):
            return RScalar(float(picked.values()[0]))
        return picked

    def _assign(self, x: RiotVector, idx, value) -> RiotVector:
        return _lifted(x.assign)(_position(idx), value)

    def _reshape(self, v: RiotVector, nrow: RScalar,
                 ncol: RScalar) -> RiotMatrix:
        n1, n2 = nrow.as_int(), ncol.as_int()
        if n1 * n2 != v.length:
            raise RError("reshape size mismatch")
        return self.make_matrix(v.values().reshape((n1, n2), order="F"))

    def _which(self, x: RiotVector) -> RiotVector:
        return self.make_vector(np.flatnonzero(x.values()) + 1)

    # -- inspection --------------------------------------------------------
    def _print_vector(self, x: RiotVector) -> str:
        values = x.values()
        if is_logical(x.node):
            values = values.astype(bool)
        return format_vector(values)

    def _print_matrix(self, m: RiotMatrix) -> str:
        arr = m.values()
        rows, cols = arr.shape
        lines = [f"matrix {rows}x{cols}"]
        for r in range(min(rows, 6)):
            vals = " ".join(f"{v:g}" for v in arr[r, :min(cols, 8)])
            lines.append(f"[{r + 1},] {vals}{' ...' if cols > 8 else ''}")
        if rows > 6:
            lines.append("...")
        return "\n".join(lines)

    # -- metrics -------------------------------------------------------------
    def io_stats(self) -> IOStats:
        return self.session.io_stats

    def reset_stats(self) -> None:
        self.session.reset_stats()
        self.clock = SimClock()

    def sim_seconds(self) -> float:
        io = self.io_stats()
        values_scanned = io.reads * (
            self.session.store.device.block_size // 8)
        return (self.clock.seconds(io)
                + 2 * values_scanned * self.clock.cpu_op_cost)
