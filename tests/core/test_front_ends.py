"""One deferred front end: R text and the Python handles build one DAG.

``core/arrays.py`` is the only module that turns a user operation into
DAG nodes; ``RiotNGEngine`` registers ``RiotVector`` / ``RiotMatrix``
themselves on the R generics table.  Three kinds of test hold that:

- regressions for the logical-mask answers the Python handles used to
  get wrong (``x[x > 0]`` gathered the mask's 0/1 values as positions),
  pinned at every optimizer level against NumPy and against what the R
  front end prints for the same statement;
- a Hypothesis property that types the same random program both ways
  over the same stored inputs and compares values bitwise, and DAG and
  plan signatures wherever no subscript forced a mask;
- an import-structure check, so a second copy of the DAG-construction
  rules cannot grow back in ``engine.py`` or ``session.py`` unnoticed.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotMatrix, RiotVector, expr
from repro.core.engine import RiotNGEngine
from repro.core.passes.signatures import dag_signature
from repro.rlang import Interpreter
from repro.rlang.reference import format_vector
from repro.rlang.values import RScalar
from repro.storage import StorageConfig

LEVELS = (0, 1, 2)


def small_engine(level: int) -> RiotNGEngine:
    """64-scalar blocks and 8 x 8 tiles: a 200-vector spans four
    chunks and a 12 x 12 matrix four tiles, so small programs still
    cross chunk and tile boundaries."""
    return RiotNGEngine(
        storage=StorageConfig(block_size=512, memory_bytes=64 * 1024),
        config=OptimizerConfig(level=level))


# ----------------------------------------------------------------------
# Regressions: logical subscripts through the Python handles
# ----------------------------------------------------------------------
DATA = np.array([3.0, -1.0, 4.0, -1.5, 5.0, -9.0, 2.0, 6.0])


@pytest.fixture(params=LEVELS)
def both(request):
    """``(x, printed)``: the stored vector as a Python handle, and a
    function returning what the R front end prints for a statement
    typed over the same ``x`` (and any other handles bound by name)."""
    engine = small_engine(request.param)
    x = engine.make_vector(DATA)

    def printed(statement: str, **handles) -> str:
        interp = Interpreter(engine)
        interp.env.update(handles, x=x)
        interp.run(statement)
        return interp.output[-1]

    return x, printed


def same(handle: RiotVector, expect: np.ndarray, r_output: str) -> bool:
    got = handle.values()
    return (np.array_equal(got, expect)
            and format_vector(got) == r_output)


class TestLogicalSubscripts:
    def test_mask_gathers_the_selected_elements(self, both):
        """Was ``[3 3 3 3 3]``: the 0/1 mask read as positions."""
        x, printed = both
        assert same(x[x > 0], DATA[DATA > 0], printed("print(x[x > 0])"))

    def test_mask_with_a_threshold(self, both):
        """Was an ``IndexError`` (position 0)."""
        x, printed = both
        assert same(x[x > 2.5], DATA[DATA > 2.5], printed("print(x[x > 2.5])"))

    def test_mask_built_from_connectives(self, both):
        x, printed = both
        assert same(x[(x > -2) & ~(x > 4)], DATA[(DATA > -2) & ~(DATA > 4)],
                    printed("print(x[(x > -2) & !(x > 4)])"))
        assert same(x[(x > 4) | (x < -2)], DATA[(DATA > 4) | (DATA < -2)],
                    printed("print(x[(x > 4) | (x < -2)])"))

    def test_head_of_a_mask_is_still_a_mask(self, both):
        """Was one element written (the mask's values taken as the
        positions 1, 0, 1, 0)."""
        x, printed = both
        y = x.session.vector(np.zeros(4))
        expect = np.where(DATA[:4] > 0, 7.0, 0.0)
        assert same(y.assign((x > 0).head(4), 7), expect, printed(
            "y <- numeric(4); y[head(x > 0, 4)] <- 7; print(y)"))

    def test_an_updated_mask_is_still_a_mask(self, both):
        x, printed = both
        y = x.session.vector(np.zeros(DATA.size))
        mask = DATA > 4
        mask[1] = True
        expect = np.where(mask, 9.0, 0.0)
        assert same(y.assign((x > 4).assign(2, 1), 9), expect, printed(
            "m <- x > 4; m[2] <- 1; y <- numeric(8); y[m] <- 9; "
            "print(y)"))

    def test_subscripted_masks_print_as_logicals(self, both):
        """``print`` consults the same rule, whichever front end built
        the handle."""
        x, printed = both
        assert printed("print(head(x > 0, 3))") == "[1] TRUE FALSE TRUE"
        assert printed("print(m)", m=(x > 0).head(3)) \
            == "[1] TRUE FALSE TRUE"
        assert printed("m <- x > 0; m[2] <- 1; print(m[1:3])") \
            == "[1] TRUE TRUE TRUE"
        assert printed("print(m)", m=(x > 0).assign(2, 1)[1:3]) \
            == "[1] TRUE TRUE TRUE"

    def test_new_python_operators(self, both):
        x, _ = both
        assert np.array_equal((x / 2).floor().values(), np.floor(DATA / 2))
        assert np.array_equal((x / 2).ceil().values(), np.ceil(DATA / 2))
        assert np.array_equal((2 ** x).values(), 2 ** DATA)
        assert np.array_equal((7 % x).values(), np.mod(7, DATA))
        assert np.array_equal((1 & (x > 0)).values(), DATA > 0)
        assert np.array_equal((0 | (x > 0)).values(), DATA > 0)


# ----------------------------------------------------------------------
# Property: one random program, typed both ways
# ----------------------------------------------------------------------
N, SIDE, TALL = 200, 12, 20
_const = st.floats(0.5, 4.0).map(lambda v: round(v, 2))


class Program:
    """A straight-line program grown one statement at a time, kept in
    three forms: R source lines, the Python handles, and NumPy values
    (the oracle, which also tells the generator every length).

    ``forced`` names the variables downstream of a mask subscript: the
    forced positions are stored afresh by each front end, so their DAGs
    agree in shape and value but not in ``ArrayInput`` identity.
    """

    def __init__(self, draw, handles: dict, values: dict) -> None:
        self.draw = draw
        self.lines: list[str] = []
        self.py = dict(handles)
        self.np = dict(values)
        self.forced: set[str] = set()

    def add(self, r_expr: str, py, value, *sources: str,
            then: str = "", forced: bool = False) -> None:
        """``v<i> <- r_expr`` (then ``v<i><then>``, for ``[<-``)."""
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} <- {r_expr}"
                          + (f"; {name}{then}" if then else ""))
        self.py[name] = py
        self.np[name] = value
        if forced or any(s in self.forced for s in sources):
            self.forced.add(name)

    def pick(self, want) -> str | None:
        names = [n for n, v in self.np.items() if want(v)]
        return self.draw(st.sampled_from(names)) if names else None

    # -- operand classes ---------------------------------------------------
    @staticmethod
    def vector(v) -> bool:
        return v.ndim == 1

    @staticmethod
    def numeric(v) -> bool:
        return v.ndim == 1 and v.dtype != bool

    @staticmethod
    def logical(v) -> bool:
        return v.ndim == 1 and v.dtype == bool

    @staticmethod
    def square(v) -> bool:
        return v.shape == (SIDE, SIDE)

    def like(self, name: str):
        """Same shape and kind (numeric / logical) as ``name``."""
        ref = self.np[name]
        return lambda v: (v.shape == ref.shape
                          and (v.dtype == bool) == (ref.dtype == bool))

    def mask_for(self, name: str):
        shape = self.np[name].shape
        return lambda v: v.dtype == bool and v.shape == shape and v.any()

    # -- statements --------------------------------------------------------
    def elementwise(self) -> None:
        a = self.pick(self.numeric)
        b = self.pick(self.like(a))
        c = self.draw(_const)
        A, B, pa, pb = self.np[a], self.np[b], self.py[a], self.py[b]
        form = self.draw(st.integers(0, 9))
        if form == 0:
            self.add(f"{a} + {b}", pa + pb, A + B, a, b)
        elif form == 1:
            self.add(f"{a} - {b} * {c}", pa - pb * c, A - B * c, a, b)
        elif form == 2:
            self.add(f"{c} - {a} / {c}", c - pa / c, c - A / c, a)
        elif form == 3:
            self.add(f"sqrt(abs({a})) ^ {c}", pa.abs().sqrt() ** c,
                     np.sqrt(np.abs(A)) ** c, a)
        elif form == 4:
            self.add(f"floor({a}) %% {c}", pa.floor() % c,
                     np.mod(np.floor(A), c), a)
        elif form == 5:
            self.add(f"-ceiling({a} * {c})", -(pa * c).ceil(),
                     -np.ceil(A * c), a)
        elif form == 6:
            self.add(f"{a} > {b}", pa > pb, A > B, a, b)
        elif form == 7:
            self.add(f"{c} <= {a}", c <= pa, c <= A, a)
        elif form == 8:
            self.add(f"{a} != {b}", pa != pb, A != B, a, b)
        else:       # a bounded exponent: the stored input, not ``a``
            self.add(f"{c} ^ (x / 8) %% {c}", c ** (self.py["x"] / 8) % c,
                     np.mod(c ** (self.np["x"] / 8), c))

    def connective(self) -> None:
        a = self.pick(self.logical)
        if a is None:
            return self.elementwise()
        b = self.pick(self.like(a))
        A, B, pa, pb = self.np[a], self.np[b], self.py[a], self.py[b]
        form = self.draw(st.integers(0, 2))
        if form == 0:
            self.add(f"{a} & {b}", pa & pb, A & B, a, b)
        elif form == 1:
            self.add(f"{a} | !{b}", pa | ~pb, A | ~B, a, b)
        else:
            self.add(f"!{a}", ~pa, ~A, a)

    def subscript(self) -> None:
        a = self.pick(self.vector)
        A, pa = self.np[a], self.py[a]
        n = A.size
        form = self.draw(st.integers(0, 4))
        if form == 0:
            lo = self.draw(st.integers(1, n))
            hi = self.draw(st.integers(lo, n))
            self.add(f"{a}[{lo}:{hi}]", pa[lo:hi], A[lo - 1:hi], a)
        elif form == 1:
            k = self.draw(st.integers(1, 2 * n))
            self.add(f"head({a}, {k})", pa.head(k), A[:k], a)
        elif form == 2:
            # x[k] is a forced RScalar in R and a length-1 handle in
            # Python: only the value is comparable, and (0-d in the
            # oracle) no later statement picks it up.
            k = self.draw(st.integers(1, n))
            self.add(f"{a}[{k}]", pa[k], A[k - 1], a, forced=True)
        elif form == 3 and n == N:
            s = self.np["s"].astype(int)
            self.add(f"{a}[s]", pa[self.py["s"]], A[s - 1], a)
        else:
            m = self.pick(self.mask_for(a))
            if m is None:
                return self.elementwise()
            self.add(f"{a}[{m}]", pa[self.py[m]], A[self.np[m]], a, m,
                     forced=True)

    def mask_subscript(self) -> None:
        """``a[a >= c]``, or ``a[!(a >= c)]`` — one that selects
        something."""
        a = self.pick(self.vector)
        A, pa = self.np[a], self.py[a]
        c = self.draw(_const)
        if (A >= c).any() and ((A >= c).all()
                               or self.draw(st.booleans())):
            self.add(f"{a}[{a} >= {c}]", pa[pa >= c], A[A >= c], a,
                     forced=True)
        else:
            self.add(f"{a}[!({a} >= {c})]", pa[~(pa >= c)],
                     A[~(A >= c)], a, forced=True)

    def assign(self) -> None:
        a = self.pick(self.vector)
        A, pa = self.np[a], self.py[a]
        n = A.size
        # [<- keeps the updated vector's kind, so a logical takes 0 / 1.
        c = self.draw(st.sampled_from([0, 1]) if A.dtype == bool
                      else _const)
        out = A.copy()
        form = self.draw(st.integers(0, 3))
        if form == 0:
            k = self.draw(st.integers(1, n))
            out[k - 1] = c
            self.add(a, pa.assign(k, c), out, a, then=f"[{k}] <- {c}")
        elif form == 1:
            lo = self.draw(st.integers(1, n))
            hi = self.draw(st.integers(lo, n))
            out[lo - 1:hi] = c
            self.add(a, pa.assign(slice(lo, hi), c), out, a,
                     then=f"[{lo}:{hi}] <- {c}")
        elif form == 2 and n == N:
            out[self.np["s"].astype(int) - 1] = c
            self.add(a, pa.assign(self.py["s"], c), out, a,
                     then=f"[s] <- {c}")
        else:
            m = self.pick(self.mask_for(a))
            if m is None:
                return self.elementwise()
            out[self.np[m]] = c
            self.add(a, pa.assign(self.py[m], c), out, a, m,
                     then=f"[{m}] <- {c}")

    def linear_algebra(self) -> None:
        a = self.pick(self.square)
        b = self.pick(self.square)
        A, B, pa, pb = self.np[a], self.np[b], self.py[a], self.py[b]
        X, px = self.np["X"], self.py["X"]
        W, pw = self.np["W"], self.py["W"]
        form = self.draw(st.integers(0, 9))
        if form == 0:
            self.add(f"{a} %*% {b}", pa @ pb, A @ B, a, b)
        elif form == 1:
            self.add(f"t({a}) %*% {b} + {b}", pa.T @ pb + pb,
                     A.T @ B + B, a, b)
        elif form == 2:
            self.add("crossprod(X)", px.crossprod(), X.T @ X)
        elif form == 3:
            self.add("tcrossprod(X)", px.tcrossprod(), X @ X.T)
        elif form == 4:
            self.add(f"crossprod({a}, {b})", pa.crossprod(pb), A.T @ B,
                     a, b)
        elif form == 5:
            self.add(f"tcrossprod({a}, {b})", pa.tcrossprod(pb), A @ B.T,
                     a, b)
        elif form == 6:
            self.add(f"solve(W, {b})", pw.solve(pb),
                     np.linalg.solve(W, B), b)
        elif form == 7:
            self.add("solve(W, w)", pw.solve(self.py["w"]),
                     np.linalg.solve(W, self.np["w"]))
        elif form == 8:
            self.add(f"solve(W) %*% {b}", pw.inv() @ pb,
                     np.linalg.solve(W, B), b)
        else:
            self.add(f"abs({a} * 0.5 - t({b}))", (pa * 0.5 - pb.T).abs(),
                     np.abs(A * 0.5 - B.T), a, b)

    STATEMENTS = (elementwise, elementwise, connective, subscript,
                  mask_subscript, assign, assign, linear_algebra,
                  linear_algebra)


@given(data=st.data(), level=st.sampled_from(LEVELS),
       seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_r_text_and_python_handles_build_the_same_program(data, level,
                                                          seed):
    rng = np.random.default_rng(seed)
    values = {
        "x": np.round(rng.uniform(-4, 4, N), 1),
        "y": np.round(rng.uniform(-4, 4, N), 1),
        "s": rng.integers(1, N + 1, 30).astype(np.float64),
        "w": rng.standard_normal(SIDE),
        "A": rng.standard_normal((SIDE, SIDE)),
        "W": rng.standard_normal((SIDE, SIDE)) + SIDE * np.eye(SIDE),
        "X": rng.standard_normal((TALL, SIDE)),
    }
    engine = small_engine(level)
    session = engine.session
    handles = {k: (session.vector(v) if v.ndim == 1
                   else session.matrix(v)) for k, v in values.items()}
    prog = Program(data.draw, handles, values)
    for _ in range(data.draw(st.integers(1, 8))):
        data.draw(st.sampled_from(Program.STATEMENTS))(prog)

    # The same stored inputs on both sides: ArrayInput identity is
    # id(data), so the engine session's handles are bound by name.
    interp = Interpreter(engine)
    interp.env.update(handles)
    source = "\n".join(prog.lines)
    interp.run(source)

    for name in prog.py:
        if name in handles:
            continue
        r_obj, py_obj = interp.env[name], prog.py[name]
        got_py = py_obj.values()
        if isinstance(r_obj, RScalar):
            got_r = np.array([r_obj.as_float()])
        else:
            assert type(r_obj) is type(py_obj), (name, source)
            got_r = r_obj.values()
        assert np.array_equal(got_r, got_py, equal_nan=True), \
            (name, source)
        assert np.allclose(got_py, prog.np[name], equal_nan=True), \
            (name, source)
        if name not in prog.forced:
            assert dag_signature(r_obj.node) \
                == dag_signature(py_obj.node), (name, source)
            assert session.plan(r_obj).signature() \
                == session.plan(py_obj).signature(), (name, source)


# ----------------------------------------------------------------------
# Structure: one module builds DAG nodes for user operations
# ----------------------------------------------------------------------
NODE_CLASSES = {name for name, obj in vars(expr).items()
                if isinstance(obj, type) and issubclass(obj, expr.Node)}
ALLOWED = {"Node", "ArrayInput", "Range"}


@pytest.mark.parametrize("module_name", ["engine", "session"])
def test_only_arrays_imports_the_node_classes(module_name):
    """``engine.py`` and ``session.py`` wrap stored arrays and ranges
    (``ArrayInput``, ``Range``) and annotate with ``Node``; every other
    node class is constructed for user operations in ``arrays.py``
    only, so neither module may import one — by name, from anywhere —
    nor the ``expr`` module whole."""
    import importlib
    module = importlib.import_module(f"repro.core.{module_name}")
    imported: set[str] = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert "expr" not in imported
    assert imported & NODE_CLASSES <= ALLOWED, \
        sorted(imported & NODE_CLASSES - ALLOWED)
    assert {"Map", "Subscript", "SubscriptAssign", "MatMul", "Crossprod",
            "Solve", "Inverse", "Transpose", "Reduce"} <= NODE_CLASSES


def test_the_handles_are_the_classes_on_the_generics_table():
    """No second deferred type: what the R front end returns is what
    the session's constructors return."""
    engine = RiotNGEngine(memory_bytes=1 << 20)
    interp = Interpreter(engine)
    interp.run("v <- c(1, 2, 3) * 2; m <- matrix(v, 3, 1); "
               "p <- crossprod(m); q <- crossprod(m, m)")
    assert type(interp.env["v"]) is RiotVector
    assert type(interp.env["m"]) is RiotMatrix
    # crossprod(m) arrives as crossprod(m, m): symmetric either way.
    assert isinstance(interp.env["p"].node, expr.Crossprod)
    assert isinstance(interp.env["q"].node, expr.Crossprod)
