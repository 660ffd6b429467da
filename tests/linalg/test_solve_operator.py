"""The first-class ``solve()`` operator: DAG nodes, rewrite, engines.

Covers the whole stack the operator threads through — ``Solve`` /
``Inverse`` expression nodes, the ``inv(A) %*% B -> solve(A, B)``
rewrite, evaluator dispatch onto the pivoted out-of-core LU, the
``session.solve`` / ``RiotMatrix.inv`` API, and the rlang ``solve()``
builtin running transparently (§4) on both the reference and the
next-generation engine.
"""

import numpy as np
import pytest

from repro.core import (Inverse, OptimizerConfig, RiotSession, Solve,
                        walk)
from repro.core.plan import InverseOp
from repro.core.engine import RiotNGEngine
from repro.rlang import Interpreter, NumpyEngine, RError
from repro.storage import StorageConfig


@pytest.fixture
def session():
    return RiotSession(storage=StorageConfig(
        memory_bytes=64 * 8192 * 8, block_size=8192))


def node_types(node):
    return [type(n).__name__ for n in walk(node)]


class TestNodes:
    def test_solve_shape_follows_rhs(self, session, rng):
        a = session.matrix(rng.standard_normal((8, 8)))
        b = session.matrix(rng.standard_normal((8, 3)))
        v = session.vector(rng.standard_normal(8))
        assert Solve(a.node, b.node).shape == (8, 3)
        assert Solve(a.node, v.node).shape == (8,)
        assert Inverse(a.node).shape == (8, 8)

    def test_solve_rejects_bad_shapes(self, session, rng):
        sq = session.matrix(rng.standard_normal((8, 8)))
        rect = session.matrix(rng.standard_normal((8, 5)))
        short = session.vector(rng.standard_normal(5))
        with pytest.raises(ValueError):
            Solve(rect.node, sq.node)
        with pytest.raises(ValueError):
            Solve(sq.node, short.node)
        with pytest.raises(ValueError):
            Inverse(rect.node)


class TestRewrite:
    def test_inv_matmul_becomes_solve(self, session, rng):
        a = session.matrix(rng.standard_normal((16, 16)))
        b = session.matrix(rng.standard_normal((16, 1)))
        plan = a.inv() @ b
        opt = session.plan(plan.node).logical_root
        assert "Solve" in node_types(opt)
        assert "Inverse" not in node_types(opt)

    def test_rewrite_fires_inside_chains(self, session, rng):
        """inv(A) %*% B %*% C: the left-deep inner multiply collapses."""
        a = session.matrix(rng.standard_normal((16, 16)))
        b = session.matrix(rng.standard_normal((16, 16)))
        c = session.matrix(rng.standard_normal((16, 2)))
        plan = (a.inv() @ b) @ c
        opt = session.plan(plan.node).logical_root
        assert "Inverse" not in node_types(opt)

    def test_rewrite_can_be_disabled(self, rng):
        """Level 0 runs ``inv(A) %*% B`` as written: the inverse is an
        operator of the plan."""
        as_written = RiotSession(
            storage=StorageConfig(memory_bytes=2 << 20),
            config=OptimizerConfig(level=0))
        a = as_written.matrix(rng.standard_normal((8, 8)))
        b = as_written.matrix(rng.standard_normal((8, 1)))
        plan = as_written.plan(a.inv() @ b)
        assert "Inverse" in node_types(plan.logical_root)
        assert any(isinstance(op, InverseOp) for op in plan.ops())

    def test_right_inverse_left_alone(self, session, rng):
        """Only a *left* inverse is rewritten (B %*% inv(A) keeps inv)."""
        a = session.matrix(rng.standard_normal((8, 8)))
        b = session.matrix(rng.standard_normal((8, 8)))
        opt = session.plan((b @ a.inv()).node).logical_root
        assert "Inverse" in node_types(opt)


class TestEvaluation:
    def test_solve_matches_numpy_matrix_rhs(self, session, rng):
        n, k = 96, 3
        a_np = rng.standard_normal((n, n))
        b_np = rng.standard_normal((n, k))
        x = session.solve(session.matrix(a_np), session.matrix(b_np))
        assert np.allclose(x.values(), np.linalg.solve(a_np, b_np),
                           atol=1e-8)

    def test_solve_vector_rhs_returns_vector(self, session, rng):
        n = 80
        a_np = rng.standard_normal((n, n))
        b_np = rng.standard_normal(n)
        x = session.solve(session.matrix(a_np), session.vector(b_np))
        values = x.values()
        assert values.shape == (n,)
        assert np.allclose(values, np.linalg.solve(a_np, b_np),
                           atol=1e-8)

    def test_explicit_inverse_forced(self, session, rng):
        n = 64
        a_np = rng.standard_normal((n, n))
        inv = session.matrix(a_np).inv()
        assert np.allclose(inv.values(), np.linalg.inv(a_np), atol=1e-8)

    def test_rewritten_plan_matches_unoptimized(self, rng):
        """Same answer with and without the inv-to-solve rewrite."""
        n = 96
        a_np = rng.standard_normal((n, n))
        b_np = rng.standard_normal((n, 1))
        results = {}
        for optimize in (True, False):
            s = RiotSession(storage=StorageConfig(
                memory_bytes=64 * 8192 * 8), optimize=optimize)
            plan = s.matrix(a_np).inv() @ s.matrix(b_np)
            results[optimize] = plan.values()
        assert np.allclose(results[True], results[False], atol=1e-8)
        assert np.allclose(results[True].ravel(),
                           np.linalg.solve(a_np, b_np).ravel(),
                           atol=1e-8)

    def test_solve_on_pivot_requiring_system(self, session):
        a_np = np.asarray([[0.0, 2.0], [1.0, 0.0]])
        b_np = np.asarray([4.0, 3.0])
        x = session.solve(session.matrix(a_np), session.vector(b_np))
        assert np.allclose(x.values(), [3.0, 2.0])

    def test_solve_of_sparse_coefficient(self, session, rng):
        """A sparse-stored A is densified, then factored with pivoting."""
        n = 64
        a_np = np.zeros((n, n))
        idx = rng.choice(n * n, size=n * 6, replace=False)
        a_np[idx // n, idx % n] = rng.standard_normal(idx.size)
        a_np += np.eye(n)  # keep it comfortably nonsingular
        rows, cols = np.nonzero(a_np)
        a = session.sparse_matrix(rows, cols, a_np[rows, cols], (n, n))
        b_np = rng.standard_normal(n)
        x = session.solve(a, session.vector(b_np))
        assert np.allclose(x.values(), np.linalg.solve(a_np, b_np),
                           atol=1e-8)

    def test_wide_rhs_solved_in_panels(self, rng):
        """A rewritten ``inv(A) %*% B`` with a *wide* B must respect the
        memory budget: the RHS is substituted one column panel at a
        time, never held in full (n x n) alongside the factor."""
        n = 128
        mem_scalars = 3 * n * 32  # the minimum pivot-panel budget
        s = RiotSession(storage=StorageConfig(
            memory_bytes=mem_scalars * 8, block_size=8192))
        rng_local = np.random.default_rng(9)
        a_np = rng_local.standard_normal((n, n))
        b_np = rng_local.standard_normal((n, n))
        plan = s.matrix(a_np).inv() @ s.matrix(b_np)
        opt = s.plan(plan.node).logical_root
        assert "Solve" in node_types(opt)
        assert np.allclose(plan.values(), np.linalg.solve(a_np, b_np),
                           atol=1e-7)

    def test_matrix_handle_solve_method(self, session, rng):
        n = 48
        a_np = rng.standard_normal((n, n))
        b_np = rng.standard_normal((n, 2))
        x = session.matrix(a_np).solve(session.matrix(b_np))
        assert np.allclose(x.values(), np.linalg.solve(a_np, b_np),
                           atol=1e-8)


SOURCE = """
x <- solve(A, b)
print(x)
"""


class TestRlangBuiltin:
    def test_reference_engine_solve(self, rng):
        interp = Interpreter(NumpyEngine(), seed=7)
        a_np = rng.standard_normal((12, 12))
        b_np = rng.standard_normal((12, 1))
        interp.env["A"] = interp.engine.make_matrix(a_np)
        interp.env["b"] = interp.engine.make_matrix(b_np)
        interp.run(SOURCE)
        assert np.allclose(interp.env["x"].data,
                           np.linalg.solve(a_np, b_np))

    def test_ng_engine_solve_matches_reference(self, rng):
        a_np = rng.standard_normal((40, 40))
        b_np = rng.standard_normal((40, 1))
        outputs = []
        for engine in (NumpyEngine(),
                       RiotNGEngine(memory_bytes=8 * 1024 * 1024)):
            interp = Interpreter(engine, seed=7)
            interp.env["A"] = engine.make_matrix(a_np)
            interp.env["b"] = engine.make_matrix(b_np)
            interp.run(SOURCE)
            outputs.append("\n".join(interp.output))
        assert outputs[0] == outputs[1]

    def test_solve_single_argument_inverts(self, rng):
        interp = Interpreter(NumpyEngine(), seed=7)
        a_np = rng.standard_normal((6, 6))
        interp.env["A"] = interp.engine.make_matrix(a_np)
        interp.run("Ainv <- solve(A)")
        assert np.allclose(interp.env["Ainv"].data, np.linalg.inv(a_np))

    def test_ng_engine_defers_to_solve_node(self, rng):
        engine = RiotNGEngine(memory_bytes=8 * 1024 * 1024)
        interp = Interpreter(engine, seed=7)
        interp.env["A"] = engine.make_matrix(rng.standard_normal((8, 8)))
        interp.env["b"] = engine.make_matrix(rng.standard_normal((8, 1)))
        interp.run("x <- solve(A, b)")
        assert isinstance(interp.env["x"].node, Solve)

    def test_singular_matrix_is_an_r_error(self):
        interp = Interpreter(NumpyEngine(), seed=7)
        interp.env["A"] = interp.engine.make_matrix(
            np.asarray([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RError):
            interp.run("solve(A)")
