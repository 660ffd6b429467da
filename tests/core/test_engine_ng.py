"""Tests for the next-generation RIOT engine behind the R interpreter."""

import numpy as np
import pytest

from repro.core import RiotVector
from repro.core.engine import RiotNGEngine
from repro.rlang import Interpreter


@pytest.fixture
def engine():
    return RiotNGEngine(memory_bytes=4 * 1024 * 1024)


@pytest.fixture
def interp(engine):
    return Interpreter(engine, seed=5)


class TestSemantics:
    def test_elementwise(self, engine, interp, rng):
        x = rng.standard_normal(5000)
        interp.env["x"] = engine.make_vector(x)
        interp.run("z <- sqrt((x - 1)^2) * 2 + 1")
        got = engine.session.values(interp.env["z"].node)
        assert np.allclose(got, np.sqrt((x - 1) ** 2) * 2 + 1)

    def test_everything_is_deferred(self, engine, interp, rng):
        """Building expressions costs zero I/O; only print forces."""
        x = rng.standard_normal(100_000)
        interp.env["x"] = engine.make_vector(x)
        engine.session.store.flush()
        engine.reset_stats()
        interp.run("d <- (x - 1)^2 + (x - 2)^2\nz <- d[1:5]")
        assert engine.io_stats().total == 0
        assert isinstance(interp.env["z"], RiotVector)

    def test_print_forces_selectively(self, engine, interp, rng):
        x = rng.standard_normal(500_000)
        interp.env["x"] = engine.make_vector(x)
        interp.run("d <- (x - 1)^2")
        engine.session.store.flush()
        engine.reset_stats()
        interp.run("print(d[1:10])")
        # A handful of chunks, not the ~1000 of the full vector.
        assert engine.io_stats().total < 16
        expect = (x[:10] - 1) ** 2
        assert interp.output[0].startswith(
            "[1] " + f"{expect[0]:g}"[:4])

    def test_mask_assignment(self, engine, interp, rng):
        a = rng.uniform(0, 20, 3000)
        interp.env["a"] = engine.make_vector(a)
        interp.run("b <- a^2; b[b > 100] <- 100")
        got = engine.session.values(interp.env["b"].node)
        assert np.allclose(got, np.minimum(a ** 2, 100))

    def test_positional_assignment(self, engine, interp, rng):
        x = rng.standard_normal(1000)
        interp.env["x"] = engine.make_vector(x)
        interp.run("y <- x + 0; y[c(2, 4)] <- 0; print(y[1:5])")
        got = engine.session.values(interp.env["y"].node)
        expect = x.copy()
        expect[[1, 3]] = 0
        assert np.allclose(got, expect)

    def test_value_semantics(self, engine, interp, rng):
        x = rng.standard_normal(100)
        interp.env["x"] = engine.make_vector(x)
        interp.run("y <- x; y[1] <- 42")
        assert np.allclose(engine.session.values(interp.env["x"].node),
                           x)

    def test_reductions(self, engine, interp, rng):
        x = rng.standard_normal(10_000)
        interp.env["x"] = engine.make_vector(x)
        assert interp.run("sum(x)").value == pytest.approx(x.sum())
        assert interp.run("mean(x^2)").value == pytest.approx(
            (x ** 2).mean())

    def test_matmul_chain(self, engine, interp, rng):
        a = rng.standard_normal((40, 8))
        b = rng.standard_normal((8, 40))
        c = rng.standard_normal((40, 20))
        interp.env["A"] = engine.make_matrix(a)
        interp.env["B"] = engine.make_matrix(b)
        interp.env["C"] = engine.make_matrix(c)
        interp.run("T <- A %*% B %*% C")
        got = engine.session.force(interp.env["T"].node).to_numpy()
        assert np.allclose(got, a @ b @ c)

    def test_transpose_and_dim(self, engine, interp, rng):
        a = rng.standard_normal((6, 9))
        interp.env["A"] = engine.make_matrix(a)
        assert interp.run("nrow(t(A))").value == 9
        assert interp.run("ncol(t(A))").value == 6

    def test_crossprod_routes_to_symmetric_node(self, engine, interp,
                                                rng):
        """``crossprod(A)`` builds the Crossprod node directly — no
        Transpose, no plain MatMul — and matches numpy."""
        from repro.core import Crossprod, Transpose, walk
        a = rng.standard_normal((40, 12))
        interp.env["A"] = engine.make_matrix(a)
        interp.run("C <- crossprod(A)")
        node = interp.env["C"].node
        assert isinstance(node, Crossprod) and node.t_first
        assert not any(isinstance(n, Transpose) for n in walk(node))
        got = engine.session.force(node).to_numpy()
        assert np.allclose(got, a.T @ a)

    def test_tcrossprod_and_two_arg_crossprod(self, engine, interp,
                                              rng):
        from repro.core import Crossprod, MatMul
        a = rng.standard_normal((40, 12))
        b = rng.standard_normal((40, 8))
        interp.env["A"] = engine.make_matrix(a)
        interp.env["B"] = engine.make_matrix(b)
        interp.run("T1 <- tcrossprod(A); T2 <- crossprod(A, B)")
        assert isinstance(interp.env["T1"].node, Crossprod)
        assert not interp.env["T1"].node.t_first
        node2 = interp.env["T2"].node
        assert isinstance(node2, MatMul) and node2.trans_a
        assert np.allclose(
            engine.session.force(interp.env["T1"].node).to_numpy(),
            a @ a.T)
        assert np.allclose(
            engine.session.force(node2).to_numpy(), a.T @ b)

    def test_range_is_lazy(self, engine, interp):
        engine.session.store.flush()
        engine.reset_stats()
        interp.run("r <- 1:1000000")
        assert engine.io_stats().total == 0  # Range node, nothing stored

    def test_logical_select_and_which(self, engine, interp, rng):
        x = rng.standard_normal(2000)
        interp.env["x"] = engine.make_vector(x)
        interp.run("p <- x[x > 0]; w <- which(x > 0)")
        assert np.allclose(engine.session.values(interp.env["p"].node),
                           x[x > 0])
        assert np.allclose(engine.session.values(interp.env["w"].node),
                           np.flatnonzero(x > 0) + 1)

    def test_head(self, engine, interp, rng):
        x = rng.standard_normal(100)
        interp.env["x"] = engine.make_vector(x)
        interp.run("h <- head(x, 3)")
        assert np.allclose(engine.session.values(interp.env["h"].node),
                           x[:3])

    def test_scalar_index(self, engine, interp, rng):
        x = rng.standard_normal(50)
        interp.env["x"] = engine.make_vector(x)
        assert interp.run("x[7]").value == pytest.approx(x[6])


class TestSessionCaching:
    def test_repeated_force_cached(self, rng):
        from repro.core import RiotSession
        from repro.storage import StorageConfig
        session = RiotSession(
            storage=StorageConfig(memory_bytes=2 * 1024 * 1024))
        x = session.vector(rng.standard_normal(100_000))
        d = (x - 1.0) ** 2.0
        d.force()
        session.store.flush()
        session.reset_stats()
        d.force()
        assert session.io_stats.total == 0

    def test_explain_shows_both_dags(self, rng):
        from repro.core import RiotSession
        from repro.storage import StorageConfig
        session = RiotSession(
            storage=StorageConfig(memory_bytes=1 << 20))
        x = session.vector(rng.standard_normal(1000))
        text = ((x + 1.0)[1:5]).explain()
        assert "-- original --" in text
        assert "-- optimized --" in text


class TestExplainBuiltin:
    def test_rlang_explain_emits_physical_plan(self, engine, interp):
        interp.run("a <- matrix(rnorm(64 * 48), 64, 48)\n"
                   "b <- matrix(rnorm(48 * 32), 48, 32)\n"
                   "p <- a %*% b\n"
                   "explain(p)")
        text = interp.output[-1]
        assert "-- physical plan (level 2) --" in text
        assert "matmul.square" in text
        assert "predicted ~" in text

    def test_rlang_explain_transpose_free_ols(self, engine, interp):
        """The acceptance view from R: crossprod, the operand flag and
        the shared scan of x appear in the plan without any user
        hints — t(x) %*% y rides on the crossprod's operator."""
        interp.run("x <- matrix(rnorm(96 * 24), 96, 24)\n"
                   "y <- matrix(rnorm(96 * 1), 96, 1)\n"
                   "beta <- solve(t(x) %*% x, t(x) %*% y)\n"
                   "explain(beta)")
        text = interp.output[-1]
        assert "solve.lu" in text
        assert "%*%[t(a),b]" in text
        assert "crossprod[sides=1]" in text
        assert "matmul.square" not in text

    def test_reference_engine_has_no_plan(self):
        from repro.engines.plain_r import PlainREngine
        from repro.rlang import Interpreter
        from repro.rlang.values import RError
        interp = Interpreter(PlainREngine(), seed=1)
        with pytest.raises(RError):
            interp.run("x <- matrix(rnorm(4), 2, 2)\nexplain(x)")


class TestOptimizerConfigWiring:
    def test_engine_accepts_config(self, rng):
        from repro.core import OptimizerConfig
        engine = RiotNGEngine(memory_bytes=4 * 1024 * 1024,
                              config=OptimizerConfig(level=1))
        assert engine.session.config.level == 1
        interp = Interpreter(engine, seed=5)
        interp.env["x"] = engine.make_vector(rng.standard_normal(100))
        interp.run("z <- sqrt((x - 1)^2)")
        got = engine.session.values(interp.env["z"].node)
        assert got.shape == (100,)
