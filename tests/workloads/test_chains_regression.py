"""Tests for the regression workload, solved as a session statement."""

import numpy as np

from repro.core import RiotSession
from repro.storage import StorageConfig
from repro.workloads import generate_problem


def ols(problem, memory_scalars=32 * 1024):
    """``solve(t(X) %*% X, t(X) %*% y)`` on a memory-capped session;
    returns ``(beta_hat, io_stats)`` of a cold run."""
    with RiotSession(storage=StorageConfig(
            memory_bytes=memory_scalars * 8, block_size=8192)) as s:
        x = s.matrix(problem.x, name="X")
        y = s.matrix(problem.y.reshape(-1, 1), name="y")
        s.store.pool.clear()
        s.reset_stats()
        beta = s.force(s.solve(x.T @ x, x.T @ y))
        s.store.flush()
        return beta.to_numpy().ravel(), s.io_stats.snapshot()


class TestRegression:
    def test_problem_generation_deterministic(self):
        p1 = generate_problem(100, 5, seed=3)
        p2 = generate_problem(100, 5, seed=3)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(p1.beta_true, p2.beta_true)

    def test_ols_recovers_beta(self):
        problem = generate_problem(5000, 16, noise=0.0, seed=1)
        beta, _ = ols(problem)
        assert np.allclose(beta, problem.beta_true, atol=1e-8)

    def test_ols_matches_lstsq_with_noise(self):
        problem = generate_problem(4000, 24, noise=0.5, seed=2)
        beta, _ = ols(problem)
        expect = np.linalg.lstsq(problem.x, problem.y, rcond=None)[0]
        assert np.allclose(beta, expect, atol=1e-7)

    def test_io_reported(self):
        problem = generate_problem(3000, 16, seed=4)
        _, io = ols(problem)
        assert io.total > 0

    def test_ols_on_nearly_collinear_design(self):
        """An ill-conditioned X'X — far from diagonally dominant — is
        exactly the regime the pivoted solver buys the workload."""
        problem = generate_problem(4000, 24, noise=0.1, seed=6,
                                   collinearity=0.9)
        beta, _ = ols(problem)
        expect = np.linalg.lstsq(problem.x, problem.y, rcond=None)[0]
        assert np.allclose(beta, expect, atol=1e-6)
