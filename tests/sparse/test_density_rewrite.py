"""Density propagation through the DAG and sparsity-aware rewriting."""

import numpy as np
import pytest

from repro.core import OptimizerConfig, RiotSession
from repro.core.chain import optimal_order, optimal_order_sparse
from repro.core.expr import (ArrayInput, Map, MatMul, Scalar, Subscript,
                             SubscriptAssign, Range, Transpose)
from repro.core.plan import SparseSpMMOp, TileMatMulOp
from repro.sparse import SparseTiledMatrix
from repro.storage import StorageConfig


@pytest.fixture
def session():
    return RiotSession(
        storage=StorageConfig(memory_bytes=8 * 1024 * 1024))


def _sparse_input(session, m, n, density, seed=0):
    return session.random_sparse_matrix(m, n, density, seed=seed).node


class TestDensityPropagation:
    def test_array_input_carries_exact_density(self, session):
        node = _sparse_input(session, 200, 200, 0.01)
        assert isinstance(node, ArrayInput)
        assert node.density == pytest.approx(0.01, rel=0.01)
        assert node.estimated_nnz == pytest.approx(400, rel=0.01)

    def test_dense_input_density_is_one(self, session):
        v = session.vector(np.ones(100))
        assert v.node.density == 1.0

    def test_scalar_zero_is_density_zero(self):
        assert Scalar(0.0).density == 0.0
        assert Scalar(3.0).density == 1.0

    def test_product_intersects_densities(self, session):
        a = _sparse_input(session, 256, 256, 0.1, seed=1)
        b = _sparse_input(session, 256, 256, 0.2, seed=2)
        assert Map("*", a, b).density == pytest.approx(0.02, rel=0.05)

    def test_sum_unions_densities(self, session):
        a = _sparse_input(session, 256, 256, 0.1, seed=1)
        b = _sparse_input(session, 256, 256, 0.2, seed=2)
        assert Map("+", a, b).density == pytest.approx(0.3, rel=0.05)
        dense = Map("+", a, Map("+", b, b))
        assert Map("+", dense, dense).density == 1.0  # clamped

    def test_zero_preserving_unaries_pass_density(self, session):
        a = _sparse_input(session, 256, 256, 0.1, seed=1)
        assert Map("sqrt", a).density == a.density
        assert Map("neg", a).density == a.density
        # exp(0) == 1: density collapses to dense.
        assert Map("exp", a).density == 1.0

    def test_scalar_multiply_keeps_density(self, session):
        a = _sparse_input(session, 256, 256, 0.1, seed=1)
        assert Map("*", Scalar(2.5), a).density == a.density
        assert Map("*", Scalar(0.0), a).density == 0.0

    def test_matmul_uses_independence_estimate(self, session):
        a = _sparse_input(session, 256, 256, 0.01, seed=1)
        b = _sparse_input(session, 256, 256, 0.01, seed=2)
        node = MatMul(a, b)
        expect = 1.0 - (1.0 - 0.01 * 0.01) ** 256
        assert node.density == pytest.approx(expect, rel=0.05)

    def test_transpose_and_subscript_pass_through(self, session):
        a = _sparse_input(session, 256, 256, 0.1, seed=1)
        assert Transpose(a).density == a.density
        v = session.vector(np.r_[np.zeros(90), np.ones(10)])
        sub = Subscript(v.node, Range(1, 5))
        assert sub.density == v.node.density

    def test_assigning_zero_keeps_base_density(self, session):
        v = session.vector(np.ones(100))
        mask = (v > 0.5).node
        cleared = SubscriptAssign(v.node, mask, Scalar(0.0),
                                  logical_mask=True)
        assert cleared.density == v.node.density
        filled = SubscriptAssign(v.node, mask, Scalar(2.0),
                                 logical_mask=True)
        assert filled.density == 1.0

    def test_handle_exposes_density(self, session):
        A = session.random_sparse_matrix(128, 128, 0.05, seed=3)
        assert A.density == pytest.approx(0.05, rel=0.05)
        assert A.estimated_nnz == pytest.approx(0.05 * 128 * 128,
                                                rel=0.05)


class TestSparseChainOrder:
    def test_sparse_sparse_vector_goes_vector_first(self):
        # (A %*% B) %*% v with sparse A, B: multiplying B v first costs
        # d*n^2 expected multiplies instead of d^2*n^3 + ... for (AB)v.
        dims = [1000, 1000, 1000, 1]
        order = optimal_order_sparse(dims, [0.01, 0.01, 1.0])
        assert order == (0, (1, 2))

    def test_sparse_dp_can_disagree_with_dense_dp(self):
        # Dense flops prefer A(BC) here; with A at 0.1% density the
        # cheap sparse product (AB) first wins on expected work.
        dims = [200, 200, 200, 50]
        densities = [0.001, 1.0, 1.0]
        assert optimal_order(dims) == (0, (1, 2))
        assert optimal_order_sparse(dims, densities) == ((0, 1), 2)

    def test_all_dense_matches_classic_dp(self):
        dims = [100_000, 50_000, 100_000, 100_000]
        assert optimal_order_sparse(dims, [1.0, 1.0, 1.0]) == \
            optimal_order(dims)

    def test_density_length_validated(self):
        with pytest.raises(ValueError):
            optimal_order_sparse([10, 10, 10], [0.5])


class TestRewriter:
    """Chain order and sparse-vs-dense kernel choice, read off the
    plan: the reordered ``logical_root`` and the operator classes."""

    def test_chain_rewrite_picks_nnz_cheap_order(self, session):
        n = 256
        A = session.random_sparse_matrix(n, n, 0.005, seed=1)
        B = session.random_sparse_matrix(n, n, 0.005, seed=2)
        v = session.matrix(np.random.default_rng(3)
                           .standard_normal((n, 1)))
        root = (A @ B) @ v
        plan = session.plan(root.node)
        assert "order=" in plan.root.detail
        # Right-deep: the top multiply's left child is the A input.
        optimized = plan.logical_root
        assert isinstance(optimized, MatMul)
        assert optimized.children[0] is A.node
        assert isinstance(optimized.children[1], MatMul)

    def test_kernel_select_sparse_for_sparse_operand(self, session):
        A = session.random_sparse_matrix(512, 512, 0.005, seed=1)
        B = session.matrix(np.random.default_rng(2)
                           .standard_normal((512, 64)))
        op = session.plan((A @ B).node).root
        assert isinstance(op, SparseSpMMOp)
        assert [label for label, _io in op.alternatives] == \
            ["dense square-tile"]

    def test_kernel_select_dense_for_near_dense_operand(self, session):
        A = session.random_sparse_matrix(256, 256, 0.6, seed=1)
        B = session.matrix(np.random.default_rng(2)
                           .standard_normal((256, 256)))
        op = session.plan((A @ B).node).root
        assert isinstance(op, TileMatMulOp)
        assert op.label() == "matmul.square[densified]"

    def test_dense_matmul_untouched(self, session):
        A = session.matrix(np.eye(64))
        B = session.matrix(np.eye(64))
        plan = session.plan((A @ B).node)
        assert plan.logical_root.kernel == "auto"
        assert plan.root.label() == "matmul.square"
        assert not any(label.startswith("sparse")
                       for label, _io in plan.root.alternatives)

    def test_kernel_select_respects_explicit_hint(self, session):
        A = session.random_sparse_matrix(512, 512, 0.005, seed=1)
        B = session.matrix(np.random.default_rng(2)
                           .standard_normal((512, 64)))
        pinned = MatMul(A.node, B.node, kernel="dense")
        plan = session.plan(pinned)
        assert plan.logical_root.kernel == "dense"
        assert plan.root.label() == "matmul.square[pinned]"

    def test_disabled_kernel_select(self):
        """Below level 2 nothing is priced against the dense kernel:
        even a near-dense sparse-stored operand keeps the type-driven
        SpMM that level 2 rejects (see the near-dense test above)."""
        session = RiotSession(
            storage=StorageConfig(memory_bytes=8 * 1024 * 1024),
            config=OptimizerConfig(level=1))
        A = session.random_sparse_matrix(256, 256, 0.6, seed=1)
        B = session.matrix(np.random.default_rng(2)
                           .standard_normal((256, 256)))
        op = session.plan((A @ B).node).root
        assert isinstance(op, SparseSpMMOp)
        assert op.alternatives == []


class TestEndToEnd:
    def test_sparse_chain_executes_correctly(self, session):
        n = 256
        A = session.random_sparse_matrix(n, n, 0.01, seed=1)
        B = session.random_sparse_matrix(n, n, 0.01, seed=2)
        v = session.matrix(np.random.default_rng(3)
                           .standard_normal((n, 1)))
        got = ((A @ B) @ v).values()
        expect = (A.values() @ B.values()) @ v.values()
        assert np.allclose(got, expect)

    def test_nnz_cheap_order_saves_measured_io(self):
        """The acceptance scenario: on a sparse-sparse-vector chain the
        rewritten (right-deep) plan does strictly less I/O than the
        left-deep program order."""
        n = 512
        density = 0.005

        def run(optimize):
            s = RiotSession(storage=StorageConfig(
                memory_bytes=24 * 8192), optimize=optimize)
            A = s.random_sparse_matrix(n, n, density, seed=1)
            B = s.random_sparse_matrix(n, n, density, seed=2)
            v = s.matrix(np.random.default_rng(3)
                         .standard_normal((n, 1)))
            chain = (A @ B) @ v
            s.store.pool.clear()  # cold start: measure real I/O
            s.reset_stats()
            got = chain.values()
            return s.io_stats.total, got

        io_opt, got_opt = run(True)
        io_raw, got_raw = run(False)
        assert np.allclose(got_opt, got_raw)
        assert io_opt < io_raw

    def test_sparse_times_sparse_materializes_sparse(self, session):
        A = session.random_sparse_matrix(512, 512, 0.002, seed=1)
        B = session.random_sparse_matrix(512, 512, 0.002, seed=2)
        result = session.force((A @ B).node)
        assert isinstance(result, SparseTiledMatrix)
        assert np.allclose(result.to_numpy(), A.values() @ B.values())

    def test_forced_dense_hint_densifies(self, session):
        A = session.random_sparse_matrix(128, 128, 0.05, seed=1)
        B = session.matrix(np.eye(128))
        node = MatMul(A.node, B.node, kernel="dense")
        result = session.evaluator.force(node)
        assert not isinstance(result, SparseTiledMatrix)
        assert np.allclose(result.to_numpy(), A.values())

    def test_reduce_over_sparse_product(self, session):
        A = session.random_sparse_matrix(256, 256, 0.01, seed=1)
        B = session.random_sparse_matrix(256, 256, 0.01, seed=2)
        total = (A @ B).sum()
        assert total == pytest.approx((A.values() @ B.values()).sum())

    def test_elementwise_map_over_sparse_result(self, session):
        A = session.random_sparse_matrix(128, 128, 0.02, seed=1)
        B = session.random_sparse_matrix(128, 128, 0.02, seed=2)
        doubled = (A @ B) * 2.0
        assert np.allclose(doubled.values(),
                           2.0 * (A.values() @ B.values()))

    def test_transpose_of_sparse_input(self, session):
        A = session.random_sparse_matrix(96, 160, 0.05, seed=4)
        assert np.allclose(A.T.values(), A.values().T)
