"""The cost-based physical planner: lowering, enumeration, execution.

Includes two acceptance scenarios with *no* hand-set kernel hints: the
OLS plan (one crossprod carrying X'y, then the pivoted LU) is pinned
at its exact block count, and the sparse chain's right-deep
SpGEMM/SpMM plan lands within 10% of the hand-ordered statement.
"""

import numpy as np
import pytest

from repro.core import (Map, MatMul, OptimizerConfig, RiotSession,
                        Scalar, Solve, Transpose)
from repro.core.plan import (CrossprodOp, FusedEpilogueOp, LeafOp,
                             LUSolveOp, MapOp, SparseSpGEMMOp,
                             SparseSpMMOp, TileMatMulOp)
from repro.storage import StorageConfig


def session(level=2, mem=4 * 1024 * 1024, **cfg):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem, block_size=8192),
        config=OptimizerConfig(level=level, **cfg))


def ops_of(plan, kind):
    return [op for op in plan.ops() if isinstance(op, kind)]


class TestLowering:
    def test_leaf_and_stream(self, rng):
        s = session()
        x = s.vector(rng.standard_normal(5000))
        plan = s.plan(((x - 1.0) ** 2.0).node)
        root = plan.root
        assert isinstance(root, MapOp) and root.detail == "stream"
        assert any(isinstance(c, LeafOp) for c in root.children)
        assert root.predicted_io > 0

    def test_matmul_lowered_to_square_tile(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((64, 48)))
        b = s.matrix(rng.standard_normal((48, 32)))
        plan = s.plan((a @ b).node)
        assert isinstance(plan.root, TileMatMulOp)

    def test_solve_lowered_to_lu(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((32, 32)))
        b = s.vector(rng.standard_normal(32))
        plan = s.plan(Solve(a.node, b.node))
        assert isinstance(plan.root, LUSolveOp)
        assert plan.root.predicted_io > 0

    def test_shared_subplans_share_ops(self, rng):
        s = session(fuse_epilogues=False)
        a = s.matrix(rng.standard_normal((32, 32)))
        b = s.matrix(rng.standard_normal((32, 32)))
        p = MatMul(a.node, b.node)
        root = Map("+", Map("*", p, Scalar(2.0)), p)
        plan = s.plan(root)
        # One op for the shared product, in a DAG-shaped plan.
        assert len(ops_of(plan, TileMatMulOp)) == 1

    def test_region_with_all_consumers_inside_still_fuses(self, rng):
        """A product consumed twice, but only within one Map region,
        is still safe to fuse — the edge guard counts region-internal
        edges against whole-DAG edges."""
        s = session()
        a = s.matrix(rng.standard_normal((32, 32)))
        b = s.matrix(rng.standard_normal((32, 32)))
        p = MatMul(a.node, b.node)
        root = Map("+", Map("*", p, Scalar(2.0)), p)
        plan = s.plan(root)
        assert isinstance(plan.root, FusedEpilogueOp)
        p_np = a.values() @ b.values()
        assert np.allclose(s.values(root), 2.0 * p_np + p_np)


class TestKernelChoice:
    def test_sparse_wins_for_sparse_times_vector(self):
        s = session()
        A = s.random_sparse_matrix(512, 512, 0.005, seed=1)
        v = s.matrix(np.random.default_rng(0)
                     .standard_normal((512, 1)))
        plan = s.plan((A @ v).node)
        assert isinstance(plan.root, SparseSpMMOp)
        assert plan.root.alternatives  # dense alternative enumerated

    def test_pinned_dense_respected(self):
        s = session()
        A = s.random_sparse_matrix(512, 512, 0.005, seed=1)
        v = s.matrix(np.random.default_rng(0)
                     .standard_normal((512, 1)))
        plan = s.plan(MatMul(A.node, v.node, kernel="dense"))
        assert isinstance(plan.root, TileMatMulOp)
        assert "pinned" in plan.root.detail

    def test_pinned_sparse_respected(self):
        s = session()
        A = s.random_sparse_matrix(256, 256, 0.01, seed=1)
        B = s.random_sparse_matrix(256, 256, 0.01, seed=2)
        plan = s.plan(MatMul(A.node, B.node, kernel="sparse"))
        assert isinstance(plan.root, SparseSpGEMMOp)

    def test_pinned_sparse_keeps_a_transposed_dense_operand(self):
        """``A %*% t(D)`` pinned sparse, D not square: the sparse
        kernels take no operand flags, so the transpose is not absorbed
        (absorbing it used to raise inside the pass) and the product is
        priced and run at ``n = D.shape[0]``."""
        s = session()
        A = s.random_sparse_matrix(512, 256, 0.01, seed=1)
        D = s.matrix(np.random.default_rng(0)
                     .standard_normal((64, 256)))
        node = MatMul(A.node, Transpose(D.node), kernel="sparse")
        plan = s.plan(node)
        assert isinstance(plan.root, SparseSpMMOp)
        assert not plan.root.node.trans_b
        inputs = plan.root.cost_inputs
        assert (inputs["m"], inputs["l"], inputs["n"]) == (512, 256, 64)
        assert np.allclose(s.values(node), A.values() @ D.values().T)

    def test_level1_keeps_type_dispatch(self):
        """Heuristic level: a sparse-stored left operand runs the
        sparse kernel, no cost comparison, no alternatives."""
        s = session(level=1)
        A = s.random_sparse_matrix(512, 512, 0.005, seed=1)
        v = s.matrix(np.random.default_rng(0)
                     .standard_normal((512, 1)))
        plan = s.plan((A @ v).node)
        assert isinstance(plan.root, SparseSpMMOp)
        assert not plan.root.alternatives


class TestSparseTileGeometry:
    def test_spgemm_priced_on_both_operands_grids(self):
        """B stored on 128x64 tiles under an A on 128x128: the output
        grid and B's pages per tile come from B's own tile width.  Read
        off A's side alone (square 128s for both) the prediction was
        1280 blocks against 2302 measured under the old output-tile
        loop; priced on both grids it lands on the measurement."""
        from repro.core import ArrayInput, RiotMatrix
        from repro.sparse import SparseTiledMatrix
        s = session(mem=16 * 8192)
        rng = np.random.default_rng(5)

        def stored(shape, tile, name):
            nnz = int(0.01 * shape[0] * shape[1])
            flat = rng.choice(shape[0] * shape[1], size=nnz,
                              replace=False)
            data = SparseTiledMatrix.from_coo(
                s.store, flat // shape[1], flat % shape[1],
                rng.standard_normal(nnz), shape, tile_shape=tile,
                name=name)
            return ArrayInput(data, name=name)

        node = MatMul(stored((1024, 1024), (128, 128), "A"),
                      stored((1024, 1024), (128, 64), "B"))
        plan = s.plan(node)
        assert isinstance(plan.root, SparseSpGEMMOp)
        assert plan.root.cost_inputs["tiles"] == (128, 128, 64)
        s.store.flush()
        s.store.pool.clear()
        s.reset_stats()
        c = RiotMatrix(s, node).force()
        s.store.flush()
        assert c.tile_shape == (128, 64)
        assert 0.8 <= s.io_stats.total / plan.root.predicted_io <= 1.25


class TestChainOrder:
    def test_dp_reorders_skewed_chain(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((100, 10)))
        b = s.matrix(rng.standard_normal((10, 100)))
        c = s.matrix(rng.standard_normal((100, 100)))
        plan = s.plan(((a @ b) @ c).node)
        assert "order=" in plan.root.detail
        assert any("program-order" in alt
                   for alt, _ in plan.root.alternatives)

    def test_chain_reorder_override_disables(self, rng):
        s = session(chain_reorder=False)
        a = s.matrix(rng.standard_normal((100, 10)))
        b = s.matrix(rng.standard_normal((10, 100)))
        c = s.matrix(rng.standard_normal((100, 100)))
        plan = s.plan(((a @ b) @ c).node)
        assert "order=" not in plan.root.detail

    def test_level1_keeps_program_order(self, rng):
        s = session(level=1)
        a = s.matrix(rng.standard_normal((100, 10)))
        b = s.matrix(rng.standard_normal((10, 100)))
        c = s.matrix(rng.standard_normal((100, 100)))
        plan = s.plan(((a @ b) @ c).node)
        assert "order=" not in plan.root.detail


class TestFuseVsMaterialize:
    def test_epilogue_fused_with_alternative_recorded(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((160, 64)))
        b = s.matrix(rng.standard_normal((64, 96)))
        c = s.matrix(rng.standard_normal((160, 96)))
        plan = s.plan((2.5 * (a @ b) + c).node)
        assert isinstance(plan.root, FusedEpilogueOp)
        (label, unfused_io), = plan.root.alternatives
        assert label == "materialize+map"
        assert plan.root.predicted_io < unfused_io

    def test_fusion_override_disables(self, rng):
        s = session(fuse_epilogues=False)
        a = s.matrix(rng.standard_normal((160, 64)))
        b = s.matrix(rng.standard_normal((64, 96)))
        c = s.matrix(rng.standard_normal((160, 96)))
        plan = s.plan((2.5 * (a @ b) + c).node)
        assert isinstance(plan.root, MapOp)
        assert len(ops_of(plan, TileMatMulOp)) == 1

    def test_shared_product_not_fused(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((40, 40)))
        b = s.matrix(rng.standard_normal((40, 40)))
        c = s.matrix(rng.standard_normal((40, 40)))
        p = MatMul(a.node, b.node)
        root = MatMul(Map("+", p, c.node), p)
        plan = s.plan(root)
        assert not ops_of(plan, FusedEpilogueOp)
        # ...and execution still runs the shared product exactly once.
        values = s.values(root)
        p_np = a.values() @ b.values()
        assert np.allclose(values, (p_np + c.values()) @ p_np)


class TestExecution:
    def test_execute_records_measured_io(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((96, 64)))
        b = s.matrix(rng.standard_normal((64, 96)))
        handle = a @ b
        plan = s.plan(handle.node)
        assert plan.total_measured is None
        s.store.pool.clear()
        s.reset_stats()
        handle.force()
        assert plan.executed
        assert plan.total_measured is not None
        assert plan.total_measured > 0

    def test_explain_shows_predicted_then_measured(self, rng):
        s = session()
        a = s.matrix(rng.standard_normal((96, 64)))
        b = s.matrix(rng.standard_normal((64, 96)))
        handle = a @ b
        before = s.explain(handle)
        assert "predicted ~" in before
        assert "measured" not in before.split("physical plan")[1]
        handle.force()
        after = s.explain(handle)
        assert "| measured" in after

    def test_level0_explains_fallback(self, rng):
        """Level 0 is a plan like any other: the DAG as written,
        lowered, predicted and — once forced — measured."""
        s = session(level=0)
        a = s.matrix(rng.standard_normal((16, 16)))
        handle = a @ a
        text = s.explain(handle)
        assert "-- physical plan (level 0) --" in text
        assert "matmul.square" in text and "predicted ~" in text
        handle.force()
        assert "| measured" in s.explain(handle)


class TestAcceptanceOLS:
    def test_hint_free_ols_shares_one_scan_in_66_blocks(self):
        """solve(t(X) X, t(X) y) with no kernel hints: the planner must
        pick crossprod carrying X'y on the same scan of X + LU, and the
        cold run moves exactly 66 blocks — X (64) and y (one page-
        filling 512 x 1 tile) read once, the one-page result written
        once."""
        from repro.workloads.regression import generate_problem
        prob = generate_problem(512, 128, seed=3)

        s = session(mem=96 * 1024 * 8)
        X = s.matrix(prob.x, name="X")
        y = s.matrix(prob.y.reshape(-1, 1), name="y")
        node = Solve(MatMul(Transpose(X.node), X.node),
                     MatMul(Transpose(X.node), y.node))
        plan = s.plan(node)
        assert isinstance(plan.root, LUSolveOp)
        [cross] = ops_of(plan, CrossprodOp)
        [side] = cross.side_nodes
        assert side.trans_a and side is plan.logical_root.children[1], \
            "one crossprod operator must carry X'y"
        assert not ops_of(plan, TileMatMulOp)
        s.store.pool.clear()
        s.reset_stats()
        out = s.force(node)
        s.store.flush()
        expect = np.linalg.solve(prob.x.T @ prob.x, prob.x.T @ prob.y)
        assert np.allclose(out.to_numpy().ravel(), expect, atol=1e-8)
        stats = s.io_stats
        assert (stats.total, stats.reads, stats.writes) == (66, 65, 1)


class TestAcceptanceSparseChain:
    def test_planner_matches_nnz_aware_chain_within_10pct(self):
        """(A B) v with sparse A, B and no hints: right-deep sparse
        plan, block total inside the plan's own prediction band and
        within 10% of the hand-ordered A (B v) run as written."""
        n, density = 512, 0.005

        def run(level, build):
            s = RiotSession(
                storage=StorageConfig(memory_bytes=24 * 8192),
                config=OptimizerConfig(level=level))
            A = s.random_sparse_matrix(n, n, density, seed=1)
            B = s.random_sparse_matrix(n, n, density, seed=2)
            v = s.matrix(np.random.default_rng(3)
                         .standard_normal((n, 1)))
            node = build(A, B, v).node
            plan = s.plan(node)
            s.store.pool.clear()
            s.reset_stats()
            got = s.force(node).to_numpy()
            s.store.flush()
            return plan, got, s.io_stats.total

        plan, got, measured = run(2, lambda A, B, v: (A @ B) @ v)
        assert isinstance(plan.root, SparseSpMMOp)
        assert "order=" in plan.root.detail  # right-deep via the DP
        assert ops_of(plan, SparseSpMMOp)
        assert 0.5 <= measured / plan.total_predicted <= 2.0, \
            f"measured {measured} vs predicted " \
            f"{plan.total_predicted:.0f} blocks"

        _, ref, by_hand = run(0, lambda A, B, v: A @ (B @ v))
        assert np.array_equal(got, ref)
        assert abs(measured - by_hand) <= 0.10 * by_hand, \
            f"planner {measured} vs hand-ordered {by_hand} blocks"


class TestLevels:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_each_level_correct_on_mixed_dag(self, rng, level):
        s = session(level=level)
        x_np = rng.standard_normal((64, 48))
        y_np = rng.standard_normal((48, 32))
        c_np = rng.standard_normal((64, 32))
        a, b = s.matrix(x_np), s.matrix(y_np)
        c = s.matrix(c_np)
        plan_handle = (a @ b) * 0.5 + c
        assert np.allclose(plan_handle.values(),
                           0.5 * (x_np @ y_np) + c_np)


class TestChainReorderInteractions:
    """Chains are reordered as a plan-time prepass over the whole
    logical DAG, so every consumer — fusion, crossprod, reductions —
    sees the DP-chosen structure and execution memos never dangle."""

    def _skewed(self, s, rng):
        a = s.matrix(rng.standard_normal((200, 30)), name="A")
        b = s.matrix(rng.standard_normal((30, 400)), name="B")
        c = s.matrix(rng.standard_normal((400, 20)), name="C")
        return a, b, c

    def test_crossprod_over_reorderable_chain_executes(self, rng):
        from repro.core import Crossprod
        s = session(mem=48 * 1024 * 8)
        a, b, c = self._skewed(s, rng)
        node = Crossprod(MatMul(MatMul(a.node, b.node), c.node))
        plan = s.plan(node)
        assert "order=" in plan.signature()
        out = s.force(node)
        ref = a.values() @ b.values() @ c.values()
        assert np.allclose(out.to_numpy(), ref.T @ ref)

    def test_reduce_over_reorderable_chain_executes(self, rng):
        from repro.core import Reduce
        s = session(mem=48 * 1024 * 8)
        a, b, c = self._skewed(s, rng)
        node = Reduce("sum", MatMul(MatMul(a.node, b.node), c.node))
        got = s.force(node)
        ref = (a.values() @ b.values() @ c.values()).sum()
        assert np.isclose(got, ref)

    def test_epilogue_fuses_with_reordered_head(self, rng):
        """A Map fed by a >=3-factor chain fuses with the *DP-chosen*
        top product, not the program-order one — the plan both
        reorders and fuses, like the old rewriter+runtime pair did."""
        from repro.core.plan import FusedEpilogueOp
        s = session(mem=48 * 1024 * 8)
        a, b, c = self._skewed(s, rng)
        d = s.matrix(rng.standard_normal((200, 20)), name="D")
        node = Map("+", MatMul(MatMul(a.node, b.node), c.node),
                   d.node)
        plan = s.plan(node)
        assert isinstance(plan.root, FusedEpilogueOp)
        assert "order=" in plan.root.detail
        out = s.force(node)
        ref = a.values() @ b.values() @ c.values() + d.values()
        assert np.allclose(out.to_numpy(), ref)

    @pytest.mark.parametrize("right_deep", [False, True])
    def test_chain_of_one_repeated_matrix_converges(self, rng,
                                                    right_deep):
        """A matrix used as several factors is several factors: the
        rewrite reaches a fixed point in either program order."""
        s = session()
        a_np = rng.standard_normal((12, 12))
        a = s.matrix(a_np, name="A").node
        node = a
        for _ in range(3):
            node = MatMul(a, node) if right_deep else MatMul(node, a)
        out = s.force(node)
        assert np.allclose(out.to_numpy(), np.linalg.matrix_power(a_np, 4))


class TestMispinnedKernel:
    def test_sparse_pin_on_dense_operands_runs_dense(self, rng):
        """A kernel=\"sparse\" pin without a sparse-stored operand has
        no sparse kernel to run; the plan falls back to dense lowering
        exactly like the evaluator's type dispatch always did."""
        s = session()
        a = s.matrix(rng.standard_normal((32, 32)))
        b = s.matrix(rng.standard_normal((32, 32)))
        node = MatMul(a.node, b.node, kernel="sparse")
        plan = s.plan(node)
        assert isinstance(plan.root, TileMatMulOp)
        out = s.force(node)
        assert np.allclose(out.to_numpy(), a.values() @ b.values())
