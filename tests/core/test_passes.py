"""The logical pass pipeline: each pass independently, then composed."""

import numpy as np
import pytest

from repro.core import (ArrayInput, Crossprod, Inverse, Map, MatMul,
                        OptimizerConfig, Planner, Range, Scalar, Solve,
                        Subscript, Transpose, walk)
from repro.core.passes import (CSEPass, FoldPass, PassContext, Pipeline,
                               PushdownPass, SolveRewritePass,
                               TransposePass, build_pipeline)
from repro.core.plan import TileMatMulOp


def vec(n, name="v"):
    return ArrayInput(np.arange(n, dtype=float), name=name)


def mat(r, c):
    return ArrayInput(np.zeros((r, c)))


def run_pass(p, node):
    ctx = PassContext()
    return p.run(node, ctx), ctx


class TestFoldPass:
    def test_folds_scalar_subtree(self):
        out, ctx = run_pass(FoldPass(),
                            Map("+", Scalar(2.0),
                                Map("*", Scalar(3.0), Scalar(4.0))))
        assert isinstance(out, Scalar) and out.value == 14.0
        assert "constant-fold" in ctx.applied

    def test_leaves_arrays_alone(self):
        x = vec(10)
        out, _ = run_pass(FoldPass(), Map("+", x, Scalar(1.0)))
        assert isinstance(out, Map)


class TestPushdownPass:
    def test_pushes_to_leaves_in_one_run(self):
        x = vec(100)
        expr = Subscript(
            Map("sqrt", Map("pow", Map("-", x, Scalar(1.0)),
                            Scalar(2.0))),
            Range(1, 10))
        out, ctx = run_pass(PushdownPass(), expr)
        subs = [n for n in walk(out) if isinstance(n, Subscript)]
        assert len(subs) == 1 and isinstance(subs[0].src, ArrayInput)
        assert any(r.startswith("pushdown-map") for r in ctx.applied)

    def test_only_fires_on_subscripts(self):
        x = vec(10)
        node = Map("+", x, Scalar(1.0))
        out, ctx = run_pass(PushdownPass(), node)
        assert out is node and ctx.applied == []


class TestSolveRewritePass:
    def test_inverse_times_matrix_becomes_solve(self):
        a, b = mat(8, 8), mat(8, 3)
        out, ctx = run_pass(SolveRewritePass(),
                            MatMul(Inverse(a), b))
        assert isinstance(out, Solve)
        assert "inv-to-solve" in ctx.applied

    def test_right_inverse_untouched(self):
        a, b = mat(8, 8), mat(8, 8)
        node = MatMul(b, Inverse(a))
        out, _ = run_pass(SolveRewritePass(), node)
        assert out is node


class TestTransposePass:
    def test_double_transpose_cancels(self):
        a = mat(5, 7)
        out, ctx = run_pass(TransposePass(), Transpose(Transpose(a)))
        assert out is a
        assert "transpose-cancel" in ctx.applied

    def test_absorbs_into_flags_and_recognizes_crossprod(self):
        a = mat(10, 4)
        out, ctx = run_pass(TransposePass(), MatMul(Transpose(a), a))
        assert isinstance(out, Crossprod) and out.t_first
        assert "transpose-absorb" in ctx.applied
        assert "crossprod" in ctx.applied

    def test_pushes_through_product(self):
        a, b = mat(5, 6), mat(6, 7)
        out, ctx = run_pass(TransposePass(),
                            Transpose(MatMul(a, b)))
        assert isinstance(out, MatMul)
        assert out.trans_a and out.trans_b
        assert out.children == (b, a)


class TestCSEPass:
    def test_merges_identical_subtrees(self):
        x = vec(100)
        t1 = Map("pow", Map("-", x, Scalar(1.0)), Scalar(2.0))
        t2 = Map("pow", Map("-", x, Scalar(1.0)), Scalar(2.0))
        out, ctx = run_pass(CSEPass(), Map("+", t1, t2))
        assert out.children[0] is out.children[1]
        assert "cse" in ctx.applied


class TestChainAndKernelPasses:
    """Chain order and kernel choice are made by the planner while it
    lowers, not by passes: the plan is where they show."""

    def test_chain_reorder_pass(self):
        a, b, c = mat(100, 10), mat(10, 100), mat(100, 100)
        plan = Planner(OptimizerConfig()).plan(MatMul(MatMul(a, b), c))
        assert "order=" in plan.root.detail
        assert plan.logical_root.children[0] is a

    def test_kernel_select_needs_sparse_storage(self):
        a, b = mat(64, 64), mat(64, 64)
        node = MatMul(a, b)
        plan = Planner(OptimizerConfig()).plan(node)
        assert plan.logical_root is node
        assert isinstance(plan.root, TileMatMulOp)
        assert not any(label.startswith("sparse")
                       for label, _io in plan.root.alternatives)


class TestPipeline:
    def test_fixpoint_cascade_across_passes(self):
        """Fold exposes a pushdown, whose result CSE then shares —
        three different passes cooperating through the fixpoint loop."""
        x = vec(50, "x")
        body = Map("*", x, Map("+", Scalar(1.0), Scalar(1.0)))
        expr = Map("+", Subscript(body, Range(1, 5)),
                   Subscript(body, Range(1, 5)))
        pipe = Pipeline([FoldPass(), PushdownPass(), CSEPass()])
        ctx = PassContext()
        out = pipe.run(expr, ctx)
        assert out.children[0] is out.children[1]
        assert "constant-fold" in ctx.applied
        assert any(r.startswith("pushdown") for r in ctx.applied)

    def test_idempotent(self):
        from repro.core.passes import dag_signature
        x = vec(100)
        expr = Subscript(Map("+", x, Scalar(1.0)), Range(1, 5))
        pipe = build_pipeline(OptimizerConfig())
        ctx = PassContext()
        once = pipe.run(expr, ctx)
        twice = pipe.run(once, ctx)
        assert dag_signature(once) == dag_signature(twice)

    def test_sharing_preserved(self):
        x = vec(20)
        shared = Map("*", x, Scalar(3.0))
        expr = Map("+", Map("-", shared, Scalar(1.0)),
                   Map("abs", shared))
        pipe = build_pipeline(OptimizerConfig())
        out = pipe.run(expr, PassContext())
        muls = [n for n in walk(out)
                if isinstance(n, Map) and n.op == "*"]
        assert len(muls) == 1


class TestBuildPipeline:
    def test_level_zero_is_empty(self):
        pipe = build_pipeline(OptimizerConfig(level=0))
        assert pipe.passes == []

    def test_per_pass_override_disables(self):
        pipe = build_pipeline(OptimizerConfig(level=2, pushdown=False))
        names = [p.name for p in pipe.passes]
        assert "pushdown" not in names
        assert "fold" in names and "cse" in names

    def test_level_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(level=7)


class TestSparsityAnalysis:
    def test_storage_map_marks_sparse_leaves_and_spgemm(self):
        from repro.core import RiotSession
        from repro.storage import StorageConfig
        from repro.core.passes import sparse_stored, storage_map
        s = RiotSession(
            storage=StorageConfig(memory_bytes=4 * 1024 * 1024))
        A = s.random_sparse_matrix(128, 128, 0.02, seed=1)
        B = s.random_sparse_matrix(128, 128, 0.02, seed=2)
        D = s.matrix(np.zeros((128, 128)))
        spgemm = MatMul(A.node, B.node)
        spmm = MatMul(A.node, D.node)
        root = Map("+", spgemm, spmm)
        info = storage_map(root)
        assert info[id(A.node)] and info[id(B.node)]
        assert not info[id(D.node)]
        # sparse x sparse stays sparse-stored; SpMM output is dense.
        assert info[id(spgemm)] and not info[id(spmm)]
        # One-walk analysis agrees with the recursive predicate.
        for node in (A.node, D.node, spgemm, spmm):
            assert info[id(node)] == sparse_stored(node)

    def test_dense_pin_breaks_sparse_storage(self):
        from repro.core import RiotSession
        from repro.storage import StorageConfig
        from repro.core.passes import sparse_stored
        s = RiotSession(
            storage=StorageConfig(memory_bytes=4 * 1024 * 1024))
        A = s.random_sparse_matrix(128, 128, 0.02, seed=1)
        B = s.random_sparse_matrix(128, 128, 0.02, seed=2)
        assert sparse_stored(MatMul(A.node, B.node))
        assert not sparse_stored(
            MatMul(A.node, B.node, kernel="dense"))
