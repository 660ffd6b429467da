"""Static plan verification: every check rejects its hand-broken plan.

Each test builds a real plan through the session, confirms it verifies
clean, breaks exactly one invariant by mutating the plan/DAG in place,
and asserts the verifier rejects it *naming the offending operator*.
Mutations are restored because the session shares input PhysOps across
``plan()`` calls.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.analysis import PlanVerificationError, verify_plan
from repro.core import (Crossprod, MatMul, OptimizerConfig, RiotSession,
                        Solve)
from repro.core.plan import CrossprodOp
from repro.storage import StorageConfig


def session(mem_scalars=96 * 1024, **cfg):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_scalars * 8,
                              block_size=8192),
        config=OptimizerConfig(**cfg))


def rng():
    return np.random.default_rng(3)


@contextlib.contextmanager
def patched(obj, attr, value):
    saved = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, saved)


class TestPredictionSanity:
    def make(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        verify_plan(plan, s.storage)
        return s, plan

    def test_negative_predicted_io_rejected(self):
        s, plan = self.make()
        op = next(iter(plan.ops()))
        with patched(op, "predicted_io", -1.0):
            with pytest.raises(PlanVerificationError,
                               match="negative"):
                verify_plan(plan, s.storage)
        verify_plan(plan, s.storage)

    def test_non_finite_predicted_io_rejected(self):
        s, plan = self.make()
        op = next(iter(plan.ops()))
        with patched(op, "predicted_io", float("nan")):
            with pytest.raises(PlanVerificationError,
                               match="not finite"):
                verify_plan(plan, s.storage)

    def test_unregistered_cost_model_rejected(self):
        s, plan = self.make()
        op = next(iter(plan.ops()))
        with patched(op, "cost_model", "made_up_io"):
            with pytest.raises(PlanVerificationError,
                               match="made_up_io.*not registered"):
                verify_plan(plan, s.storage)

    def test_error_names_the_operator(self):
        s, plan = self.make()
        op = plan.root
        with patched(op, "predicted_io", -2.0):
            with pytest.raises(PlanVerificationError,
                               match=op.label().split("[")[0]
                               .replace("+", "\\+")):
                verify_plan(plan, s.storage)


class TestDenseMatMul:
    def test_trans_flag_breaks_conformability(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        node = plan.root.node
        assert isinstance(node, MatMul)
        with patched(node, "trans_a", True):
            with pytest.raises(PlanVerificationError,
                               match="non-conformable"):
                verify_plan(plan, s.storage)

    def test_square_budget_violation_names_kernel(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        # Sub-tile budgets are legal now (the kernel goes ragged); only
        # a budget that cannot hold three 1 x 1 panels is infeasible.
        verify_plan(plan, memory_scalars=16, block_scalars=1024)
        with pytest.raises(PlanVerificationError,
                           match="square_tile_matmul"):
            verify_plan(plan, memory_scalars=2, block_scalars=1024)

    def test_dense_lowering_of_sparse_pinned_node_rejected(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        node = plan.root.node
        # Pin the node sparse *after* planning lowered it dense: the
        # plan no longer honors the pin and must be rejected...
        with patched(node, "kernel", "sparse"):
            # ...but only when the operand really is sparse-stored;
            # the planner's documented fall-through for a sparse pin
            # on dense-stored operands is legal.
            verify_plan(plan, s.storage)


class TestBnlj:
    def make(self):
        # Golden chain-reorder workload: the planner picks BNLJ for
        # the top multiply (wide result, tiny inner dimension).
        s = session()
        g = rng()
        a = s.matrix(g.standard_normal((512, 64)), name="a")
        b = s.matrix(g.standard_normal((64, 512)), name="b")
        c = s.matrix(g.standard_normal((512, 256)), name="c")
        plan = s.plan(((a @ b) @ c).node)
        assert plan.signature().startswith("matmul.bnlj")
        return s, plan

    def test_clean(self):
        s, plan = self.make()
        verify_plan(plan, s.storage)

    def test_row_budget_violation(self):
        from repro.analysis.planlint import _verify_op
        s, plan = self.make()
        # n2 + n3 for the top bnlj is 64 + 256 = 320; below that the
        # row schedule cannot hold one A row plus one result row.  The
        # op-level check is exercised directly because the chain's
        # inner square-tile product has a larger footprint and would
        # trip first in a whole-plan walk.
        _verify_op(plan.root, memory_scalars=320, block_scalars=1024)
        with pytest.raises(PlanVerificationError,
                           match="bnlj.*A row plus one result row"):
            _verify_op(plan.root, memory_scalars=319,
                       block_scalars=1024)


class TestSparseKernels:
    def make(self):
        s = session(mem_scalars=24 * 1024)
        coo = np.random.default_rng(1)
        n, nnz = 512, 1310
        flat = coo.choice(n * n, size=nnz, replace=False)
        A = s.sparse_matrix(flat // n, flat % n,
                            coo.standard_normal(nnz), (n, n), name="A")
        v = s.matrix(coo.standard_normal((n, 1)), name="v")
        plan = s.plan((A @ v).node)
        assert "spmm" in plan.signature()
        return s, plan

    def test_clean(self):
        s, plan = self.make()
        verify_plan(plan, s.storage)

    def test_dense_pin_on_sparse_lowering_rejected(self):
        s, plan = self.make()
        node = plan.root.node
        with patched(node, "kernel", "dense"):
            with pytest.raises(PlanVerificationError,
                               match="pinned kernel='dense'"):
                verify_plan(plan, s.storage)


class TestLU:
    def make(self):
        s = session()
        A = s.matrix(rng().standard_normal((128, 128)), name="A")
        y = s.matrix(rng().standard_normal((128, 1)), name="y")
        plan = s.plan(Solve(A.node, y.node))
        assert plan.signature().startswith("solve.lu")
        return s, plan

    def test_clean(self):
        s, plan = self.make()
        verify_plan(plan, s.storage)

    def test_panel_budget_violation(self):
        s, plan = self.make()
        with pytest.raises(PlanVerificationError,
                           match="solve.*tall LU panel"):
            verify_plan(plan, memory_scalars=128, block_scalars=8 * 8)

    @pytest.mark.parametrize("dtype,width", [("float64", 32),
                                             ("float32", 45)])
    def test_verifier_and_kernel_refuse_the_same_budgets(self, dtype,
                                                         width):
        """In a pool whose default tile is 128 (180) wide the kernel
        steps its working factor down to the one-page tile before it
        refuses, so kernel and verifier draw the line at the same
        ``3 n w``, w the one-page width of the matrix dtype."""
        from repro.linalg import lu_decompose
        n = 360
        with RiotSession(storage=StorageConfig(
                memory_bytes=256 * 8192, dtype=dtype)) as s:
            A = s.matrix(rng().standard_normal((n, n)), name="A")
            y = s.matrix(rng().standard_normal((n, 1)), name="y")
            assert s.force(A).tile_shape[1] == 4 * width
            plan = s.plan(Solve(A.node, y.node))
            block = s.store.matrix_scalars_per_block
            edge = 3 * n * width
            verify_plan(plan, memory_scalars=edge, block_scalars=block)
            lu_decompose(s.store, s.force(A), edge).drop()
            with pytest.raises(PlanVerificationError,
                               match="tall LU panel"):
                verify_plan(plan, memory_scalars=edge - 1,
                            block_scalars=block)
            with pytest.raises(ValueError, match="tall pivot panel"):
                lu_decompose(s.store, s.force(A), edge - 1)


class TestFusedEpilogue:
    def make(self):
        s = session()
        X = s.matrix(rng().standard_normal((512, 128)), name="X")
        lam = s.matrix(0.1 * np.eye(128), name="lamI")
        plan = s.plan((X.crossprod() + lam).node)
        assert plan.signature().startswith("matmul+epilogue")
        return s, plan

    def test_clean(self):
        s, plan = self.make()
        verify_plan(plan, s.storage)

    def test_fused_budget_counts_epilogue_inputs(self):
        s, plan = self.make()
        # The fused kernel holds 3 + (#matrix epilogue inputs) panels
        # at once; below a tile-aligned working set it goes ragged, so
        # the only rejected budget cannot hold that many 1 x 1 panels.
        # The region's sources are the product plus those inputs.
        panels = 2 + len(plan.root.region.sources)
        assert panels == 4
        verify_plan(plan, memory_scalars=panels, block_scalars=1024)
        with pytest.raises(PlanVerificationError,
                           match="fused epilogue"):
            verify_plan(plan, memory_scalars=panels - 1,
                        block_scalars=1024)


class TestRegion:
    """The tape an elementwise operator runs is checked as planned:
    slots defined before they are read, every input an operator's
    node, every matrix input the region's shape."""

    def make(self):
        s = session()
        g = rng()
        A, B, C, D = (s.matrix(g.standard_normal((64, 48)), name=n)
                      for n in "ABCD")
        plan = s.plan(((A + B) * C - D).node)
        assert plan.signature() == (
            "map:-[tile](input:A, input:B, input:C, input:D)")
        verify_plan(plan, s.storage)
        return s, plan, (A, B, C, D)

    def test_tape_reads_a_slot_before_it_is_defined(self):
        s, plan, _ = self.make()
        region = plan.root.region
        (fn, args), *rest = region.tape
        with patched(region, "tape", ((fn, (0, len(region.nodes) - 1)),
                                      *rest)):
            with pytest.raises(PlanVerificationError,
                               match="map.*tape step 0 reads slot"):
                verify_plan(plan, s.storage)

    def test_fused_leaf_of_another_shape_rejected(self):
        """A leaf two maps deep — no direct child of the root ``Map``
        — is checked like a direct one."""
        s, plan, (A, *_) = self.make()
        with patched(A.node, "shape", (64, 47)):
            with pytest.raises(PlanVerificationError,
                               match="input shape \\(64, 47\\)"):
                verify_plan(plan, s.storage)

    def test_input_without_an_operator_rejected(self):
        s, plan, _ = self.make()
        with patched(plan.root, "children", plan.root.children[1:]):
            with pytest.raises(PlanVerificationError,
                               match="computed by no child operator: "
                                     "input:A"):
                verify_plan(plan, s.storage)

    def test_epilogue_has_exactly_one_product_slot(self):
        s = session()
        X = s.matrix(rng().standard_normal((512, 128)), name="X")
        lam = s.matrix(0.1 * np.eye(128), name="lamI")
        plan = s.plan((X.crossprod() + lam).node)
        op = plan.root
        verify_plan(plan, s.storage)
        # The product's operand computes the product in no other op:
        # dropping lamI's operator leaves two slots nobody fills.
        with patched(op, "children", op.children[:1]):
            with pytest.raises(PlanVerificationError,
                               match="exactly one: its product"):
                verify_plan(plan, s.storage)


class TestSharedCrossprod:
    """A crossprod carrying side products ``t(X) %*% B``: each check of
    ``_check_side_products`` rejects its hand-broken plan."""

    def make(self, rows=512):
        s = session()
        X = s.matrix(rng().standard_normal((rows, 128)), name="X")
        y = s.matrix(rng().standard_normal((rows, 1)), name="y")
        plan = s.plan(Solve(Crossprod(X.node),
                            MatMul(X.node, y.node, trans_a=True)))
        [op] = [op for op in plan.ops() if isinstance(op, CrossprodOp)]
        [side] = op.side_nodes
        verify_plan(plan, s.storage)
        return s, plan, op, side

    def test_side_must_be_a_flagged_product(self):
        s, plan, _, side = self.make()
        for flag, value in (("trans_a", False), ("trans_b", True)):
            with patched(side, flag, value):
                with pytest.raises(PlanVerificationError,
                                   match="crossprod.*not a t\\(a\\)"):
                    verify_plan(plan, s.storage)

    def test_side_must_read_the_crossprods_operand(self):
        s, plan, _, side = self.make()
        other = s.matrix(rng().standard_normal((512, 128)), name="Z")
        with patched(side, "children", (other.node, side.children[1])):
            with pytest.raises(PlanVerificationError,
                               match="reads another operand"):
                verify_plan(plan, s.storage)

    def test_side_rows_must_match(self):
        s, plan, _, side = self.make()
        short = s.matrix(np.ones((511, 1)), name="short")
        with patched(side, "children", (side.children[0], short.node)):
            with pytest.raises(PlanVerificationError,
                               match="511 rows"):
                verify_plan(plan, s.storage)

    def test_sides_must_fit_beside_the_panel(self):
        s, plan, _, _ = self.make()
        # 48 blocks: p = 128 and 3 p^2 is the whole budget — the same
        # line crossprod_matmul refuses at.
        verify_plan(plan, memory_scalars=48 * 1024 + 256,
                    block_scalars=1024)
        with pytest.raises(PlanVerificationError, match="do not fit"):
            verify_plan(plan, memory_scalars=48 * 1024,
                        block_scalars=1024)

    def test_sides_ride_on_crossprod_not_tcrossprod(self):
        s, plan, op, _ = self.make(rows=128)  # square: shapes agree
        with patched(op.node, "t_first", False):
            with pytest.raises(PlanVerificationError,
                               match="not on a tcrossprod"):
                verify_plan(plan, s.storage)


class TestBudgetSources:
    def test_requires_some_budget_source(self):
        s = session()
        a = s.matrix(rng().standard_normal((32, 32)), name="a")
        plan = s.plan((a @ a).node)
        with pytest.raises(TypeError):
            verify_plan(plan)

    def test_storage_config_is_a_budget_source(self):
        s = session()
        a = s.matrix(rng().standard_normal((32, 32)), name="a")
        verify_plan(s.plan((a @ a).node),
                    StorageConfig(memory_bytes="1MiB"))


class TestStrictWiring:
    def test_strict_execute_verifies(self):
        s = session(strict=True)
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        handle = a @ b
        out = s.values(handle)
        np.testing.assert_allclose(
            out, rng().standard_normal((96, 64)) @
            rng().standard_normal((64, 96)), rtol=1e-10)

    def test_strict_execute_rejects_broken_plan(self):
        s = session(strict=True)
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        op = next(iter(plan.ops()))
        with patched(op, "predicted_io", -1.0):
            with pytest.raises(PlanVerificationError):
                s.evaluator.execute(plan)

    def test_strict_explain_verifies_render_path(self):
        s = session(strict=True)
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        text = s.explain(a @ b)
        assert "physical plan" in text

    def test_default_is_lenient(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        plan = s.plan((a @ b).node)
        op = next(iter(plan.ops()))
        with patched(op, "predicted_io", -1.0):
            s.evaluator.execute(plan)  # non-strict: no verification
