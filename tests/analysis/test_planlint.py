"""Static plan verification: every check rejects its hand-broken plan.

Each test builds a real plan through the session, confirms it verifies
clean, breaks exactly one invariant by mutating the plan/DAG in place,
and asserts the verifier rejects it *naming the offending operator*.
Mutations are restored because the session shares input PhysOps across
``plan()`` calls.
"""

from __future__ import annotations

import contextlib
import re
from unittest import mock

import numpy as np
import pytest

from repro.analysis import PlanVerificationError, verify_plan
from repro.core import (Crossprod, MatMul, OptimizerConfig, RiotSession,
                        Solve)
from repro.core.costs import COST_MODELS
from repro.core.plan import CrossprodOp
from repro.linalg import (bnlj_matmul, crossprod_matmul, lu_decompose,
                          square_tile_matmul)
from repro.storage import StorageConfig


def session(mem_scalars=96 * 1024, **cfg):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_scalars * 8,
                              block_size=8192),
        config=OptimizerConfig(**cfg))


def budget(memory_scalars, block_scalars=1024):
    """The float64 StorageConfig whose M and B are these scalar
    counts."""
    return StorageConfig(memory_bytes=memory_scalars * 8,
                         block_size=block_scalars * 8)


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

    def test_prediction_must_reprice_from_its_cost_inputs(self):
        """``explain`` prints ``cost_inputs`` as the call that gave the
        prediction; inputs that no longer give it are caught."""
        s, plan = self.make()
        op = plan.root
        assert op.predicted_io == COST_MODELS[op.cost_model](
            **op.cost_inputs)
        drifted = {**op.cost_inputs, "n": op.cost_inputs["n"] + 1}
        with patched(op, "cost_inputs", drifted):
            with pytest.raises(PlanVerificationError,
                               match=rf"^{re.escape(op.label())}: "
                                     rf"predicted_io .* is not "
                                     rf"{op.cost_model}\(\*\*cost_inputs"):
                verify_plan(plan, s.storage)
        with patched(op, "cost_inputs", {**op.cost_inputs, "q": 1}):
            with pytest.raises(PlanVerificationError,
                               match="cost inputs do not fit"):
                verify_plan(plan, s.storage)
        verify_plan(plan, s.storage)

    def test_an_operator_without_a_model_predicts_nothing(self):
        s, plan = self.make()
        leaf = next(iter(plan.ops()))
        assert leaf.cost_model is None
        with patched(leaf, "predicted_io", 1.0):
            with pytest.raises(PlanVerificationError,
                               match="with no cost model"):
                verify_plan(plan, s.storage)

    def test_an_unregistered_model_fails_planning(self):
        """The planner prices every operator as
        ``COST_MODELS[name](**inputs)``: a name missing from the
        registry fails the first plan that needs it."""
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        with mock.patch.dict(COST_MODELS):
            del COST_MODELS["matmul_io"]
            with pytest.raises(KeyError, match="matmul_io"):
                s.plan((a @ b).node)
        verify_plan(s.plan((a @ b).node), s.storage)

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
        verify_plan(plan, budget(16))
        with pytest.raises(PlanVerificationError,
                           match="square_tile_matmul"):
            verify_plan(plan, budget(2))

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
            verify_plan(plan, budget(128, 8 * 8))

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
            edge = 3 * n * width

            def budget_of(mem):
                return s.storage.with_options(
                    memory_bytes=mem * s.storage.itemsize)
            verify_plan(plan, budget_of(edge))
            lu_decompose(s.store, s.force(A), edge).drop()
            with pytest.raises(PlanVerificationError,
                               match="tall LU panel"):
                verify_plan(plan, budget_of(edge - 1))
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
        verify_plan(plan, budget(panels))
        with pytest.raises(PlanVerificationError,
                           match="fused epilogue"):
            verify_plan(plan, budget(panels - 1))


class TestRefusalBoundary:
    """Kernel and verifier refuse the same budgets in the same words:
    at the schedule's need both run, one scalar under it both refuse
    with the schedule's message, the verifier's prefixed by the
    operator's label."""

    def check(self, plan, need, kernel):
        verify_plan(plan, budget(need))
        kernel(need)
        with pytest.raises(ValueError) as refused:
            kernel(need - 1)
        with pytest.raises(PlanVerificationError) as rejected:
            verify_plan(plan, budget(need - 1))
        assert str(rejected.value) == f"{plan.root.label()}: " \
                                      f"{refused.value}"

    def test_square(self):
        s = session()
        a = s.matrix(rng().standard_normal((4, 3)), name="a")
        b = s.matrix(rng().standard_normal((3, 5)), name="b")
        plan = s.plan((a @ b).node)
        assert plan.signature().startswith("matmul.square")
        self.check(plan, 3, lambda mem: square_tile_matmul(
            s.store, s.force(a), s.force(b), mem))

    def test_fused_over_a_product(self):
        s = session()
        a = s.matrix(rng().standard_normal((4, 3)), name="a")
        b = s.matrix(rng().standard_normal((3, 5)), name="b")
        c = s.matrix(rng().standard_normal((4, 5)), name="c")
        plan = s.plan((a @ b + c).node)
        assert plan.signature().startswith("matmul+epilogue")
        assert isinstance(plan.root.barrier, MatMul)
        self.check(plan, 4, lambda mem: square_tile_matmul(
            s.store, s.force(a), s.force(b), mem,
            epilogue=lambda r0, c0, block: block, epilogue_inputs=1))

    def test_fused_over_a_crossprod(self):
        s = session()
        x = s.matrix(rng().standard_normal((6, 4)), name="x")
        lam = s.matrix(0.1 * np.eye(4), name="lamI")
        plan = s.plan((x.crossprod() + lam).node)
        assert plan.signature().startswith("matmul+epilogue")
        assert isinstance(plan.root.barrier, Crossprod)
        self.check(plan, 4, lambda mem: crossprod_matmul(
            s.store, s.force(x), mem,
            epilogue=lambda r0, c0, block: block, epilogue_inputs=1))

    def test_bnlj(self):
        s, plan = TestBnlj().make()
        a, bc = plan.root.node.children
        self.check(plan, 64 + 256, lambda mem: bnlj_matmul(
            s.store, s.force(a), s.force(bc), mem))

    def test_lu(self):
        s = session()
        n = 96
        A = s.matrix(rng().standard_normal((n, n)), name="A")
        y = s.matrix(rng().standard_normal((n, 1)), name="y")
        plan = s.plan(Solve(A.node, y.node))
        assert plan.signature().startswith("solve.lu")
        self.check(plan, 3 * n * 32, lambda mem: lu_decompose(
            s.store, s.force(A), mem).drop())


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
        # 14 blocks: one region, whose packed 128-wide triangle (10 240
        # scalars) and 32-row slab (4 096) fill the budget — the same
        # line crossprod_matmul refuses at; (a + h) = 160 more scalars
        # hold y's column.
        verify_plan(plan, budget(14 * 1024 + 160))
        with pytest.raises(PlanVerificationError, match="do not fit"):
            verify_plan(plan, budget(14 * 1024))

    def test_the_fit_is_the_schedules_not_appendix_as(self):
        """Seeded both ways: at 14 blocks Appendix A's p = 64 panels
        left room for y (3 p^2 + 2p <= M) and the schedule does not;
        at 48 blocks its p = 128 panels filled the budget (3 p^2 = M)
        and the schedule's 128-row slab leaves room."""
        from repro.core.costs import square_panel
        s, plan, _, _ = self.make()

        def appendix_a_fits(mem):
            p = square_panel(mem, 32, 3)
            return 3 * p * p + 2 * p <= mem

        assert appendix_a_fits(14 * 1024)
        with pytest.raises(PlanVerificationError,
                           match="crossprod.*do not fit.*largest pass"):
            verify_plan(plan, budget(14 * 1024))
        assert not appendix_a_fits(48 * 1024)
        verify_plan(plan, budget(48 * 1024))

    def test_sides_need_an_operand_with_known_tiles(self):
        s, plan, op, _ = self.make()
        with patched(op.node.children[0], "data", None):
            with pytest.raises(PlanVerificationError,
                               match="stored operand only"):
                verify_plan(plan, s.storage)

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
