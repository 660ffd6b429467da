"""Measured tile I/O vs the analytic Appendix-A/§3 cost models.

The paper presents Figure 3 as *calculated* I/O.  These tests close the
loop the paper left open: our real out-of-core implementations, run on the
counted tile store, agree with the formulas used for the figure (within the
slack caused by rounding p down to whole tiles and edge effects).
"""

import numpy as np
import pytest

from repro.core.costs import (bnlj_matmul_io, crossprod_io,
                              crossprod_schedule, lu_io,
                              lu_panel_width, matmul_epilogue_io,
                              matmul_io_lower_bound, solve_io,
                              solve_op_io, square_tile_matmul_io)
from repro.linalg import (bnlj_matmul, crossprod_matmul, lu_decompose,
                          lu_solve, lu_solve_factored,
                          square_tile_matmul)
from repro.storage import ArrayStore, StorageConfig

BLOCK_SCALARS = 1024


def measure(algorithm, a_np, b_np, mem, layouts):
    store = ArrayStore(StorageConfig(memory_bytes=mem * 8, block_size=8192))
    a = store.matrix_from_numpy(a_np, layout=layouts[0])
    b = store.matrix_from_numpy(b_np, layout=layouts[1])
    store.pool.clear()
    store.reset_stats()
    out = algorithm(store, a, b, mem)
    store.flush()
    assert np.allclose(out.to_numpy(), a_np @ b_np)
    return store.device.stats.total


@pytest.mark.parametrize("dims,mem", [
    ((512, 512, 512), 96 * 1024),
    ((512, 256, 512), 96 * 1024),
    ((768, 512, 256), 192 * 1024),
])
class TestSquareTileAgreement:
    def test_measured_within_model(self, rng, dims, mem):
        m, l, n = dims
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        measured = measure(square_tile_matmul, a, b, mem,
                           ("square", "square"))
        model = square_tile_matmul_io(m, l, n, mem, BLOCK_SCALARS)
        assert 0.5 * model <= measured <= 2.0 * model

    def test_measured_respects_lower_bound(self, rng, dims, mem):
        m, l, n = dims
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        measured = measure(square_tile_matmul, a, b, mem,
                           ("square", "square"))
        lb = matmul_io_lower_bound(m, l, n, mem, BLOCK_SCALARS)
        assert measured >= lb


@pytest.mark.parametrize("dims,mem", [
    ((512, 512, 512), 96 * 1024),
    ((1024, 512, 512), 96 * 1024),
])
class TestBNLJAgreement:
    def test_measured_matches_model(self, rng, dims, mem):
        m, l, n = dims
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        measured = measure(bnlj_matmul, a, b, mem, ("row", "col"))
        model = bnlj_matmul_io(m, l, n, mem, BLOCK_SCALARS)
        assert 0.7 * model <= measured <= 1.5 * model


@pytest.mark.parametrize("n,mem", [
    (257, 48 * 1024),
    (384, 48 * 1024),
    (512, 96 * 1024),
])
class TestLUAgreement:
    """Measured pivoted-LU / substitution I/O vs ``lu_io``/``solve_io``."""

    def _factor(self, rng, n, mem):
        a = rng.standard_normal((n, n))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        mat = store.matrix_from_numpy(a, layout="square")
        store.pool.clear()
        store.reset_stats()
        factors = lu_decompose(store, mat, mem)
        store.flush()
        return store, factors, store.device.stats.total

    def test_lu_measured_within_model(self, rng, n, mem):
        _, _, measured = self._factor(rng, n, mem)
        model = lu_io(n, mem, BLOCK_SCALARS, tile_side=32)
        assert 0.5 * model <= measured <= 2.0 * model

    def test_solve_measured_within_model(self, rng, n, mem):
        store, factors, _ = self._factor(rng, n, mem)
        b = rng.standard_normal(n)
        store.pool.clear()
        store.reset_stats()
        lu_solve_factored(factors, b, mem)
        store.flush()
        measured = store.device.stats.total
        model = solve_io(n, 1, mem, BLOCK_SCALARS, tile_side=32)
        assert 0.5 * model <= measured <= 2.0 * model

    def test_riding_solve_measured_within_model(self, rng, n, mem):
        """``lu_solve``: the factorization carries b, then one backward
        sweep — ``solve_op_io`` less reading b and writing x, which
        stay in memory here."""
        a = rng.standard_normal((n, n))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        mat = store.matrix_from_numpy(a, layout="square")
        store.pool.clear()
        store.reset_stats()
        lu_solve(store, mat, rng.standard_normal(n), mem)
        store.flush()
        measured = store.device.stats.total
        model = (solve_op_io(n, 1, mem, BLOCK_SCALARS, tile_side=32)
                 - 2.0 * n / BLOCK_SCALARS)
        assert 0.5 * model <= measured <= 2.0 * model


@pytest.mark.parametrize("n,mem_blocks", [
    (257, 24),
    (384, 32),
    (512, 48),
])
def test_float32_lu_measured_within_model(rng, n, mem_blocks):
    """On a float32 store a page holds 2048 scalars and tiles are 45
    wide: the factorization cuts its panels in multiples of *that*
    (it used to take 32 from the float64 block, so every panel read
    and write-back straddled tiles), and the model prices the same
    geometry from the same block size."""
    block = 8192 // 4
    mem = mem_blocks * block
    a = rng.standard_normal((n, n)).astype(np.float32)
    store = ArrayStore(storage=StorageConfig(
        memory_bytes=mem_blocks * 8192, block_size=8192,
        dtype="float32"))
    mat = store.matrix_from_numpy(a, layout="square")
    store.pool.clear()
    store.reset_stats()
    with store.tracer.recording():
        factors = lu_decompose(store, mat, mem)
    store.flush()
    measured = store.device.stats.total
    width = factors.packed.tile_shape[1]
    assert width == mat.tile_shape[1] == 45
    panels = [span.args for span in store.tracer.spans()
              if span.name == "lu:panel"]
    assert panels and all(
        args["p"] % width == 0 and args["k0"] % width == 0
        for args in panels)
    model = lu_io(n, mem, block)
    assert 0.5 * model <= measured <= 2.0 * model
    packed = factors.packed.to_numpy().astype(np.float64)
    lower = np.tril(packed, -1) + np.eye(n)
    assert np.allclose(lower @ np.triu(packed),
                       a[factors.perm_array()], atol=1e-2)


class TestLUPanelWidth:
    def test_tile_aligned_and_budgeted(self):
        p = lu_panel_width(512, 48 * 1024, 32)
        assert p % 32 == 0
        assert 512 * p <= 48 * 1024 / 3

    def test_clamped_to_matrix(self):
        assert lu_panel_width(16, 1 << 24, 16) == 16

    def test_floor_is_tile_side(self):
        # Model-side helper never raises; the kernel guards the budget.
        assert lu_panel_width(1024, 100, 32) == 32


@pytest.mark.parametrize("dims,mem", [
    ((2048, 256), 48 * 1024),
    ((512, 512), 96 * 1024),
    ((768, 320), 48 * 1024),
])
class TestCrossprodAgreement:
    """Measured symmetric-kernel I/O vs the ``crossprod_io`` model."""

    def test_measured_within_model(self, rng, dims, mem):
        m, k = dims
        a_np = rng.standard_normal((m, k))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        a = store.matrix_from_numpy(a_np, layout="square")
        store.pool.clear()
        store.reset_stats()
        out = crossprod_matmul(store, a, mem)
        store.flush()
        assert np.allclose(out.to_numpy(), a_np.T @ a_np)
        measured = store.device.stats.total
        model = crossprod_io(m, k, mem, BLOCK_SCALARS)
        assert 0.5 * model <= measured <= 2.0 * model


@pytest.mark.parametrize("dims,width,mem", [
    ((2048, 256), 1, 64 * 1024),
    ((768, 320), 3, 64 * 1024),
])
class TestSharedCrossprodAgreement:
    """The crossprod carrying ``t(A) %*% B`` on its diagonal regions vs
    ``crossprod_io(..., side_cols=n)``: measured / predicted 1.12 on
    A 2048 x 256 with one column (one region), 1.09 on 768 x 320 with
    three (two diagonal regions of 192 and 128 columns); the crossprod
    alone is exactly its count, 1.00.  B's one-page 32 x n tiles read
    more pages than the ``m n / B`` of the side term says."""

    def test_measured_within_model(self, rng, dims, width, mem):
        m, k = dims
        a_np = rng.standard_normal((m, k))
        b_np = rng.standard_normal((m, width))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        a = store.matrix_from_numpy(a_np, layout="square")
        b = store.matrix_from_numpy(b_np, layout="square")
        out_b = store.create_matrix((k, width), layout="square")
        store.pool.clear()
        store.reset_stats()
        out = crossprod_matmul(store, a, mem, side=[(b, out_b)])
        store.flush()
        assert np.allclose(out.to_numpy(), a_np.T @ a_np)
        assert np.allclose(out_b.to_numpy(), a_np.T @ b_np)
        measured = store.device.stats.total
        model = crossprod_io(m, k, mem, BLOCK_SCALARS, side_cols=width,
                             tile_side=32)
        assert 0.5 * model <= measured <= 2.0 * model
        # The side term is B once per diagonal region plus the result.
        passes = crossprod_schedule(m, k, 32, mem).diagonal_regions()
        assert passes == -(-k // 256)
        assert model - crossprod_io(m, k, mem, BLOCK_SCALARS) == \
            pytest.approx((passes * m + k) * width / BLOCK_SCALARS)


@pytest.mark.parametrize("dims,mem", [
    ((512, 512, 512), 96 * 1024),
    ((2048, 256, 256), 48 * 1024),
])
class TestFlaggedMatmulAgreement:
    """A transposed-operand flag costs the same blocks as the stored
    layout: measurement stays within the unflagged Appendix-A model."""

    def test_trans_a_within_model(self, rng, dims, mem):
        l, m, n = dims  # effective product: (m x l) x (l x n)
        a_np = rng.standard_normal((l, m))  # stored un-transposed
        b_np = rng.standard_normal((l, n))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        a = store.matrix_from_numpy(a_np, layout="square")
        b = store.matrix_from_numpy(b_np, layout="square")
        store.pool.clear()
        store.reset_stats()
        out = square_tile_matmul(store, a, b, mem, trans_a=True)
        store.flush()
        assert np.allclose(out.to_numpy(), a_np.T @ b_np)
        measured = store.device.stats.total
        model = square_tile_matmul_io(m, l, n, mem, BLOCK_SCALARS)
        assert 0.5 * model <= measured <= 2.0 * model


class TestTransposeMaterializeAgreement:
    def test_measured_within_model(self, rng):
        """The explicit-materialization fallback (one read pass + one
        write pass) moves the blocks ``transpose_materialize_io``
        predicts — the cost the operand flags delete."""
        from repro.core import RiotSession
        from repro.core.costs import transpose_materialize_io
        m, n = 512, 256
        session = RiotSession(storage=StorageConfig(
            memory_bytes=48 * 1024 * 8, block_size=8192))
        a_np = rng.standard_normal((m, n))
        a = session.matrix(a_np)
        session.store.pool.clear()
        session.reset_stats()
        out = session.force(a.T)
        session.store.flush()
        assert np.allclose(out.to_numpy(), a_np.T)
        measured = session.io_stats.total
        model = transpose_materialize_io(m, n, BLOCK_SCALARS)
        assert 0.5 * model <= measured <= 2.0 * model


class TestEpilogueAgreement:
    def test_fused_epilogue_within_model(self, rng):
        """Fused ``2 (A B) + C`` moves the blocks the fused
        ``matmul_epilogue_io`` model predicts (one extra input read,
        no product materialization)."""
        m, l, n = 512, 256, 512
        mem = 48 * 1024
        a_np = rng.standard_normal((m, l))
        b_np = rng.standard_normal((l, n))
        c_np = rng.standard_normal((m, n))
        store = ArrayStore(StorageConfig(
            memory_bytes=mem * 8, block_size=8192))
        a = store.matrix_from_numpy(a_np, layout="square")
        b = store.matrix_from_numpy(b_np, layout="square")
        c = store.matrix_from_numpy(c_np, layout="square")
        store.pool.clear()
        store.reset_stats()

        def epilogue(r0, c0, block):
            return 2.0 * block + c.read_submatrix(
                r0, r0 + block.shape[0], c0, c0 + block.shape[1])

        out = square_tile_matmul(store, a, b, mem, epilogue=epilogue,
                                 epilogue_inputs=1)
        store.flush()
        assert np.allclose(out.to_numpy(), 2.0 * (a_np @ b_np) + c_np)
        measured = store.device.stats.total
        model = matmul_epilogue_io(m, l, n, 1, mem, BLOCK_SCALARS,
                                   fused=True)
        assert 0.5 * model <= measured <= 2.0 * model
        # The unfused model pays the product write and re-read on top.
        assert model < matmul_epilogue_io(m, l, n, 1, mem,
                                          BLOCK_SCALARS, fused=False)


class TestPlannedWorkloadAgreement:
    """The planner's *chosen* plan: summed per-operator predictions vs
    measured ``IOStats`` totals on whole workloads (OLS, ridge, the
    sparse chain) — the end-to-end version of the per-kernel checks
    above.  No kernel hints anywhere; the plan is whatever the
    cost-based search picks."""

    MEM = 48 * 1024

    def _run(self, build, mem_scalars=None):
        from repro.core import RiotSession
        s = RiotSession(storage=StorageConfig(
            memory_bytes=(mem_scalars or self.MEM) * 8,
            block_size=8192))
        node = build(s)
        plan = s.plan(node)
        s.store.pool.clear()
        s.reset_stats()
        result = s.force(node)
        s.store.flush()
        return plan, s.io_stats.total, result, s

    def test_ols_plan_predicts_measured_io(self, rng):
        from repro.core import MatMul, Solve, Transpose
        x_np = rng.standard_normal((512, 128))
        y_np = rng.standard_normal((512, 1))

        def build(s):
            X = s.matrix(x_np, name="X")
            y = s.matrix(y_np, name="y")
            return Solve(MatMul(Transpose(X.node), X.node),
                         MatMul(Transpose(X.node), y.node))

        plan, measured, result, _ = self._run(build)
        assert 0.5 * plan.total_predicted <= measured \
            <= 2.0 * plan.total_predicted
        beta = np.linalg.solve(x_np.T @ x_np, x_np.T @ y_np)
        assert np.allclose(result.to_numpy(), beta, atol=1e-8)

    def test_ridge_plan_predicts_measured_io(self, rng):
        """Ridge: the normal matrix X'X + lambda I runs as a fused
        crossprod epilogue; its model (``crossprod_epilogue_io``) must
        track the measured blocks of the whole solve."""
        from repro.core import MatMul, Solve, Transpose
        x_np = rng.standard_normal((512, 128))
        y_np = rng.standard_normal((512, 1))
        lam = 0.1

        def build(s):
            X = s.matrix(x_np, name="X")
            lam_eye = s.matrix(lam * np.eye(128), name="lamI")
            y = s.matrix(y_np, name="y")
            normal = X.crossprod() + lam_eye
            rhs = MatMul(Transpose(X.node), y.node)
            return Solve(normal.node, rhs)

        plan, measured, result, _ = self._run(build)
        from repro.core.plan import FusedEpilogueOp
        assert any(isinstance(op, FusedEpilogueOp)
                   for op in plan.ops())
        assert 0.5 * plan.total_predicted <= measured \
            <= 2.0 * plan.total_predicted
        beta = np.linalg.solve(x_np.T @ x_np + lam * np.eye(128),
                               x_np.T @ y_np)
        assert np.allclose(result.to_numpy(), beta, atol=1e-8)

    def test_sparse_chain_plan_predicts_measured_io(self):
        def build(s):
            A = s.random_sparse_matrix(512, 512, 0.005, seed=1)
            B = s.random_sparse_matrix(512, 512, 0.005, seed=2)
            v = s.matrix(np.random.default_rng(3)
                         .standard_normal((512, 1)))
            return ((A @ B) @ v).node

        plan, measured, result, _ = self._run(build,
                                              mem_scalars=24 * 1024)
        assert 0.5 * plan.total_predicted <= measured \
            <= 2.0 * plan.total_predicted


class TestCrossAlgorithm:
    def test_square_beats_bnlj_when_model_says_so(self, rng):
        """At n large relative to memory, models and measurement agree on
        the winner (the paper's 'for large matrices' claim)."""
        m = l = n = 768
        mem = 48 * 1024
        model_square = square_tile_matmul_io(m, l, n, mem, BLOCK_SCALARS)
        model_bnlj = bnlj_matmul_io(m, l, n, mem, BLOCK_SCALARS)
        assert model_square < model_bnlj
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        measured_square = measure(square_tile_matmul, a, b, mem,
                                  ("square", "square"))
        measured_bnlj = measure(bnlj_matmul, a, b, mem, ("row", "col"))
        assert measured_square < measured_bnlj
