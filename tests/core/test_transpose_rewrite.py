"""Transpose elimination, Crossprod recognition, and epilogue fusion.

The rewrite identities are checked both structurally (no Transpose node
survives in plans that can absorb it; ``t(A) %*% A`` becomes Crossprod)
and numerically against numpy, including through the full session
pipeline with optimization on and off.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Crossprod, Map, MatMul, RiotSession, Transpose,
                        walk)
from repro.storage import StorageConfig


def make_session(optimize=True, mem=4 * 1024 * 1024):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem, block_size=8192),
        optimize=optimize)


def no_transpose(node):
    return not any(isinstance(n, Transpose) for n in walk(node))


class TestIdentities:
    def test_double_transpose_cancels(self, rng):
        s = make_session()
        a = s.matrix(rng.standard_normal((20, 30)))
        out = s.plan(Transpose(Transpose(a.node))).logical_root
        assert out is a.node

    def test_transpose_of_crossprod_is_identity(self, rng):
        s = make_session()
        a = s.matrix(rng.standard_normal((20, 30)))
        out = s.plan(Transpose(Crossprod(a.node))).logical_root
        assert isinstance(out, Crossprod)

    def test_transpose_absorbed_into_flags(self, rng):
        s = make_session()
        a_np = rng.standard_normal((50, 30))
        b_np = rng.standard_normal((50, 20))
        a, b = s.matrix(a_np), s.matrix(b_np)
        plan = a.T @ b
        out = s.plan(plan.node).logical_root
        assert isinstance(out, MatMul) and out.trans_a \
            and not out.trans_b
        assert no_transpose(out)
        assert np.allclose(plan.values(), a_np.T @ b_np)

    def test_transpose_pushed_through_product(self, rng):
        s = make_session()
        a_np = rng.standard_normal((40, 25))
        b_np = rng.standard_normal((25, 35))
        plan = (s.matrix(a_np) @ s.matrix(b_np)).T
        out = s.plan(plan.node).logical_root
        assert isinstance(out, MatMul) and out.trans_a and out.trans_b
        assert no_transpose(out)
        assert np.allclose(plan.values(), (a_np @ b_np).T)

    def test_crossprod_recognized(self, rng):
        s = make_session()
        a_np = rng.standard_normal((60, 25))
        a = s.matrix(a_np)
        out = s.plan((a.T @ a).node).logical_root
        assert isinstance(out, Crossprod) and out.t_first
        assert np.allclose((a.T @ a).values(), a_np.T @ a_np)

    def test_tcrossprod_recognized(self, rng):
        s = make_session()
        a_np = rng.standard_normal((25, 60))
        a = s.matrix(a_np)
        out = s.plan((a @ a.T).node).logical_root
        assert isinstance(out, Crossprod) and not out.t_first
        assert np.allclose((a @ a.T).values(), a_np @ a_np.T)

    def test_sparse_operand_keeps_transpose(self):
        """No flagged sparse kernels exist: a transpose over a
        sparse-stored operand must survive for the densify fallback."""
        s = make_session()
        sp = s.random_sparse_matrix(64, 48, density=0.05, seed=1)
        d = s.matrix(np.ones((64, 32)))
        out = s.plan((sp.T @ d).node).logical_root
        assert any(isinstance(n, Transpose) for n in walk(out))

    @given(m=st.integers(1, 30), l=st.integers(1, 30),
           n=st.integers(1, 30), lin=st.sampled_from(["row", "col"]))
    @settings(max_examples=15, deadline=None)
    def test_identity_property(self, m, l, n, lin):
        rng = np.random.default_rng(m * 3600 + l * 120 + n * 4)
        a_np = rng.standard_normal((l, m))
        b_np = rng.standard_normal((l, n))
        s = make_session()
        a = s.matrix(a_np, linearization=lin)
        b = s.matrix(b_np, linearization=lin)
        assert np.allclose((a.T @ b).values(), a_np.T @ b_np)
        assert np.allclose((a.T @ a).values(), a_np.T @ a_np)
        assert np.allclose((a @ a.T).values(), a_np @ a_np.T)


class TestCrossprodAPI:
    def test_matrix_methods(self, rng):
        s = make_session()
        a_np = rng.standard_normal((40, 25))
        b_np = rng.standard_normal((40, 30))
        a, b = s.matrix(a_np), s.matrix(b_np)
        assert isinstance(a.crossprod().node, Crossprod)
        assert np.allclose(a.crossprod().values(), a_np.T @ a_np)
        assert np.allclose(a.crossprod(b).values(), a_np.T @ b_np)
        assert np.allclose(a.tcrossprod().values(), a_np @ a_np.T)
        c_np = rng.standard_normal((30, 25))
        c = s.matrix(c_np)
        assert np.allclose(a.tcrossprod(c).values(), a_np @ c_np.T)

    def test_session_helpers(self, rng):
        s = make_session()
        a_np = rng.standard_normal((40, 25))
        a = s.matrix(a_np)
        assert np.allclose(s.crossprod(a).values(), a_np.T @ a_np)
        assert np.allclose(s.tcrossprod(a).values(), a_np @ a_np.T)

    def test_unoptimized_session_still_correct(self, rng):
        """Flags and Crossprod execute without the rewriter too."""
        s = make_session(optimize=False)
        a_np = rng.standard_normal((50, 30))
        a = s.matrix(a_np)
        assert np.allclose(a.crossprod().values(), a_np.T @ a_np)
        assert np.allclose((a.T @ a).values(), a_np.T @ a_np)


class TestTransposeFreeIO:
    def test_flagged_plan_beats_materialized_transpose(self, rng):
        """t(X) %*% X: the optimized plan must move fewer blocks than
        the unoptimized one, which stores t(X) first."""
        x_np = np.arange(512 * 128, dtype=float).reshape(512, 128)

        def run(optimize):
            s = make_session(optimize=optimize, mem=256 * 1024)
            x = s.matrix(x_np)
            plan = x.T @ x
            s.store.pool.clear()
            s.reset_stats()
            values = plan.values()
            s.store.flush()
            return s.io_stats.snapshot(), values

        opt_stats, opt_vals = run(True)
        raw_stats, raw_vals = run(False)
        assert np.allclose(opt_vals, raw_vals)
        assert opt_stats.total * 1.5 <= raw_stats.total

    def test_forced_bare_transpose_preserves_metadata(self, rng):
        """The materialization fallback keeps the source's
        linearization and carries its name."""
        s = make_session()
        a = s.matrix(rng.standard_normal((70, 40)),
                     linearization="col", name="design")
        out = s.force(a.T)
        assert out.linearization.name == "col"
        assert out.name == "t(design)"
        assert np.allclose(out.to_numpy(),
                           s.values(a.node).T)


class TestEpilogueFusion:
    def test_fused_epilogue_writes_product_once(self, rng):
        """alpha * (A %*% B) + C: the only writes are the final output
        blocks — zero blocks for the intermediate product."""
        a_np = rng.standard_normal((160, 64))
        b_np = rng.standard_normal((64, 96))
        c_np = rng.standard_normal((160, 96))
        s = make_session(mem=2 * 1024 * 1024)
        a, b, c = s.matrix(a_np), s.matrix(b_np), s.matrix(c_np)
        plan = 2.5 * (a @ b) + c
        s.store.pool.clear()
        s.reset_stats()
        values = plan.values()
        s.store.flush()
        out_blocks = 5 * 3  # ceil(160/32) x ceil(96/32) tiles, 1 page each
        assert s.io_stats.writes == out_blocks
        assert np.allclose(values, 2.5 * (a_np @ b_np) + c_np)

    def test_unfused_session_materializes_product(self, rng):
        a_np = rng.standard_normal((160, 64))
        b_np = rng.standard_normal((64, 96))
        c_np = rng.standard_normal((160, 96))
        s = make_session(optimize=False, mem=2 * 1024 * 1024)
        plan = (s.matrix(a_np) @ s.matrix(b_np)) + s.matrix(c_np)
        s.store.pool.clear()
        s.reset_stats()
        values = plan.values()
        s.store.flush()
        assert s.io_stats.writes == 2 * 5 * 3  # product + result
        assert np.allclose(values, a_np @ b_np + c_np)

    def test_fused_crossprod_epilogue(self, rng):
        a_np = rng.standard_normal((120, 64))
        c_np = rng.standard_normal((64, 64))
        s = make_session(mem=2 * 1024 * 1024)
        a, c = s.matrix(a_np), s.matrix(c_np)
        plan = (a.T @ a) * 0.5 + c
        s.store.pool.clear()
        s.reset_stats()
        values = plan.values()
        s.store.flush()
        assert s.io_stats.writes == 2 * 2  # only the 64x64 output
        assert np.allclose(values, 0.5 * (a_np.T @ a_np) + c_np)

    def test_shared_product_not_recomputed(self, rng):
        """A product with consumers outside the Map region must not be
        fused away from them."""
        a_np = rng.standard_normal((40, 40))
        b_np = rng.standard_normal((40, 40))
        c_np = rng.standard_normal((40, 40))
        s = make_session()
        p = MatMul(s.matrix(a_np).node, s.matrix(b_np).node)
        # p feeds a Map AND an outer MatMul in the same root DAG.
        root = MatMul(Map("+", p, s.matrix(c_np).node), p)
        values = s.values(root)
        p_np = a_np @ b_np
        assert np.allclose(values, (p_np + c_np) @ p_np)

    def test_shared_interior_map_runs_product_once(self, rng,
                                                   monkeypatch):
        """A product reached through an interior Map that *also* feeds
        a consumer outside the region must execute exactly once."""
        import repro.core.evaluator as ev_mod
        from repro.core import Reduce, Scalar
        calls = []
        orig = ev_mod.square_tile_matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(ev_mod, "square_tile_matmul", counting)
        a_np = rng.standard_normal((64, 64))
        b_np = rng.standard_normal((64, 64))
        c_np = rng.standard_normal((64, 64))
        s = make_session()
        p = MatMul(s.matrix(a_np).node, s.matrix(b_np).node)
        m = Map("*", p, Scalar(3.0))
        root = Map("*", Map("+", m, s.matrix(c_np).node),
                   Reduce("sum", Map("*", m, Scalar(2.0))))
        values = s.values(root)
        ref = (a_np @ b_np) * 3.0
        assert np.allclose(values, (ref + c_np) * (ref * 2.0).sum())
        assert len(calls) == 1

    def test_scalar_subtrees_fold_into_epilogue(self, rng):
        a_np = rng.standard_normal((64, 48))
        b_np = rng.standard_normal((48, 32))
        s = make_session()
        a, b = s.matrix(a_np), s.matrix(b_np)
        plan = ((a @ b) - 1.0) / 4.0
        assert np.allclose(plan.values(), (a_np @ b_np - 1.0) / 4.0)
