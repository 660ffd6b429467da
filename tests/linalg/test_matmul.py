"""Tests for the measured out-of-core matrix multiplication algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotSession
from repro.linalg import bnlj_matmul, square_tile_matmul
from repro.storage import ArrayStore, StorageConfig

MEM = 96 * 1024  # scalars


def make_store():
    return ArrayStore(StorageConfig(memory_bytes=MEM * 8, block_size=8192))


class TestCorrectness:
    @pytest.mark.parametrize("shape", [
        (64, 64, 64), (100, 50, 75), (33, 97, 65), (1, 10, 1),
        (200, 3, 200)])
    def test_square_tile(self, rng, shape):
        m, l, n = shape
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        store = make_store()
        out = square_tile_matmul(
            store, store.matrix_from_numpy(a, layout="square"),
            store.matrix_from_numpy(b, layout="square"), MEM)
        assert np.allclose(out.to_numpy(), a @ b)

    @pytest.mark.parametrize("shape", [
        (64, 64, 64), (100, 50, 75), (33, 97, 65)])
    def test_bnlj(self, rng, shape):
        m, l, n = shape
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        store = make_store()
        out = bnlj_matmul(
            store, store.matrix_from_numpy(a, layout="row"),
            store.matrix_from_numpy(b, layout="col"), MEM)
        assert np.allclose(out.to_numpy(), a @ b)

    def test_nonconformable_rejected(self, rng):
        store = make_store()
        a = store.matrix_from_numpy(rng.standard_normal((4, 5)))
        b = store.matrix_from_numpy(rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            square_tile_matmul(store, a, b, MEM)

    @given(m=st.integers(1, 40), l=st.integers(1, 40),
           n=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_square_tile_property(self, m, l, n):
        rng = np.random.default_rng(m * 1600 + l * 40 + n)
        a = rng.standard_normal((m, l))
        b = rng.standard_normal((l, n))
        store = make_store()
        out = square_tile_matmul(
            store, store.matrix_from_numpy(a, layout="square"),
            store.matrix_from_numpy(b, layout="square"), MEM)
        assert np.allclose(out.to_numpy(), a @ b)


class TestRaggedPanelBudget:
    """Budgets below the tile-aligned working set go ragged, not boom.

    Regression for the PR 9 gotcha: the hypothesis chain shape
    m=48, k=33, n=63 raised a budget ``ValueError`` from
    ``_square_panel`` whenever the memory budget could not hold
    ``panels`` whole storage tiles.  The kernel now shrinks the panel
    below the tile side (unaligned reads cost extra partial-tile I/O
    but stay inside the budget) and only refuses budgets that cannot
    hold ``panels`` scalars.
    """

    SHAPE = (48, 33, 63)  # the exact failing hypothesis example

    def test_kernel_subtile_budget(self, rng):
        m, k, n = self.SHAPE
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        store = make_store()
        ta = store.matrix_from_numpy(a, layout="square")
        tb = store.matrix_from_numpy(b, layout="square")
        # 2000 scalars < 3 * 32^2: previously a ValueError.
        out = square_tile_matmul(store, ta, tb, 2000)
        assert np.allclose(out.to_numpy(), a @ b)

    def test_kernel_one_scalar_panels(self, rng):
        m, k, n = 6, 5, 4
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        store = make_store()
        out = square_tile_matmul(
            store, store.matrix_from_numpy(a, layout="square"),
            store.matrix_from_numpy(b, layout="square"), 3)
        assert np.allclose(out.to_numpy(), a @ b)

    def test_kernel_budget_below_panels_still_raises(self, rng):
        store = make_store()
        a = store.matrix_from_numpy(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError, match="at least 3 scalars"):
            square_tile_matmul(store, a, a, 2)

    def test_bnlj_refuses_a_budget_under_one_row_of_each(self, rng):
        """Below n2 + n3 scalars the BNLJ cannot hold one row of A and
        one of the result: its schedule refuses, as the verifier does,
        rather than run one-row chunks over budget."""
        a_np = rng.standard_normal((8, 24))
        b_np = rng.standard_normal((24, 40))
        store = make_store()
        a = store.matrix_from_numpy(a_np, layout="row")
        b = store.matrix_from_numpy(b_np, layout="col")
        out = bnlj_matmul(store, a, b, 24 + 40)
        assert np.allclose(out.to_numpy(), a_np @ b_np)
        with pytest.raises(ValueError, match="A row plus one result row"):
            bnlj_matmul(store, a, b, 24 + 40 - 1)

    def test_session_chain_48_33_63(self, rng):
        """The fused epilogue chain at the exact hypothesis shape runs
        under a budget one tile short of its 5-panel working set."""
        m, k, n = self.SHAPE
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        d = rng.standard_normal((m, n))
        s = RiotSession(
            storage=StorageConfig(memory_bytes=4 * 1024 * 8,
                                  block_size=8192),
            config=OptimizerConfig(parallelism=1))
        try:
            got = (s.matrix(a) @ s.matrix(b) + s.matrix(c) * 2.0
                   + s.matrix(d)).values()
        finally:
            s.close()
        assert np.allclose(got, a @ b + c * 2.0 + d)


def chain_session(mem=MEM, **cfg):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem * 8, block_size=8192),
        config=OptimizerConfig(**cfg))


class TestChain:
    """``A %*% B %*% C`` as a session statement: the planner orders the
    chain (Appendix B) and drops each intermediate after its reader."""

    def test_chain_matches_numpy(self, rng):
        dims = [(96, 24), (24, 96), (96, 64)]
        mats_np = [rng.standard_normal(d) for d in dims]
        with chain_session() as s:
            a, b, c = (s.matrix(m) for m in mats_np)
            out = s.values(a @ b @ c)
        assert np.allclose(out, mats_np[0] @ mats_np[1] @ mats_np[2])

    def test_chain_in_order_option(self, rng):
        dims = [(48, 16), (16, 48), (48, 32)]
        mats_np = [rng.standard_normal(d) for d in dims]
        with chain_session(chain_reorder=False) as s:
            a, b, c = (s.matrix(m) for m in mats_np)
            out = s.values(a @ b @ c)
        assert np.allclose(out, mats_np[0] @ mats_np[1] @ mats_np[2])

    def test_optimal_order_saves_io_on_skewed_chain(self, rng):
        """The Appendix-B claim, measured: DP order uses less I/O."""
        n, s = 384, 8
        a = rng.standard_normal((n, n // s))
        b = rng.standard_normal((n // s, n))
        c = rng.standard_normal((n, n))
        mem = 48 * 1024

        def run(reorder):
            with chain_session(mem, chain_reorder=reorder) as sess:
                ma, mb, mc = (sess.matrix(m) for m in (a, b, c))
                sess.store.pool.clear()
                sess.reset_stats()
                out = sess.force(ma @ mb @ mc)
                sess.store.flush()
                return sess.io_stats.total, out.to_numpy()

        io_inorder, r1 = run(False)
        io_optimal, r2 = run(None)  # the default: reorder at level 2
        assert np.allclose(r1, r2)
        assert io_optimal < io_inorder
