"""Tests for pivoted out-of-core LU decomposition and solves.

The failure modes this suite locks in (vs the old unpivoted Doolittle):
matrices needing row interchanges factor correctly, random
non-diagonally-dominant systems are stable, exactly singular inputs
raise a dedicated error, and the memory budget is honored, not silently
exceeded.
"""

import numpy as np
import pytest

from repro.core.costs import lu_tile_side
from repro.linalg import (PackedLU, SingularMatrixError,
                          backward_substitute, forward_substitute,
                          lu_decompose, lu_solve, lu_solve_factored,
                          split_lu)
from repro.storage import ArrayStore

MEM = 48 * 1024


def make_store():
    return ArrayStore(memory_bytes=MEM * 8, block_size=8192)


def reconstruction_error(store, a, factors: PackedLU) -> float:
    """Relative ``norm(P A - L U) / norm(A)``."""
    l_mat, u_mat = split_lu(store, factors)
    rec = l_mat.to_numpy() @ u_mat.to_numpy()
    return (np.linalg.norm(a[factors.perm_array()] - rec)
            / np.linalg.norm(a))


class TestLUDecompose:
    @pytest.mark.parametrize("n", [8, 64, 100, 257])
    def test_random_matrix_reconstruction(self, rng, n):
        """Random standard-normal matrices — no diagonal dominance."""
        a = rng.standard_normal((n, n))
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        assert reconstruction_error(store, a, factors) < 1e-10

    def test_multi_tile_grid(self, rng):
        """A matrix spanning at least a 4 x 4 tile grid (tile side 32)."""
        n = 160
        a = rng.standard_normal((n, n))
        store = make_store()
        mat = store.matrix_from_numpy(a, layout="square")
        assert mat.grid[0] >= 4 and mat.grid[1] >= 4
        factors = lu_decompose(store, mat, MEM)
        assert reconstruction_error(store, a, factors) < 1e-10

    def test_permutation_requiring_matrix(self):
        """Zero leading pivot — the case unpivoted Doolittle dies on."""
        a = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        store = make_store()
        factors = lu_decompose(store, store.matrix_from_numpy(a), MEM)
        assert reconstruction_error(store, a, factors) < 1e-12
        assert sorted(factors.perm_array().tolist()) == [0, 1]

    def test_zero_principal_minor_large(self, rng):
        """Zero leading principal minors inside a big matrix."""
        n = 130
        a = rng.standard_normal((n, n))
        a[0, 0] = 0.0
        a[:2, :2] = [[0.0, 2.0], [3.0, 0.0]]
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        assert reconstruction_error(store, a, factors) < 1e-10

    def test_perm_is_a_permutation(self, rng):
        n = 100
        store = make_store()
        factors = lu_decompose(
            store,
            store.matrix_from_numpy(rng.standard_normal((n, n)),
                                    layout="square"), MEM)
        assert sorted(factors.perm_array().tolist()) == list(range(n))

    def test_l_is_unit_lower_u_is_upper(self, rng):
        n = 96
        a = rng.standard_normal((n, n))
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        l_np, u_np = (m.to_numpy() for m in split_lu(store, factors))
        assert np.allclose(np.diag(l_np), 1.0)
        assert np.allclose(np.triu(l_np, 1), 0.0)
        assert np.allclose(np.tril(u_np, -1), 0.0)
        # Partial pivoting bounds every multiplier by 1.
        assert np.max(np.abs(np.tril(l_np, -1))) <= 1.0 + 1e-12

    def test_input_not_modified(self, rng):
        n = 64
        a = rng.standard_normal((n, n))
        store = make_store()
        mat = store.matrix_from_numpy(a, layout="square")
        lu_decompose(store, mat, MEM)
        assert np.allclose(mat.to_numpy(), a)

    def test_non_square_rejected(self, rng):
        store = make_store()
        mat = store.matrix_from_numpy(rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            lu_decompose(store, mat, MEM)

    def test_exactly_singular_raises(self):
        store = make_store()
        singular = np.asarray([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_decompose(store, store.matrix_from_numpy(singular), MEM)

    def test_zero_column_raises(self, rng):
        n = 40
        a = rng.standard_normal((n, n))
        a[:, 7] = 0.0
        store = make_store()
        with pytest.raises(SingularMatrixError):
            lu_decompose(
                store, store.matrix_from_numpy(a, layout="square"), MEM)

    def test_singular_input_does_not_leak_working_factor(self, rng):
        """A failed factorization must free its n x n working copy:
        singular input is catchable and retryable, so leaked pages
        would accumulate across attempts in a long session."""
        n = 128
        a = rng.standard_normal((n, n))
        a[:, 10] = 0.0
        store = make_store()
        mat = store.matrix_from_numpy(a, layout="square")
        store.flush()
        resident_before = store.device.resident_blocks
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                lu_decompose(store, mat, MEM)
            store.flush()
        assert store.device.resident_blocks == resident_before

    def test_memory_budget_violation_raises(self, rng):
        """A budget below three full-height tile columns must error out,
        not silently exceed itself (the old ``max(tile_side, ...)``)."""
        n = 257
        store = make_store()
        mat = store.matrix_from_numpy(rng.standard_normal((n, n)),
                                      layout="square")
        too_small = 3 * n * mat.tile_shape[1] - 1
        with pytest.raises(ValueError, match="memory budget"):
            lu_decompose(store, mat, too_small)

    @pytest.mark.parametrize("pool_blocks", [48, 255, 256, 1024])
    @pytest.mark.parametrize("n", [40, 200, 384])
    def test_accepts_every_budget_the_one_page_tile_accepted(
            self, rng, n, pool_blocks):
        """In a pool whose default tile spans 16 pages the working
        factor steps its own tile down — 128, 64, 32 — until three tall
        panels fit, so the refusal threshold stays where the one-page
        tile put it: ``3 * n * min(n, 32)`` scalars."""
        a = rng.standard_normal((n, n))
        store = ArrayStore(memory_bytes=pool_blocks * 8192,
                           block_size=8192)
        mat = store.matrix_from_numpy(a, layout="square")
        floor = 3 * n * min(n, 32)
        budgets = {floor, floor + 1, 3 * n * 64 - 1, 3 * n * 64,
                   3 * n * 128, pool_blocks * 1024}
        sides = set()
        for memory in sorted(m for m in budgets if m >= floor):
            factors = lu_decompose(store, mat, memory)
            side = factors.packed.tile_shape[1]
            assert side == min(n, lu_tile_side(n, memory, 1024,
                                               pool_blocks))
            assert 3 * n * side <= memory
            assert reconstruction_error(store, a, factors) < 1e-10
            sides.add(side)
            factors.drop()
        if pool_blocks >= 256 and n == 384:
            assert sides == {32, 128}
        elif n == 200:
            # 128-side tiles would pad a 200 x 200 factor by a third.
            assert sides == {32}
        with pytest.raises(ValueError, match="memory budget"):
            lu_decompose(store, mat, floor - 1)

    def test_working_factor_steps_down_through_the_half_side(self, rng):
        """Three 128-wide panels of height 768 do not fit 2 MiB, three
        64-wide ones do; 2730 is the largest n a 32-wide one fits."""
        mem = 256 * 1024
        assert [lu_tile_side(n, mem, 1024, 256)
                for n in (512, 640, 768, 1280, 1408, 2730, 2731)] \
            == [128, 128, 64, 64, 32, 32, 32]
        # A factor the large tile would pad by a fifth starts at 32.
        assert lu_tile_side(682, mem, 1024, 256) == 32
        assert lu_tile_side(540, 2 * mem, 2048, 256) == 180  # float32
        a = rng.standard_normal((768, 768))
        store = ArrayStore(memory_bytes=256 * 8192, block_size=8192)
        mat = store.matrix_from_numpy(a)
        factors = lu_decompose(store, mat, mem)
        assert mat.tile_shape == (128, 128)
        assert factors.packed.tile_shape == (64, 64)
        assert reconstruction_error(store, a, factors) < 1e-10

    def test_factor_of_small_tiles_in_a_pool_of_large_ones(self, rng):
        """An input stored with one-page tiles (an older page file, an
        explicit ``tile_shape``) is copied into 128-side factor tiles
        in whole tiles of both: no read-modify-write."""
        n = 256
        a = rng.standard_normal((n, n))
        store = ArrayStore(memory_bytes=256 * 8192, block_size=8192)
        mat = store.create_matrix((n, n), tile_shape=(32, 32)) \
            .from_numpy(a)
        store.flush()
        store.pool.clear()
        store.reset_stats()
        factors = lu_decompose(store, mat, 256 * 1024)
        assert factors.packed.tile_shape == (128, 128)
        # The matrix fits the pool: one read of the input, nothing
        # else — a partial-tile write would read the factor back.
        assert store.device.stats.reads == n * n // 1024
        assert reconstruction_error(store, a, factors) < 1e-10

    def test_matches_scipy(self, rng):
        """Factor-by-factor agreement with scipy's pivoted LU."""
        import scipy.linalg
        n = 80
        a = rng.standard_normal((n, n))
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        l_mat, u_mat = split_lu(store, factors)
        p, l_s, u_s = scipy.linalg.lu(a)
        # Both choose max-magnitude pivots, so the permuted products
        # must match; compare reconstructions to stay robust to ties.
        assert np.allclose(l_mat.to_numpy() @ u_mat.to_numpy(),
                           a[factors.perm_array()], atol=1e-8)
        assert np.allclose(p @ l_s @ u_s, a, atol=1e-8)


class TestSolves:
    def test_forward_backward_substitution(self, rng):
        n = 120
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        pb = b[factors.perm_array()]
        y = forward_substitute(factors.packed, pb, block=48)
        x = backward_substitute(factors.packed, y, block=48)
        assert np.allclose(a @ x, b, atol=1e-7)

    def test_block_size_derived_from_pool_budget(self, rng):
        """With no explicit block, substitution derives it from the
        store's pool budget and still solves correctly."""
        n = 150
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        x = lu_solve_factored(factors, b)
        assert np.allclose(a @ x, b, atol=1e-7)

    def test_substitution_announces_prefetch_footprint(self, rng):
        """Each block row's tile footprint goes through pool.prefetch:
        on a cold pool the sweeps must prefetch and coalesce reads."""
        n = 256
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        store = make_store()
        factors = lu_decompose(
            store, store.matrix_from_numpy(a, layout="square"), MEM)
        store.pool.clear()
        store.reset_stats()
        lu_solve_factored(factors, b, MEM)
        stats = store.device.stats
        assert stats.prefetched > 0
        assert stats.read_calls < stats.reads

    def test_matrix_rhs(self, rng):
        """Multiple right-hand sides solved in one pair of sweeps."""
        n, k = 96, 7
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, k))
        store = make_store()
        x = lu_solve(store, store.matrix_from_numpy(a, layout="square"),
                     b, MEM)
        assert x.shape == (n, k)
        assert np.allclose(a @ x, b, atol=1e-7)

    @pytest.mark.parametrize("n", [150, 257])
    def test_lu_solve_round_trip_multi_tile(self, rng, n):
        """Round trips at sizes spanning several 32-side tiles."""
        a = rng.standard_normal((n, n))
        x_true = rng.standard_normal(n)
        b = a @ x_true
        store = make_store()
        x = lu_solve(store, store.matrix_from_numpy(a, layout="square"),
                     b, MEM)
        assert np.allclose(x, x_true, atol=1e-6)

    def test_solve_matches_numpy_on_pivot_requiring_system(self, rng):
        n = 64
        a = rng.standard_normal((n, n))
        a[0, 0] = 0.0
        b = rng.standard_normal(n)
        store = make_store()
        x = lu_solve(store, store.matrix_from_numpy(a, layout="square"),
                     b, MEM)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)

    def test_diag_dominant_still_works(self, rng):
        """The old rigged regime remains a subset of what pivoting handles."""
        n = 150
        a = rng.standard_normal((n, n))
        a[np.diag_indices(n)] += n
        b = rng.standard_normal(n)
        store = make_store()
        x = lu_solve(store, store.matrix_from_numpy(a, layout="square"),
                     b, MEM)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-7)
