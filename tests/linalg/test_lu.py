"""Tests for pivoted out-of-core LU decomposition and solves.

The failure modes this suite locks in (vs the old unpivoted Doolittle):
matrices needing row interchanges factor correctly, random
non-diagonally-dominant systems are stable, exactly singular inputs
raise a dedicated error, and the memory budget is honored, not silently
exceeded.  The left-looking panel, the one gather per strip and the
right-hand side riding through the factorization are pinned against
the right-looking panel, sequential swaps and factor-then-two-sweeps
they replaced, and the kernel's cold I/O against
``costs.lu_schedule``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import lu_io, lu_schedule, lu_tile_side
from repro.linalg import (PackedLU, SingularMatrixError,
                          backward_substitute, forward_substitute,
                          lu_decompose, lu_solve, lu_solve_factored,
                          split_lu)
from repro.linalg.lu import _panel_lu, _row_order
from repro.linalg.solve import lu_solve_panels
from repro.storage import ArrayStore, StorageConfig

MEM = 48 * 1024


def make_store():
    return ArrayStore(StorageConfig(memory_bytes=MEM * 8, block_size=8192))


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
        store = ArrayStore(StorageConfig(
            memory_bytes=pool_blocks * 8192, block_size=8192))
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
        store = ArrayStore(StorageConfig(
            memory_bytes=256 * 8192, block_size=8192))
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
        store = ArrayStore(StorageConfig(
            memory_bytes=256 * 8192, block_size=8192))
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
        # Three 32-wide tall panels' budget: four block rows per sweep.
        mem = 3 * n * factors.packed.tile_shape[0]
        assert len(lu_schedule(n, mem, 32).panels()) == 4
        y = forward_substitute(factors.packed, pb, memory_scalars=mem)
        x = backward_substitute(factors.packed, y, memory_scalars=mem)
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


def right_looking_panel_lu(panel: np.ndarray, global_row0: int
                           ) -> np.ndarray:
    """The panel factorization the kernel ran before the left-looking
    one: after each pivot, a rank-1 update of the whole trailing
    block."""
    rows, cols = panel.shape
    piv = np.empty(cols, dtype=np.int64)
    for k in range(cols):
        r = k + int(np.argmax(np.abs(panel[k:, k])))
        if panel[r, k] == 0.0:
            raise SingularMatrixError(
                f"matrix is exactly singular: column {global_row0 + k} "
                f"has no nonzero pivot candidate")
        piv[k] = r
        if r != k:
            panel[[k, r]] = panel[[r, k]]
        panel[k + 1:, k] /= panel[k, k]
        if k + 1 < cols:
            panel[k + 1:, k + 1:] -= np.outer(panel[k + 1:, k],
                                              panel[k, k + 1:])
    return piv


def sequential_swaps(strip: np.ndarray, piv: np.ndarray) -> None:
    """The interchanges applied one pair at a time, in order."""
    for k, r in enumerate(piv):
        if r != k:
            strip[[k, r]] = strip[[r, k]]


def panel_corpus():
    """Named tall panels: Gaussian, integer-valued with ties, column
    panels of an X'X (the OLS coefficient matrix), widths 1 and p (the
    128-wide panel of the ``ols_pread`` factor) and float32."""
    g = np.random.default_rng(7)
    x = g.integers(-8, 9, size=(1024, 256)).astype(np.float64)
    xtx = x.T @ x
    yield "gaussian", g.standard_normal((200, 48))
    yield "gaussian-square", g.standard_normal((64, 64))
    yield "integer-ties", g.integers(-2, 3, size=(150, 24)) \
        .astype(np.float64)
    yield "integer-ties-wide", g.integers(-1, 2, size=(96, 32)) \
        .astype(np.float64)
    for k0 in (0, 64, 128):
        yield f"xtx-{k0}", xtx[k0:, k0:k0 + 64].copy()
    yield "width-1", g.standard_normal((100, 1))
    yield "width-1-ties", np.array([[1.0], [-3.0], [3.0], [2.0]])
    yield "width-p", (lambda a: a.T @ a)(
        g.integers(-8, 9, size=(2048, 512)).astype(np.float64))[:, :128]
    yield "float32", g.standard_normal((160, 32)).astype(np.float32)


class TestLeftLookingPanel:
    @pytest.mark.parametrize("name,panel", list(panel_corpus()),
                             ids=[name for name, _ in panel_corpus()])
    def test_pivots_are_the_right_looking_ones(self, name, panel):
        ref, got = panel.copy(), panel.copy()
        ref_piv = right_looking_panel_lu(ref, 0)
        piv = _panel_lu(got, 0)
        assert np.array_equal(piv, ref_piv), name
        tol = 1e-4 if panel.dtype == np.float32 else 1e-9
        assert np.allclose(got, ref, rtol=tol,
                           atol=tol * np.abs(ref).max())
        assert got.dtype == panel.dtype

    @pytest.mark.parametrize("name,matrix,column", [
        ("zero-column", np.array([[2.0, 0.0, 1.0], [4.0, 0.0, 3.0],
                                  [1.0, 0.0, 5.0]]), 1),
        ("zero-row", np.array([[2.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                               [1.0, 3.0, 5.0]]), 2),
        ("dependent-rows", np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                                     [1.0, 1.0, 1.0]]), 2),
        ("all-zero", np.zeros((4, 3)), 0),
    ])
    def test_singular_at_the_same_column(self, name, matrix, column):
        """Exactly singular panels — every elimination step exact —
        fail on the same column in both orders; the message carries
        the global column."""
        for factor in (right_looking_panel_lu, _panel_lu):
            with pytest.raises(SingularMatrixError,
                               match=f"column {10 + column} "):
                factor(matrix.copy(), 10)

    @pytest.mark.parametrize("column", [0, 31, 32, 70, 99])
    def test_singular_factor_names_the_global_column(self, rng, column):
        """A zero column stays exactly zero through every update, so
        the blocked kernel refuses at that column, on whichever panel
        holds it."""
        a = rng.standard_normal((100, 100))
        a[:, column] = 0.0
        store = make_store()
        with pytest.raises(SingularMatrixError,
                           match=f"column {column} "):
            lu_decompose(store, store.matrix_from_numpy(
                a, layout="square"), 3 * 100 * 32)

    @given(data=st.data(), rows=st.integers(1, 40),
           width=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_one_gather_is_the_sequential_swaps(self, data, rows, width):
        cols = data.draw(st.integers(1, rows))
        piv = np.array([data.draw(st.integers(k, rows - 1))
                        for k in range(cols)], dtype=np.int64)
        strip = np.arange(rows * width, dtype=np.float64) \
            .reshape(rows, width)
        expected = strip.copy()
        sequential_swaps(expected, piv)
        assert np.array_equal(strip[_row_order(piv, rows)], expected)


class TestRidingRHS:
    @pytest.mark.parametrize("n,k", [(96, 0), (150, 0), (257, 0),
                                     (150, 3), (257, 9)])
    def test_agrees_with_factor_then_two_sweeps(self, rng, n, k):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, k) if k else n)
        store = make_store()
        mat = store.matrix_from_numpy(a, layout="square")
        factors = lu_decompose(store, mat, MEM)
        swept = lu_solve_factored(factors, b, MEM)
        factors.drop()
        rode = lu_solve(store, mat, b, MEM)
        assert rode.shape == b.shape
        assert np.max(np.abs(rode - swept)) <= 1e-12 * np.abs(swept).max()

    def test_wide_rhs_rides_its_first_panel(self, rng):
        """Panels after the first are permuted and swept; all agree
        with the panel that rode."""
        n, k = 200, 100
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, k))
        store = make_store()
        mat = store.matrix_from_numpy(a, layout="square")
        out = lu_solve_panels(store, mat, k, MEM,
                              lambda j0, j1: b[:, j0:j1])
        x = out.to_numpy()
        assert np.allclose(a @ x, b, atol=1e-8)
        # Column j solved the same way whichever panel it fell in.
        first = lu_solve(store, mat, b[:, :1], MEM)
        assert np.max(np.abs(x[:, :1] - first)) <= 1e-12 * np.abs(
            first).max()

    @pytest.mark.parametrize("backend", ["memory", "mmap", "pread"])
    def test_bits_across_levels_and_backends(self, backend):
        """Integer-valued normal equations, so X'X and X'y are exact on
        every plan: the solve's bits are then the same at levels 0 / 1
        / 2, whether the LU copies X'X (level 0) or factors it in
        place, and whether X'y is a side product or its own
        multiply."""
        g = np.random.default_rng(3)
        x_np = g.integers(-8, 9, size=(400, 96)).astype(np.float64)
        y_np = g.integers(-8, 9, size=(400, 2)).astype(np.float64)
        results = []
        for level in (0, 1, 2):
            with RiotSession(
                    storage=StorageConfig(backend=backend,
                                          memory_bytes=24 * 8192),
                    config=OptimizerConfig(level=level)) as s:
                x = s.matrix(x_np, name="X")
                y = s.matrix(y_np, name="y")
                results.append(s.values((x.T @ x).solve(x.T @ y)))
        ref = np.linalg.solve(x_np.T @ x_np, x_np.T @ y_np)
        assert np.allclose(results[0], ref, rtol=1e-9)
        for got in results[1:]:
            assert np.array_equal(got, results[0])


class TestSchedule:
    @pytest.mark.parametrize("n,width", [(96, 32), (100, 32), (256, 64),
                                         (64, 64), (1, 1)])
    def test_steps_visit_every_strip_once_per_panel(self, n, width):
        schedule = lu_schedule(n, 3 * n * width, min(width, n))
        panels = schedule.panels()
        assert panels[0][0] == 0 and panels[-1][1] == n
        steps = list(schedule.steps())
        assert len(steps) == len(panels) ** 2
        for k0, k1 in panels:
            mine = [s for s in steps if (s.k0, s.k1) == (k0, k1)]
            assert mine[0].factors_panel
            assert [(s.j0, s.j1) for s in mine[1:]] == [
                p for p in panels if p != (k0, k1)]
            assert all(s.trailing == (s.j0 >= k1) for s in mine)
        assert schedule.factor_scalars() == sum(
            (n - k0) * n for k0, _ in panels)

    def test_sweeps_and_rhs_panels(self):
        """The sweeps take the factor's panels as block rows, L left of
        the diagonal top down and U right of it bottom up; a wide
        right-hand side goes in panels ``lu_panel_width`` wide on its
        own tiles, the last one ragged."""
        schedule = lu_schedule(100, 3 * 100 * 32, 32)
        assert schedule.panels() == [(0, 32), (32, 64), (64, 96),
                                     (96, 100)]
        forward = list(schedule.sweep(forward=True))
        assert forward[2] == ((64, 96, 0, 96), [(0, 32), (32, 64)])
        backward = list(schedule.sweep(forward=False))
        assert backward[0] == ((96, 100, 96, 100), [])
        assert backward[2] == ((32, 64, 32, 100), [(64, 96), (96, 100)])
        assert schedule.sweep_scalars(True) == sum(
            (i1 - i0) * i1 for i0, i1 in schedule.panels())
        wide = lu_schedule(100, 3 * 100 * 96, 32)
        assert wide.rhs_panels(200, 32) == [(0, 96), (96, 192),
                                            (192, 200)]
        assert wide.rhs_panels(200, 64) == [(0, 64), (64, 128),
                                            (128, 192), (192, 200)]
        assert wide.rhs_panels(5, 32) == [(0, 5)]

    @pytest.mark.parametrize("n,mem_blocks", [(128, 12), (256, 24),
                                              (256, 48), (320, 30)])
    def test_cold_counts_are_the_model(self, rng, n, mem_blocks):
        """A pool of 4 frames, far below every step's rectangle: the
        factorization writes back every page it reads once, plus the
        stored permutation's one page, and moves what ``lu_io`` counts
        over the schedule — less only the pages a step still finds in
        the pool from the step before (the last panel's own tiles, the
        copy's last ones), at most the 4 frames per panel."""
        mem = mem_blocks * 1024
        store = ArrayStore(StorageConfig(
            memory_bytes=4 * 8192, block_size=8192))
        mat = store.create_matrix((n, n), tile_shape=(32, 32)) \
            .from_numpy(rng.standard_normal((n, n)))
        store.flush()
        store.pool.clear()
        store.reset_stats()
        factors = lu_decompose(store, mat, mem)
        store.flush()
        stats = store.device.stats
        assert factors.packed.tile_shape == (32, 32)
        assert stats.writes == stats.reads + 1
        model = lu_io(n, mem, 1024, tile_side=32)
        panels = len(lu_schedule(n, mem, 32).panels())
        assert model - 2 * 4 * panels <= 2 * stats.reads <= model
