"""Transpose-free multiplication kernels: flags, crossprod, epilogues.

Covers the operand-flagged dense kernels (``trans_a``/``trans_b`` read
stored tiles and transpose in memory), the symmetric
:func:`crossprod_matmul` schedule, the square-tile memory-budget guard,
the BNLJ footprint hints, and the fused-epilogue callback — against
numpy across non-square shapes, non-divisible tile grids, and both
row/col linearizations.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.costs import (crossprod_io, crossprod_schedule,
                              crossprod_side_fits, square_panel)
from repro.linalg import (bnlj_matmul, crossprod_matmul,
                          square_tile_matmul)
from repro.storage import (ArrayStore, StorageConfig,
                           tile_shape_for_layout)

MEM = 96 * 1024  # scalars


def make_store(block_size=8192, mem=MEM):
    return ArrayStore(StorageConfig(
        memory_bytes=mem * 8, block_size=block_size))


class TestFlaggedSquareTile:
    @pytest.mark.parametrize("trans_a,trans_b", [
        (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("shape", [(64, 64, 64), (100, 50, 75),
                                       (33, 97, 65), (200, 3, 40)])
    def test_matches_numpy(self, rng, shape, trans_a, trans_b):
        m, l, n = shape
        a_np = rng.standard_normal((l, m) if trans_a else (m, l))
        b_np = rng.standard_normal((n, l) if trans_b else (l, n))
        store = make_store()
        out = square_tile_matmul(
            store, store.matrix_from_numpy(a_np, layout="square"),
            store.matrix_from_numpy(b_np, layout="square"), MEM,
            trans_a=trans_a, trans_b=trans_b)
        ref = (a_np.T if trans_a else a_np) @ (b_np.T if trans_b
                                              else b_np)
        assert np.allclose(out.to_numpy(), ref)

    def test_flag_moves_same_blocks_as_stored_layout(self, rng):
        """The flag is free: flagged reads touch the same number of
        blocks as the unflagged multiply of the pre-transposed copy."""
        a_np = rng.standard_normal((256, 128))
        b_np = rng.standard_normal((256, 96))

        def measure(a_arr, b_arr, **flags):
            store = make_store(mem=24 * 1024)
            a = store.matrix_from_numpy(a_arr, layout="square")
            b = store.matrix_from_numpy(b_arr, layout="square")
            store.pool.clear()
            store.reset_stats()
            out = square_tile_matmul(store, a, b, 24 * 1024, **flags)
            store.flush()
            return store.device.stats.total, out.to_numpy()

        flagged, r1 = measure(a_np, b_np, trans_a=True)
        stored, r2 = measure(np.ascontiguousarray(a_np.T), b_np)
        assert np.allclose(r1, r2)
        assert flagged == stored

    @given(m=st.integers(1, 40), l=st.integers(1, 40),
           n=st.integers(1, 40),
           trans_a=st.booleans(), trans_b=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_flag_property(self, m, l, n, trans_a, trans_b):
        rng = np.random.default_rng(m * 6400 + l * 160 + n * 4
                                    + 2 * trans_a + trans_b)
        a_np = rng.standard_normal((l, m) if trans_a else (m, l))
        b_np = rng.standard_normal((n, l) if trans_b else (l, n))
        store = make_store(block_size=2048)  # 16x16 tiles: ragged grids
        out = square_tile_matmul(
            store, store.matrix_from_numpy(a_np, layout="square"),
            store.matrix_from_numpy(b_np, layout="square"), MEM,
            trans_a=trans_a, trans_b=trans_b)
        ref = (a_np.T if trans_a else a_np) @ (b_np.T if trans_b
                                              else b_np)
        assert np.allclose(out.to_numpy(), ref)


class TestFlaggedBNLJ:
    @pytest.mark.parametrize("trans_a,trans_b", [
        (True, False), (False, True), (True, True)])
    def test_matches_numpy(self, rng, trans_a, trans_b):
        m, l, n = 100, 50, 75
        a_np = rng.standard_normal((l, m) if trans_a else (m, l))
        b_np = rng.standard_normal((n, l) if trans_b else (l, n))
        store = make_store()
        out = bnlj_matmul(
            store,
            store.matrix_from_numpy(a_np,
                                    layout="col" if trans_a else "row"),
            store.matrix_from_numpy(b_np,
                                    layout="row" if trans_b else "col"),
            MEM, trans_a=trans_a, trans_b=trans_b)
        ref = (a_np.T if trans_a else a_np) @ (b_np.T if trans_b
                                              else b_np)
        assert np.allclose(out.to_numpy(), ref)


class TestCrossprod:
    @pytest.mark.parametrize("shape", [(64, 64), (100, 50), (33, 97),
                                       (200, 3), (3, 200), (1, 1)])
    @pytest.mark.parametrize("t_first", [True, False])
    def test_matches_numpy(self, rng, shape, t_first):
        a_np = rng.standard_normal(shape)
        store = make_store()
        out = crossprod_matmul(
            store, store.matrix_from_numpy(a_np, layout="square"),
            MEM, t_first=t_first)
        ref = a_np.T @ a_np if t_first else a_np @ a_np.T
        assert np.allclose(out.to_numpy(), ref)

    @pytest.mark.parametrize("linearization", ["row", "col"])
    def test_linearizations(self, rng, linearization):
        a_np = rng.standard_normal((90, 70))
        store = make_store()
        out = crossprod_matmul(
            store,
            store.matrix_from_numpy(a_np, layout="square",
                                    linearization=linearization),
            MEM)
        assert np.allclose(out.to_numpy(), a_np.T @ a_np)

    @given(m=st.integers(1, 40), k=st.integers(1, 40),
           t_first=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_property(self, m, k, t_first):
        rng = np.random.default_rng(m * 80 + k * 2 + t_first)
        a_np = rng.standard_normal((m, k))
        store = make_store(block_size=2048)
        out = crossprod_matmul(
            store, store.matrix_from_numpy(a_np, layout="square"),
            MEM, t_first=t_first)
        ref = a_np.T @ a_np if t_first else a_np @ a_np.T
        assert np.allclose(out.to_numpy(), ref)

    def test_result_is_exactly_symmetric(self, rng):
        """Mirrored writes make the stored result bitwise symmetric."""
        a_np = rng.standard_normal((120, 80))
        store = make_store(mem=24 * 1024)
        out = crossprod_matmul(
            store, store.matrix_from_numpy(a_np, layout="square"),
            24 * 1024)
        result = out.to_numpy()
        assert np.array_equal(result, result.T)

    def test_fewer_reads_than_general_schedule(self, rng):
        """Symmetry pays: crossprod reads roughly half the operand
        blocks of the flagged general multiply, same result."""
        a_np = rng.standard_normal((512, 256))
        mem = 24 * 1024

        def measure(fn, **kw):
            store = make_store(mem=mem)
            a = store.matrix_from_numpy(a_np, layout="square")
            store.pool.clear()
            store.reset_stats()
            out = fn(store, a, **kw)
            store.flush()
            return store.device.stats, out.to_numpy()

        cp_stats, cp = measure(
            lambda s, a: crossprod_matmul(s, a, mem))
        mm_stats, mm = measure(
            lambda s, a: square_tile_matmul(s, a, a, mem,
                                            trans_a=True))
        assert np.allclose(cp, mm)
        assert cp_stats.reads < 0.7 * mm_stats.reads


class TestSideProducts:
    """``crossprod_matmul(..., side=[(b, out_b)])`` computes each
    ``t(A) %*% b`` on the diagonal regions of the crossprod's own scan
    of A, and A is read once for all of them.  The schedule is the one
    without sides, so ``t(A) %*% A`` keeps its bits either way."""

    def _run(self, a_np, b_nps, mem, block_size=8192):
        store = make_store(block_size=block_size, mem=max(mem, 4096))
        a = store.matrix_from_numpy(a_np)
        side = [(store.matrix_from_numpy(b_np),
                 store.create_matrix((a_np.shape[1], b_np.shape[1]),
                                     layout="square"))
                for b_np in b_nps]
        store.pool.clear()
        store.reset_stats()
        out = crossprod_matmul(store, a, mem, side=side)
        store.flush()
        return (store.device.stats.snapshot(), out.to_numpy(),
                [o.to_numpy() for _, o in side])

    # (A's shape, block size -> tile side, budget in scalars, side
    # widths): one region, one region carrying two sides, three
    # regions on 16-wide tiles (a = 48, sides on each diagonal one),
    # and Appendix A's ragged 1 x 1 schedule.
    @pytest.mark.parametrize("shape,block_size,mem,widths", [
        ((131, 77), 8192, 96 * 1024, [1]),
        ((131, 77), 8192, 24 * 1024, [1, 7]),
        ((131, 137), 2048, 3 * 47 * 47, [40, 3]),
        ((9, 5), 2048, 11, [4]),
    ])
    def test_bits_are_the_flagged_square_kernels(self, rng, shape,
                                                 block_size, mem, widths):
        """Integer-valued data: X'X and every side are bitwise NumPy's
        and the flagged square-tile kernel's, since every summation
        order is exact.  Floats: within ``rtol = 1e-12`` — the schedule
        sums slabs of h rows where the square kernel sums its own
        panels, so the bits differ — with X'X bitwise the same with and
        without sides."""
        ints = rng.integers(-8, 9, size=shape).astype(np.float64)
        b_ints = [rng.integers(-8, 9, size=(shape[0], w))
                  .astype(np.float64) for w in widths]
        _, xtx, sides = self._run(ints, b_ints, mem, block_size)
        assert np.array_equal(xtx, ints.T @ ints)
        store = make_store(block_size=block_size, mem=max(mem, 4096))
        a = store.matrix_from_numpy(ints)
        for b_np, got in zip(b_ints, sides):
            assert np.array_equal(got, ints.T @ b_np)
            assert np.array_equal(got, square_tile_matmul(
                store, a, store.matrix_from_numpy(b_np), mem,
                trans_a=True).to_numpy())

        a_np = rng.standard_normal(shape)
        b_nps = [rng.standard_normal((shape[0], w)) for w in widths]
        _, xtx, sides = self._run(a_np, b_nps, mem, block_size)
        _, alone, _ = self._run(a_np, [], mem, block_size)
        assert np.array_equal(xtx, alone)
        for got, ref in [(xtx, a_np.T @ a_np)] + [
                (got, a_np.T @ b_np) for b_np, got in zip(b_nps, sides)]:
            assert np.allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())

    def test_no_side_moves_the_parents_blocks(self, rng):
        """``side=[]`` is the plain schedule.  X (68 one-page tiles)
        is read once at both budgets: the packed 101-wide triangle and
        a 96-row slab fit in 24 K scalars, where Appendix A's p = 64
        panels read it twice (136 blocks in 43 calls)."""
        x_np = np.random.default_rng(5).standard_normal((517, 101))
        for mem, counts in ((24 * 1024, (68, 16, 6, 1)),
                            (96 * 1024, (68, 16, 4, 1))):
            stats, xtx, _ = self._run(x_np, [], mem)
            assert (stats.reads, stats.writes, stats.read_calls,
                    stats.write_calls) == counts
            assert np.allclose(xtx, x_np.T @ x_np)

    def test_x_is_read_once_for_both_products(self, rng):
        """Shared: the crossprod's reads plus B once per diagonal
        region — one here.  Separate: the flagged multiply re-reads all
        of A, and B once per panel row of its own."""
        a_np = rng.standard_normal((512, 128))
        b_np = rng.standard_normal((512, 1))
        mem = 24 * 1024
        shared, _, _ = self._run(a_np, [b_np], mem)
        alone, _, _ = self._run(a_np, [], mem)
        store = make_store(mem=mem)
        a = store.matrix_from_numpy(a_np)
        b = store.matrix_from_numpy(b_np)
        store.pool.clear()
        store.reset_stats()
        square_tile_matmul(store, a, b, mem, trans_a=True)
        store.flush()
        separate = store.device.stats
        a_pages = a.grid[0] * a.grid[1] * a.pages_per_tile
        b_pages = b.grid[0] * b.grid[1] * b.pages_per_tile
        assert crossprod_schedule(512, 128, 32, mem).regions == (
            (0, 128, 0, 128),)
        assert alone.reads == a_pages
        assert shared.reads - alone.reads == b_pages
        assert separate.reads - a_pages == 2 * b_pages
        assert shared.writes == alone.writes + separate.writes

    def test_refuses_what_does_not_fit(self, rng):
        """At 48 blocks a 256-wide A holds one region: its packed
        triangle (36 864 scalars) and a 32-row slab (8 192) leave
        room for ``(a + h) n = 288 n``, 14 columns.  Appendix A's
        p = 128 panels (3 p^2 = M) had room for none."""
        store = make_store(mem=48 * 1024)
        a = store.matrix_from_numpy(rng.standard_normal((256, 256)))
        for cols, fits in ((14, True), (15, False)):
            b = store.matrix_from_numpy(rng.standard_normal((256, cols)))
            out_b = store.create_matrix((256, cols), layout="square")
            assert crossprod_side_fits(48 * 1024, 256, 32, cols) is fits
            if fits:
                crossprod_matmul(store, a, 48 * 1024, side=[(b, out_b)])
                continue
            with pytest.raises(ValueError, match="do not fit"):
                crossprod_matmul(store, a, 48 * 1024, side=[(b, out_b)])

    @pytest.mark.parametrize("kw", [{"t_first": False},
                                    {"epilogue": lambda r, c, x: x}])
    def test_side_rides_on_plain_crossprod_only(self, rng, kw):
        store = make_store()
        a = store.matrix_from_numpy(rng.standard_normal((64, 32)))
        b = store.matrix_from_numpy(rng.standard_normal((64, 2)))
        out_b = store.create_matrix((32, 2), layout="square")
        with pytest.raises(ValueError, match="plain t\\(A\\)"):
            crossprod_matmul(store, a, MEM, side=[(b, out_b)], **kw)


def appendix_a_reads(m, k, tile, memory, extra=0):
    """Scalars of A the Appendix-A crossprod read: p x p panels with
    ``p = square_panel(M, t, 3 + e)``; a diagonal panel's pass reads
    its p columns of every row, an off-diagonal one both ranges."""
    p = square_panel(memory, tile, 3 + extra)
    reads = 0
    for i0 in range(0, k, p):
        for j0 in range(i0, k, p):
            wi, wj = min(p, k - i0), min(p, k - j0)
            reads += m * (wi if i0 == j0 else wi + wj)
    return reads


def integer_valued(rng, shape):
    return rng.integers(-8, 9, size=shape).astype(np.float64)


class TestSchedule:
    """``costs.crossprod_schedule``, the one statement of the kernel's
    schedule, against what it promises and what the kernel does."""

    #: Most region x slab steps one draw of the three-store bits test
    #: may run.
    MAX_STEPS = 1_000

    @given(m=st.integers(1, 5000), k=st.integers(1, 260),
           tile=st.sampled_from([1, 7, 16, 32, 128]),
           memory=st.integers(3, 300_000), extra=st.integers(0, 3),
           side_cols=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_covers_fits_and_never_reads_more(self, m, k, tile, memory,
                                              extra, side_cols):
        """Every upper element is in exactly one region's triangle or
        rectangle, the largest pass fits the budget, and A is read no
        more than Appendix A reads it; sides fit exactly when
        ``crossprod_side_fits`` says so."""
        assume(memory >= 3 + extra)
        s = crossprod_schedule(m, k, tile, memory, extra)
        cover = np.zeros((k, k), dtype=int)
        for i0, i1, j0, j1 in s.regions:
            assert i0 < i1 and j0 < j1 and i0 <= j0
            if i0 == j0:
                cover[i0:i1, j0:j1] += np.triu(
                    np.ones((i1 - i0, j1 - j0), dtype=int))
            else:
                cover[i0:i1, j0:j1] += 1
        assert np.array_equal(cover, np.triu(np.ones((k, k), dtype=int)))
        assert s.peak() <= memory
        assert s.reads() <= appendix_a_reads(m, k, tile, memory, extra)
        plain = crossprod_schedule(m, k, tile, memory)
        assert crossprod_side_fits(memory, k, tile, side_cols) is (
            plain.peak(side_cols) <= memory)

    @given(g=st.integers(1, 6), blocks=st.integers(3, 40),
           side=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=12, deadline=None)
    def test_cold_counts_are_the_models(self, g, blocks, side, seed):
        """Tile-aligned shapes (32-wide one-page tiles), a cold pool
        that holds one slab — so no pass finds the previous one's
        pages — and A tall enough for several slabs per pass: the
        kernel reads and writes exactly what ``crossprod_io`` counts."""
        k, mem = 32 * g, blocks * 1024
        s = crossprod_schedule(0, k, 32, mem)
        side_cols = 32 if side else 0
        assume(crossprod_side_fits(mem, k, 32, side_cols))
        m = s.slab * (2 * -(-2 * s.side // 32) + 3)
        slab_pages = s.slab * (2 * s.side + side_cols) // 1024
        store = make_store(mem=max(slab_pages + 1, 4) * 1024)
        rng = np.random.default_rng(seed)
        a = store.matrix_from_numpy(integer_valued(rng, (m, k)))
        sides = []
        if side:
            sides = [(store.matrix_from_numpy(
                integer_valued(rng, (m, side_cols))),
                store.create_matrix((k, side_cols), layout="square"))]
        store.flush()
        store.pool.clear()
        store.reset_stats()
        crossprod_matmul(store, a, mem, side=sides)
        store.flush()
        stats = store.device.stats
        model = crossprod_io(m, k, mem, 1024, side_cols=side_cols,
                             tile_side=32)
        assert stats.reads + stats.writes == model
        assert stats.writes == (k * k + k * side_cols) // 1024

    @given(m=st.integers(1, 90), k=st.integers(1, 70),
           widths=st.lists(st.integers(1, 9), max_size=2),
           mem=st.integers(3, 12_000), seed=st.integers(0, 2 ** 16))
    @example(m=1, k=13, widths=[1], mem=338, seed=0)
    @example(m=5, k=5, widths=[], mem=3, seed=0)
    @settings(max_examples=8, deadline=None)
    def test_bits_across_backends(self, m, k, widths, mem, seed):
        """Integer-valued data on 16-wide tiles: X'X and the sides are
        bitwise NumPy's on the memory, mmap and pread backends.  The
        sides are priced on A's stored tile side, as the kernel prices
        them: the store clamps a 16-wide tile to a smaller A (1 x 13 is
        one 1 x 13 tile, side 13).

        Ragged budgets stay in the draw space, but the work is bounded:
        a draw's region x slab steps, each run on three stores, are
        capped at ``MAX_STEPS`` (a 3-scalar budget on a 90 x 70 A is
        223 650 one-scalar steps)."""
        from repro.storage import StorageConfig
        tile = max(tile_shape_for_layout("square", (m, k), 256, 64))
        assume(crossprod_side_fits(mem, k, tile, sum(widths)))
        schedule = crossprod_schedule(m, k, tile, mem)
        assume(len(schedule.regions) * -(-m // schedule.slab)
               <= self.MAX_STEPS)
        rng = np.random.default_rng(seed)
        a_np = integer_valued(rng, (m, k))
        b_nps = [integer_valued(rng, (m, w)) for w in widths]
        for backend in ("memory", "mmap", "pread"):
            cfg = StorageConfig(backend=backend, block_size=2048,
                                memory_bytes=64 * 2048)
            with ArrayStore(storage=cfg) as store:
                a = store.matrix_from_numpy(a_np)
                side = [(store.matrix_from_numpy(b),
                         store.create_matrix((k, b.shape[1])))
                        for b in b_nps]
                out = crossprod_matmul(store, a, mem, side=side)
                assert np.array_equal(out.to_numpy(), a_np.T @ a_np)
                for b, (_, got) in zip(b_nps, side):
                    assert np.array_equal(got.to_numpy(), a_np.T @ b)


class TestBudgetGuard:
    """The square-tile schedule honors its budget: below the
    tile-aligned working set the panel goes *ragged* (sub-tile, extra
    partial-tile I/O, correct results) and only a budget that cannot
    hold 3 scalars is refused (mirrors ``TestRaggedPanelBudget``)."""

    def test_square_tile_goes_ragged_below_three_tiles(self, rng):
        store = make_store()  # block 8192 -> 32 x 32 tiles
        a_np = rng.standard_normal((64, 64))
        b_np = rng.standard_normal((64, 64))
        a = store.matrix_from_numpy(a_np)
        b = store.matrix_from_numpy(b_np)
        out = square_tile_matmul(store, a, b, 3 * 32 * 32 - 1)
        assert np.allclose(out.to_numpy(), a_np @ b_np)

    def test_square_tile_accepts_exact_minimum(self, rng):
        store = make_store()
        a_np = rng.standard_normal((64, 48))
        b_np = rng.standard_normal((48, 64))
        a = store.matrix_from_numpy(a_np)
        b = store.matrix_from_numpy(b_np)
        out = square_tile_matmul(store, a, b, 3 * 32 * 32)
        assert np.allclose(out.to_numpy(), a_np @ b_np)

    def test_crossprod_goes_ragged_below_three_tiles(self, rng):
        store = make_store()
        a_np = rng.standard_normal((64, 64))
        a = store.matrix_from_numpy(a_np)
        out = crossprod_matmul(store, a, 100)
        assert np.allclose(out.to_numpy(), a_np.T @ a_np)

    def test_crossprod_raises_below_three_scalars(self, rng):
        store = make_store()
        a = store.matrix_from_numpy(rng.standard_normal((8, 8)))
        with pytest.raises(ValueError, match="at least 3 scalars"):
            crossprod_matmul(store, a, 2)


class TestBNLJHints:
    """bnlj announces each A-row chunk and B column-block footprint, so
    cold tile misses coalesce into few device calls — while moving
    exactly the same number of blocks as the unhinted run (the dense
    streaming accounting contract)."""

    def _measure(self, rng, scheduler: bool):
        a_np = np.arange(96 * 128, dtype=float).reshape(96, 128)
        b_np = np.arange(128 * 64, dtype=float).reshape(128, 64)
        store = make_store(mem=24 * 1024)
        store.pool.scheduler.enabled = scheduler
        a = store.matrix_from_numpy(a_np, layout="row")
        b = store.matrix_from_numpy(b_np, layout="col")
        store.pool.clear()
        store.reset_stats()
        out = bnlj_matmul(store, a, b, 24 * 1024)
        store.flush()
        assert np.allclose(out.to_numpy(), a_np @ b_np)
        return store.device.stats.snapshot()

    def test_read_calls_collapse_under_hints(self, rng):
        hinted = self._measure(rng, scheduler=True)
        unhinted = self._measure(rng, scheduler=False)
        assert hinted.total == unhinted.total  # blocks never change
        assert unhinted.read_calls == unhinted.reads
        assert hinted.read_calls < unhinted.read_calls / 2

    def test_shared_operand_drift_stays_bounded(self, rng):
        """t(A) %*% A through bnlj shares one stored matrix between
        both loops; cache-reuse timing may drift block totals under
        hints, but only within the documented sparse-style bound."""
        a_np = rng.standard_normal((512, 96))

        def measure(scheduler):
            store = make_store(mem=24 * 1024)
            store.pool.scheduler.enabled = scheduler
            a = store.matrix_from_numpy(a_np, layout="square")
            store.pool.clear()
            store.reset_stats()
            out = bnlj_matmul(store, a, a, 24 * 1024, trans_a=True)
            store.flush()
            assert np.allclose(out.to_numpy(), a_np.T @ a_np)
            return store.device.stats.total

        hinted = measure(True)
        unhinted = measure(False)
        assert abs(hinted - unhinted) <= 0.1 * unhinted


class TestEpilogue:
    def test_square_tile_epilogue(self, rng):
        """The epilogue sees true output coordinates on every panel."""
        a_np = rng.standard_normal((100, 60))
        b_np = rng.standard_normal((60, 80))
        c_np = rng.standard_normal((100, 80))
        # 4-block floor for the pool; the kernel's own budget of
        # 3*32*32 scalars still forces 32-wide panels.
        store = make_store(mem=4 * 32 * 32)
        c = store.matrix_from_numpy(c_np)

        def epilogue(r0, c0, block):
            return 2.0 * block + c.read_submatrix(
                r0, r0 + block.shape[0], c0, c0 + block.shape[1])

        out = square_tile_matmul(
            store, store.matrix_from_numpy(a_np),
            store.matrix_from_numpy(b_np), 3 * 32 * 32,
            epilogue=epilogue)
        assert np.allclose(out.to_numpy(), 2.0 * (a_np @ b_np) + c_np)

    def test_crossprod_epilogue_mirrors_coordinates(self, rng):
        """The mirror block gets the *mirrored* coordinates, so fused
        non-symmetric epilogues stay correct."""
        a_np = rng.standard_normal((64, 60))
        c_np = rng.standard_normal((60, 60))
        # 4-block floor for the pool; the kernel's own budget of
        # 3*32*32 scalars still forces 32-wide panels.
        store = make_store(mem=4 * 32 * 32)
        c = store.matrix_from_numpy(c_np)

        def epilogue(r0, c0, block):
            r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
            return block + c.read_submatrix(r0, r1, c0, c1)

        out = crossprod_matmul(
            store, store.matrix_from_numpy(a_np), 3 * 32 * 32,
            epilogue=epilogue)
        assert np.allclose(out.to_numpy(), a_np.T @ a_np + c_np)
