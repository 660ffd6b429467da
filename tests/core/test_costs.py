"""Tests for the analytic I/O cost models and the Figure-3 tables."""

import math
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import (GB_IN_SCALARS, bnlj_matmul_io,
                              bnlj_schedule, chain_io,
                              chain_io_lower_bound, fig3_dims,
                              fig3_strategy_costs, fig3a_rows, fig3b_rows,
                              matmul_epilogue_io, matmul_io,
                              matmul_io_lower_bound,
                              naive_colmajor_matmul_io, riotdb_matmul_io,
                              rowmajor_scan_matmul_io, square_panel,
                              square_schedule, square_tile_matmul_io)
from repro.core.chain import in_order


M2GB = 2 * GB_IN_SCALARS


class TestSingleMultiply:
    def test_square_tile_tracks_lower_bound(self):
        """Optimal algorithm is within a constant (2*sqrt(3)) of the bound."""
        n, M, B = 100_000, M2GB, 1024
        lb = matmul_io_lower_bound(n, n, n, M, B)
        cost = square_tile_matmul_io(n, n, n, M, B)
        assert cost >= lb
        assert cost <= 4 * lb  # 2*sqrt(3) ~ 3.46 plus the write term

    def test_square_beats_bnlj_at_scale(self):
        """§5: 'For large matrices, this algorithm beats the one ...
        inspired by block nested-loop join.'"""
        n, M, B = 100_000, M2GB, 1024
        assert square_tile_matmul_io(n, n, n, M, B) < \
            bnlj_matmul_io(n, n, n, M, B)

    def test_bnlj_scales_with_extra_dimension_factor(self):
        """BNLJ cost carries the (n2+n3)/M factor the square tiles avoid."""
        M, B = M2GB, 1024
        r4 = bnlj_matmul_io(40_000, 40_000, 40_000, M, B)
        r8 = bnlj_matmul_io(80_000, 80_000, 80_000, M, B)
        # n^3 * n / M scaling: doubling n multiplies cost by ~16.
        assert r8 / r4 == pytest.approx(16, rel=0.2)

    def test_square_scaling_is_cubic(self):
        M, B = M2GB, 1024
        r4 = square_tile_matmul_io(40_000, 40_000, 40_000, M, B)
        r8 = square_tile_matmul_io(80_000, 80_000, 80_000, M, B)
        assert r8 / r4 == pytest.approx(8, rel=0.2)

    def test_more_memory_reduces_square_cost(self):
        n, B = 100_000, 1024
        two = square_tile_matmul_io(n, n, n, M2GB, B)
        four = square_tile_matmul_io(n, n, n, 2 * M2GB, B)
        # 1/sqrt(M) scaling -> factor ~sqrt(2).
        assert two / four == pytest.approx(math.sqrt(2), rel=0.05)

    def test_naive_is_catastrophic(self):
        """§3: column layout for both operands costs Theta(n1 n2 n3)."""
        n, B = 10_000, 1024
        naive = naive_colmajor_matmul_io(n, n, n, B)
        rowmajor = rowmajor_scan_matmul_io(n, n, n, B)
        assert naive / rowmajor == pytest.approx(B, rel=0.01)

    def test_riotdb_dwarfs_everything(self):
        n, M, B = 100_000, M2GB, 1024
        riot = riotdb_matmul_io(n, n, n, M, B)
        bnlj = bnlj_matmul_io(n, n, n, M, B)
        assert riot > 100 * bnlj


class TestChains:
    def test_chain_io_sums_pairwise(self):
        dims = [100, 50, 100, 100]
        per = lambda m, l, n: float(m * l * n)  # noqa: E731
        total = chain_io(dims, in_order(3), per)
        assert total == 100 * 50 * 100 + 100 * 100 * 100

    def test_chain_lower_bound_uses_optimal_multiplications(self):
        dims = [1000, 10, 1000, 1000]
        lb = chain_io_lower_bound(dims, M2GB, 1024)
        n_opt = 10 * 1000 * 1000 + 1000 * 10 * 1000
        assert lb == pytest.approx(
            n_opt / (1024 * math.sqrt(M2GB)))


class TestFigure3:
    def test_fig3a_strategy_ordering(self):
        """The paper's 'progression of improvements' must hold at every
        parameter setting of Figure 3(a)."""
        for n in (100_000, 120_000):
            for gb in (2, 4):
                costs = fig3_strategy_costs(n, 2.0, gb * GB_IN_SCALARS)
                assert costs["RIOT-DB"] > costs["BNLJ-Inspired"] > \
                    costs["Square/In-Order"] > costs["Square/Opt-Order"]

    def test_fig3a_magnitudes_match_paper(self):
        """Figure 3(a) y-axis spans 1e7..1e13; RIOT-DB sits at the top
        (~1e12-1e13) and the square strategies at 1e8-1e9."""
        costs = fig3_strategy_costs(100_000, 2.0, M2GB)
        assert 1e11 < costs["RIOT-DB"] < 1e14
        assert 1e8 < costs["BNLJ-Inspired"] < 1e10
        assert 1e7 < costs["Square/Opt-Order"] < 1e9

    def test_fig3b_gap_widens_with_skew(self):
        """§5: 'As s increases, the performance gap between
        Square/Opt-Order and others widens.'"""
        rows = fig3b_rows()
        by_s = {}
        for row in rows:
            by_s.setdefault(row["s"], {})[row["strategy"]] = \
                row["io_blocks"]
        gaps = [by_s[s]["Square/In-Order"] / by_s[s]["Square/Opt-Order"]
                for s in (2, 4, 6, 8)]
        assert gaps == sorted(gaps)
        assert gaps[-1] > gaps[0] * 1.5

    def test_fig3b_excludes_riotdb(self):
        strategies = {r["strategy"] for r in fig3b_rows()}
        assert "RIOT-DB" not in strategies

    def test_fig3a_has_16_rows(self):
        assert len(fig3a_rows()) == 16  # 2 n x 2 memory x 4 strategies

    def test_more_memory_helps_every_strategy(self):
        a = fig3_strategy_costs(100_000, 2.0, M2GB)
        b = fig3_strategy_costs(100_000, 2.0, 2 * M2GB)
        for strategy in a:
            assert b[strategy] <= a[strategy]

    def test_dims_shape(self):
        assert fig3_dims(100_000, 2.0) == [100_000, 50_000, 100_000,
                                           100_000]


BLOCK = 1024


def area(rect):
    r0, r1, c0, c1 = rect
    return (r1 - r0) * (c1 - c0)


class TestClosedFormsAgainstSchedules:
    """The paper's closed forms stay within the bands
    ``tests/linalg/test_cost_agreement.py`` holds the kernels to, now
    against a count over the schedule each kernel runs, on whole-tile
    geometries.

    Both domains stop where a closed form stops describing its
    schedule.  Every dimension of a square product is at least one
    panel p: with m or n below it the fused ``matmul_epilogue_io``,
    not clamped at the one-pass floor as ``matmul_io`` is, falls
    to a fifth of the count.  BNLJ holds at least two rows per chunk:
    at one, the kernel's ``q = floor(M / (n2 + n3))`` can be half the
    closed form's ``M / (n2 + n3)``, and the count nearly twice it."""

    @settings(max_examples=150, deadline=None)
    @given(tile=st.sampled_from([8, 16, 32]), extra=st.integers(0, 3),
           panel=st.floats(1, 4.999), tiles=st.tuples(
               *[st.integers(0, 8)] * 3))
    def test_square_and_fused(self, tile, extra, panel, tiles):
        memory = int((3 + extra) * (panel * tile) ** 2)
        p = square_panel(memory, tile, 3 + extra)
        m, l, n = (p + t * tile for t in tiles)
        schedule = square_schedule(m, l, n, tile, memory, extra)
        assert schedule.rows == schedule.cols == schedule.depth == p >= tile
        reads = sum(area(a) + area(b) for _, a, b in schedule.steps())
        count = (reads + (1 + extra) * m * n) / BLOCK
        model = (matmul_epilogue_io(m, l, n, extra, memory, BLOCK)
                 if extra else matmul_io(m, l, n, memory, BLOCK))
        assert 0.5 * model <= count <= 2.0 * model

    @settings(max_examples=150, deadline=None)
    @given(tile=st.sampled_from([8, 16, 32]),
           dims=st.tuples(*[st.integers(1, 12)] * 3),
           rows=st.integers(2, 40), slack=st.floats(0, 0.999))
    def test_bnlj(self, tile, dims, rows, slack):
        n1, n2, n3 = (d * tile for d in dims)
        memory = int((rows + slack) * (n2 + n3))
        schedule = bnlj_schedule(n1, n2, n3, tile, memory)
        assert schedule.rows == rows
        # A chunk's rows of A are read once, at its first step.
        reads = sum(area(a) + sum(area(b) for _, _, b in chunk)
                    for a, chunk in groupby(schedule.steps(),
                                            key=itemgetter(1)))
        count = (reads + n1 * n3) / BLOCK
        model = bnlj_matmul_io(n1, n2, n3, memory, BLOCK)
        assert 0.7 * model <= count <= 1.5 * model
