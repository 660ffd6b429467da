"""Tests for tile linearization curves, incl. hypothesis bijection checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (ColMajor, Hilbert, RowMajor, ZOrder,
                           linearization_names, make_linearization)

CURVES = [RowMajor, ColMajor, ZOrder, Hilbert]


@pytest.mark.parametrize("cls", CURVES)
class TestBijection:
    def test_roundtrip_small(self, cls):
        lin = cls(5, 7)
        for ti in range(5):
            for tj in range(7):
                assert lin.coords(lin.index(ti, tj)) == (ti, tj)

    def test_dense_range(self, cls):
        lin = cls(4, 6)
        positions = sorted(lin.index(i, j)
                           for i in range(4) for j in range(6))
        assert positions == list(range(24))

    def test_out_of_range_rejected(self, cls):
        lin = cls(3, 3)
        with pytest.raises(IndexError):
            lin.index(3, 0)
        with pytest.raises(IndexError):
            lin.index(0, -1)

    def test_invalid_grid(self, cls):
        with pytest.raises(ValueError):
            cls(0, 5)


@pytest.mark.parametrize("cls", CURVES)
@pytest.mark.parametrize("grid", [(1, 9), (9, 1), (1, 1), (1, 2), (2, 1)])
class TestDegenerateGrids:
    """1xN / Nx1 / single-tile grids: the curves must stay bijective.

    These shapes show up constantly in practice — vectors stored as
    matrices, single-tile matrices, skinny sparse-tile grids — and the
    power-of-two padding in Z-order/Hilbert makes them easy to break.
    """

    def test_roundtrip_every_position(self, cls, grid):
        rows, cols = grid
        lin = cls(rows, cols)
        for pos in range(rows * cols):
            ti, tj = lin.coords(pos)
            assert 0 <= ti < rows and 0 <= tj < cols
            assert lin.index(ti, tj) == pos

    def test_dense_position_range(self, cls, grid):
        rows, cols = grid
        lin = cls(rows, cols)
        positions = sorted(lin.index(i, j)
                           for i in range(rows) for j in range(cols))
        assert positions == list(range(rows * cols))

    def test_out_of_grid_rejected(self, cls, grid):
        rows, cols = grid
        lin = cls(rows, cols)
        with pytest.raises(IndexError):
            lin.index(rows, 0)
        with pytest.raises(IndexError):
            lin.index(0, cols)


@given(rows=st.integers(1, 12), cols=st.integers(1, 12),
       name=st.sampled_from(["row", "col", "zorder", "hilbert"]))
@settings(max_examples=60, deadline=None)
def test_bijection_property(rows, cols, name):
    lin = make_linearization(name, rows, cols)
    seen = set()
    for ti in range(rows):
        for tj in range(cols):
            pos = lin.index(ti, tj)
            assert 0 <= pos < rows * cols
            assert pos not in seen
            seen.add(pos)
            assert lin.coords(pos) == (ti, tj)


class TestOrderProperties:
    def test_row_major_order(self):
        lin = RowMajor(3, 4)
        assert lin.index(0, 0) == 0
        assert lin.index(0, 3) == 3
        assert lin.index(1, 0) == 4

    def test_col_major_order(self):
        lin = ColMajor(3, 4)
        assert lin.index(0, 0) == 0
        assert lin.index(2, 0) == 2
        assert lin.index(0, 1) == 3

    def test_zorder_interleaves(self):
        lin = ZOrder(4, 4)
        # Z-order on a 4x4 grid: (0,0)=0, (1,0)=1, (0,1)=2, (1,1)=3
        assert lin.index(0, 0) == 0
        assert lin.index(1, 0) == 1
        assert lin.index(0, 1) == 2
        assert lin.index(1, 1) == 3

    def test_hilbert_adjacency(self):
        """Consecutive Hilbert positions are grid neighbours."""
        lin = Hilbert(8, 8)
        prev = lin.coords(0)
        for pos in range(1, 64):
            cur = lin.coords(pos)
            dist = abs(cur[0] - prev[0]) + abs(cur[1] - prev[1])
            assert dist == 1, f"positions {pos-1}->{pos} not adjacent"
            prev = cur

    def test_zorder_not_always_adjacent(self):
        """Z-order jumps (that's why Hilbert exists)."""
        lin = ZOrder(8, 8)
        jumps = 0
        prev = lin.coords(0)
        for pos in range(1, 64):
            cur = lin.coords(pos)
            if abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) > 1:
                jumps += 1
            prev = cur
        assert jumps > 0


def _locality_score(lin, rows: int, cols: int, window: int = 4) -> float:
    """Mean linear distance between horizontally adjacent tiles."""
    dists = []
    for i in range(rows):
        for j in range(cols - 1):
            dists.append(abs(lin.index(i, j + 1) - lin.index(i, j)))
    return float(np.mean(dists))


class TestLocality:
    def test_hilbert_beats_colmajor_for_row_walks(self):
        """Space-filling curves keep neighbours closer than the 'wrong'
        canonical order — the §5 motivation for advanced linearization."""
        rows = cols = 16
        hilbert = _locality_score(Hilbert(rows, cols), rows, cols)
        zorder = _locality_score(ZOrder(rows, cols), rows, cols)
        col = _locality_score(ColMajor(rows, cols), rows, cols)
        assert hilbert < col
        assert zorder < col

    def test_names_listed(self):
        assert set(linearization_names()) == {
            "row", "col", "zorder", "hilbert"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_linearization("peano", 2, 2)
