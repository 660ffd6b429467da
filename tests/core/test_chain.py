"""Tests for matrix-chain DP, incl. hypothesis optimality vs brute force."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import (chain_multiplications, in_order,
                              optimal_multiplications, optimal_order,
                              order_to_string, pairwise_shapes)
from repro.core.costs import square_tile_matmul_io


def all_orders(i, j):
    """Enumerate every parenthesization of factors i..j."""
    if i == j:
        yield i
        return
    for k in range(i, j):
        for left in all_orders(i, k):
            for right in all_orders(k + 1, j):
                yield (left, right)


class TestClassicCases:
    def test_cormen_example(self):
        # CLRS 15.2: dims 30x35, 35x15, 15x5, 5x10, 10x20, 20x25 -> 15125.
        dims = [30, 35, 15, 5, 10, 20, 25]
        assert optimal_multiplications(dims) == 15125

    def test_paper_example2(self):
        """§3: reordering A(BC) needs n2n3n4 + n1n2n4 multiplications."""
        n1, n2, n3, n4 = 100, 10, 100, 100
        dims = [n1, n2, n3, n4]
        left = chain_multiplications(dims, in_order(3))
        assert left == n1 * n2 * n3 + n1 * n3 * n4
        right = chain_multiplications(dims, ((0, (1, 2))))
        assert right == n2 * n3 * n4 + n1 * n2 * n4
        assert optimal_multiplications(dims) == min(left, right)

    def test_fig3_skew_chooses_a_bc(self):
        """s > 1 makes Square/Opt-Order pick A(BC) (§5)."""
        n, s = 1000, 4
        dims = [n, n // s, n, n]
        order = optimal_order(dims)
        assert order == (0, (1, 2))

    def test_single_matrix(self):
        assert optimal_order([3, 4]) == 0
        assert optimal_multiplications([3, 4]) == 0.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            optimal_order([5])


class TestOrderUtilities:
    def test_in_order_is_left_deep(self):
        assert in_order(4) == (((0, 1), 2), 3)

    def test_order_to_string(self):
        assert order_to_string((0, (1, 2))) == "(A1 (A2 A3))"
        assert order_to_string((0, (1, 2)), ["A", "B", "C"]) == \
            "(A (B C))"

    def test_pairwise_shapes(self):
        dims = [2, 3, 4, 5]
        shapes = pairwise_shapes(dims, in_order(3))
        assert shapes == [(2, 3, 4), (2, 4, 5)]
        shapes2 = pairwise_shapes(dims, (0, (1, 2)))
        assert shapes2 == [(3, 4, 5), (2, 3, 5)]

    def test_invalid_parenthesization_detected(self):
        with pytest.raises(ValueError):
            chain_multiplications([2, 3, 4], ((0, 0)))


@given(st.lists(st.integers(1, 60), min_size=3, max_size=6))
@settings(max_examples=60, deadline=None)
def test_dp_beats_or_ties_every_order(dims):
    """DP result must equal the brute-force minimum over all orders."""
    n = len(dims) - 1
    best = min(chain_multiplications(dims, order)
               for order in all_orders(0, n - 1))
    assert optimal_multiplications(dims) == best


@given(st.lists(st.integers(1, 60), min_size=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_dp_never_worse_than_in_order(dims):
    n = len(dims) - 1
    assert optimal_multiplications(dims) <= \
        chain_multiplications(dims, in_order(n))


class TestIOOrder:
    """The planner orders chains by multiplications; on these shapes
    that order is also the one of least Appendix-A I/O."""

    @staticmethod
    def io_optimal(dims, memory, block):
        def total_io(o):
            return sum(square_tile_matmul_io(m, l, n, memory, block)
                       for m, l, n in pairwise_shapes(dims, o))
        best = min(total_io(o) for o in all_orders(0, len(dims) - 2))
        return total_io(optimal_order(dims)) == pytest.approx(best)

    def test_io_optimal_order_minimizes_io(self):
        assert self.io_optimal([2000, 200, 2000, 2000], 1 << 20, 1024)

    def test_io_and_mult_orders_usually_agree(self):
        """For the Figure-3 shapes the two objectives pick the same order."""
        for s in (2, 4, 6, 8):
            dims = [100_000, 100_000 // s, 100_000, 100_000]
            assert self.io_optimal(dims, (2 << 30) // 8, 1024)
