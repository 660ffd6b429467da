"""Matrix-chain ordering by dynamic programming (§5, Appendix B).

``A1 (d0 x d1), A2 (d1 x d2), ..., An (d(n-1) x dn)``: the classic DP finds
the parenthesization minimizing scalar multiplications; Appendix B shows the
I/O-optimal schedule then performs one multiplication at a time with the
Appendix-A algorithm, giving ``Theta(N / (B sqrt(M)))`` block I/Os where N is
the DP's multiplication count.  ``optimal_order_sparse`` runs the same DP
with each factor's density weighting the multiplications.
"""

from __future__ import annotations

from .costs import matmul_result_density

#: Parenthesization: either an int (leaf index) or a pair of orders.
Order = "int | tuple"


def chain_multiplications(dims: list[int], order) -> float:
    """Scalar multiplications used by a given parenthesization."""

    def walk(o) -> tuple[int, int, float]:
        if isinstance(o, int):
            return dims[o], dims[o + 1], 0.0
        (lr, lc, lcost) = walk(o[0])
        (rr, rc, rcost) = walk(o[1])
        if lc != rr:
            raise ValueError("invalid parenthesization")
        return lr, rc, lcost + rcost + lr * lc * rc

    return walk(order)[2]


def in_order(n_factors: int):
    """Left-deep order ((A1 A2) A3) ... — what R itself does."""
    order = 0
    for i in range(1, n_factors):
        order = (order, i)
    return order


def optimal_order(dims: list[int]):
    """Minimize scalar multiplications (the paper's DP choice)."""
    return _dp(dims)[0]


def optimal_multiplications(dims: list[int]) -> float:
    return _dp(dims)[1]


def optimal_order_sparse(dims: list[int], densities: list[float]):
    """Order a chain by *expected nonzero work* instead of dense flops.

    ``densities[i]`` is the estimated nonzero fraction of factor i.  A
    pairwise multiply of operands with densities dL/dR costs
    ``dL * dR * m * l * n`` expected scalar multiplications (the
    independence model), and the intermediate's density follows
    ``1 - (1 - dL dR)^l`` — so a chain like sparse-sparse-vector
    collapses the sparse product first when that is genuinely cheaper,
    even where the dense DP would choose differently.

    The DP tracks the density of each interval's *chosen* split;
    like every chain DP over a non-additive measure this is a
    high-quality heuristic rather than a proven optimum.
    """
    return _dp(dims, densities)[0]


def _dp(dims: list[int], densities: list[float] | None = None):
    """O(n^3) interval DP returning (order, total pairwise cost): a
    multiply costs ``dL * dR * m * l * n``, the densities of its
    operands times its scalar multiplications.  Without ``densities``
    every factor, and so every product, is dense (1.0)."""
    n = len(dims) - 1
    if n <= 0:
        raise ValueError("need at least one matrix")
    if densities is not None and len(densities) != n:
        raise ValueError(
            f"need one density per factor: {n} factors, "
            f"{len(densities)} densities")
    if n == 1:
        return 0, 0.0
    best = [[0.0] * n for _ in range(n)]
    dens = [[1.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    if densities is not None:
        for i in range(n):
            dens[i][i] = min(1.0, max(0.0, densities[i]))
    for span in range(1, n):
        for i in range(0, n - span):
            j = i + span
            best[i][j] = float("inf")
            for k in range(i, j):
                d_l, d_r = dens[i][k], dens[k + 1][j]
                cost = (best[i][k] + best[k + 1][j]
                        + d_l * d_r * dims[i] * dims[k + 1]
                        * dims[j + 1])
                if cost < best[i][j]:
                    best[i][j] = cost
                    split[i][j] = k
                    if densities is not None:
                        dens[i][j] = matmul_result_density(
                            d_l, d_r, dims[k + 1])

    def build(i: int, j: int):
        if i == j:
            return i
        k = split[i][j]
        return (build(i, k), build(k + 1, j))

    return build(0, n - 1), best[0][n - 1]


def order_to_string(order, names: list[str] | None = None) -> str:
    """Readable parenthesization, e.g. ``(A (B C))``."""

    def walk(o) -> str:
        if isinstance(o, int):
            return names[o] if names else f"A{o + 1}"
        return f"({walk(o[0])} {walk(o[1])})"

    return walk(order)


def pairwise_shapes(dims: list[int], order):
    """Yield (m, l, n) for every pairwise multiplication, in order."""

    def walk(o):
        if isinstance(o, int):
            return dims[o], dims[o + 1]
        lr, lc = walk(o[0])
        rr, rc = walk(o[1])
        shapes.append((lr, lc, rc))
        return lr, rc

    shapes: list[tuple[int, int, int]] = []
    walk(order)
    return shapes
