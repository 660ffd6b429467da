"""Out-of-core linear algebra over the tile store (measured algorithms)."""

from .lu import PackedLU, SingularMatrixError, lu_decompose, split_lu
from .matmul import bnlj_matmul, crossprod_matmul, square_tile_matmul
from .solve import (backward_substitute, forward_substitute, lu_solve,
                    lu_solve_factored)

__all__ = [
    "PackedLU", "SingularMatrixError",
    "backward_substitute", "bnlj_matmul", "crossprod_matmul",
    "forward_substitute",
    "lu_decompose", "lu_solve", "lu_solve_factored",
    "split_lu", "square_tile_matmul",
]
