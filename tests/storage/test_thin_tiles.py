"""Thin tiles that fill their page, against the square tiles they replace.

A square-layout matrix with a side shorter than ``B / side`` used to be
tiled in clipped squares of less than a page each (a 4096 x 1 column
in 32 one-page 128 x 1 tiles, four pages of data); its tiles now grow
along the long side, in whole squares, until they fill the page
(:func:`repro.storage.tile_shape_for_layout`).  Each draw here runs one
statement over thin operands twice — under that rule, and under a
test-local copy of the clipped-square rule patched in wherever the
engine asks for a default tile — and checks that the results have the
same bits and that the new layout never moves more blocks.

The lattice: shapes n x w and w x n, w in 1..9 and n up to 2 500;
statements with a thin output, a fused epilogue over thin inputs, a
crossprod carrying a side product, solves with a thin right-hand side,
elementwise maps; the memory, ``pread`` and ``mmap`` backends; raw and
``delta+zstd`` tiles (its zlib body where ``zstandard`` is missing);
optimizer levels 0-2; pools below and above the 256 blocks from which
the default square tile spans 16 pages instead of one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotSession
from repro.core import planner as planner_module
from repro.linalg import solve as solve_module
from repro.storage import StorageConfig, default_tile_side, tile_store

BLOCK = 8192
#: One pool below the 256-block threshold (one-page squares) and one
#: at it (16-page squares).
POOL_BLOCKS = (64, 256)

_rule = tile_store.tile_shape_for_layout


def clipped_squares(layout, shape, scalars_per_block, pool_blocks=None):
    """The square layout before thin tiles grew: the default square,
    clipped to the matrix, however little of its page it fills."""
    if layout != "square":
        return _rule(layout, shape, scalars_per_block, pool_blocks)
    side = default_tile_side(scalars_per_block, pool_blocks, shape)
    return (min(shape[0], side), min(shape[1], side))


def _ints(rng, shape):
    return rng.integers(-3, 4, size=shape).astype(np.float64)


def _statement(kind, s, rng, n, w, m, tall):
    """The DAG of one statement over freshly stored operands (stored
    under the session's rule; the caller clears the pool after)."""
    def thin():
        return s.matrix(rng.standard_normal((n, w) if tall else (w, n)))

    if kind == "product":              # thin output, square inputs
        x = s.matrix(_ints(rng, (n, m)))
        b = s.matrix(_ints(rng, (m, w)))
        return x @ b if tall else b.T @ x.T
    if kind == "epilogue":             # (X b) * v + y, v and y thin
        x = s.matrix(_ints(rng, (n, m)))
        b = s.matrix(_ints(rng, (m, w)))
        v, y = thin(), thin()
        return (x @ b) * v + y if tall else (b.T @ x.T) * v + y
    if kind == "residual":             # y - X b
        x = s.matrix(_ints(rng, (n, m)))
        b = s.matrix(_ints(rng, (m, w)))
        return thin() - x @ b if tall else thin() - b.T @ x.T
    if kind == "xty":                  # t(X) y: m x w from n x w
        x = s.matrix(_ints(rng, (n, m)))
        return x.T @ s.matrix(_ints(rng, (n, w)))
    if kind == "thin_left":            # t(y) X: a thin left operand
        y = s.matrix(_ints(rng, (n, w)))
        return y.T @ s.matrix(_ints(rng, (n, m)))
    if kind == "gram_of_thin":         # t(y) y: w x w from n x w
        y = s.matrix(_ints(rng, (n, w)))
        return y.T @ y
    if kind == "side_product":         # crossprod(X) carrying t(X) y
        x = s.matrix(_ints(rng, (n, m)))
        y = s.matrix(_ints(rng, (n, w)))
        return (x.T @ x) @ (x.T @ y)
    if kind == "ols":                  # solve(t(X) X, t(X) y)
        x = s.matrix(rng.standard_normal((n, m)))
        y = s.matrix(rng.standard_normal((n, w)))
        return (x.T @ x).solve(x.T @ y)
    if kind == "wide_solve":           # solve(A, B), B w x n
        a = s.matrix(rng.standard_normal((w, w)) + 4 * w * np.eye(w))
        return a.solve(s.matrix(rng.standard_normal((w, n))))
    y = thin()                         # an elementwise map
    return y.abs() * 2.0 + y


KINDS = ("product", "epilogue", "residual", "xty", "thin_left",
         "gram_of_thin", "side_product", "ols", "wide_solve", "map")


def run(kind, seed, n, w, m, tall, backend, codec, level, pool,
        old_rule):
    """Result bits and blocks moved by one cold run of the statement."""
    patches = [mock.patch.object(module, "tile_shape_for_layout",
                                 clipped_squares)
               for module in (tile_store, solve_module, planner_module)
               ] if old_rule else []
    with tempfile.TemporaryDirectory() as tmp:
        storage = StorageConfig(
            backend=backend, codec=codec, block_size=BLOCK,
            memory_bytes=pool * BLOCK,
            path=None if backend == "memory" else Path(tmp) / "riot.db")
        for patch in patches:
            patch.start()
        try:
            with RiotSession(storage=storage,
                             config=OptimizerConfig(level=level)) as s:
                stmt = _statement(kind, s, np.random.default_rng(seed),
                                  n, w, m, tall)
                s.store.flush()
                s.store.tile_cache.clear()
                s.store.pool.clear()
                s.reset_stats()
                out = s.force(stmt)
                s.store.flush()
                stats = s.io_stats
                values = out.to_numpy()
        finally:
            for patch in patches:
                patch.stop()
    return values, stats.reads + stats.writes


@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 16),
       n=st.integers(1, 2500), w=st.integers(1, 9),
       m=st.integers(1, 48), tall=st.booleans(),
       backend=st.sampled_from(["memory", "pread", "mmap"]),
       codec=st.sampled_from(["raw", "delta+zstd"]),
       level=st.integers(0, 2), pool=st.sampled_from(POOL_BLOCKS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A thin left operand whose grown tile cut the square kernel's panel
# (p = 129 where its clipped squares gave 128) and summed X'y in
# another order; thin tiles of more than a page read more than the
# clipped squares here.
@example(kind="ols", seed=0, n=129, w=1, m=2, tall=False,
         backend="memory", codec="raw", level=0, pool=64)
@example(kind="product", seed=0, n=513, w=2, m=7, tall=False,
         backend="memory", codec="raw", level=0, pool=256)
def test_thin_tiles_keep_every_bit_and_move_no_more_blocks(
        kind, seed, n, w, m, tall, backend, codec, level, pool):
    if kind in ("side_product", "ols"):
        n = max(n, m)                  # X'X nonsingular for the solve
    args = (kind, seed, n, w, m, tall, backend, codec, level, pool)
    new_values, new_blocks = run(*args, old_rule=False)
    old_values, old_blocks = run(*args, old_rule=True)
    assert new_values.tobytes() == old_values.tobytes()
    assert new_blocks <= old_blocks
