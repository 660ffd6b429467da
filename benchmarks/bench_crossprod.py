"""Transpose-free ``t(X) %*% X``: flags and symmetry vs a stored t(X).

Not a paper figure — the contraction discipline of §5 applied to the
hottest statistical pattern this repo serves (the OLS normal
equations).  Three plans for ``t(X) %*% X`` on the OLS design shape are
measured on the counted tile store:

- **materialized transpose** (the seed plan): one full disk pass reads
  X and writes t(X), then the Appendix-A multiply runs over the copy;
- **flagged**: ``square_tile_matmul(X, X, trans_a=True)`` reads X's
  tiles in stored layout and transposes each in memory — the copy never
  exists;
- **crossprod**: the symmetric kernel computes only upper-triangular
  output blocks and mirrors them on write — about half the flagged
  plan's reads on top of deleting the transpose pass.

A fourth measurement shares the scan: the whole normal equations, X'X
and X'y, in one pass over X (the planner's shared ``crossprod``
operator) against crossprod plus a separate flagged multiply.  A fifth
checks epilogue fusion: fused, the ridge normal matrix ``t(X) X +
lambda R`` writes *only* its output blocks — zero blocks for the
intermediate product — and the cost-based plan moves no more blocks
than the fused one.

Set ``RIOT_BENCH_FAST=1`` (the CI smoke job does) to shrink sizes.
"""

from __future__ import annotations

import os

import numpy as np
from conftest import record_io_stats

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import (crossprod_io, square_schedule,
                              square_tile_matmul_io,
                              transpose_materialize_io)
from repro.linalg import crossprod_matmul, square_tile_matmul
from repro.storage import ArrayStore, StorageConfig

FAST = bool(os.environ.get("RIOT_BENCH_FAST"))

#: The OLS design shape: tall and skinny, far larger than the pool.
N_OBS = 1024 if FAST else 2048
N_FEAT = 128 if FAST else 256
MEMORY_SCALARS = 24 * 1024 if FAST else 48 * 1024
BLOCK_SCALARS = 1024


def _fresh_store():
    store = ArrayStore(StorageConfig(
        memory_bytes=MEMORY_SCALARS * 8, block_size=8192))
    rng = np.random.default_rng(29)
    x = store.matrix_from_numpy(rng.standard_normal((N_OBS, N_FEAT)),
                                layout="square", name="X")
    store.pool.clear()
    store.reset_stats()
    return store, x


def test_crossprod_beats_materialized_transpose(benchmark):
    """The Crossprod plan must move >= 1.5x fewer total blocks than the
    seed materialized-transpose plan, and the measured kernels must sit
    within 0.5-2.0x of their analytic models."""

    def run_materialized():
        store, x = _fresh_store()
        xt = store.create_matrix((N_FEAT, N_OBS), layout="square",
                                 name="Xt")
        for ti, tj in x.tiles():
            r0, r1, c0, c1 = x.tile_bounds(ti, tj)
            xt.write_submatrix(c0, r0,
                               x.read_submatrix(r0, r1, c0, c1).T)
        out = square_tile_matmul(store, xt, x, MEMORY_SCALARS)
        store.flush()
        return store.device.stats.snapshot(), out.to_numpy()

    def run_flagged():
        store, x = _fresh_store()
        out = square_tile_matmul(store, x, x, MEMORY_SCALARS,
                                 trans_a=True)
        store.flush()
        return store.device.stats.snapshot(), out.to_numpy()

    def run_crossprod():
        store, x = _fresh_store()
        out = crossprod_matmul(store, x, MEMORY_SCALARS)
        store.flush()
        return store.device.stats.snapshot(), out.to_numpy()

    cp_stats, cp_vals = benchmark.pedantic(run_crossprod, rounds=1,
                                           iterations=1)
    mat_stats, mat_vals = run_materialized()
    flag_stats, flag_vals = run_flagged()
    record_io_stats(benchmark, cp_stats)
    benchmark.extra_info["io_materialized"] = mat_stats.as_dict()
    benchmark.extra_info["io_flagged"] = flag_stats.as_dict()

    assert np.allclose(mat_vals, flag_vals)
    assert np.allclose(mat_vals, cp_vals)

    model_flag = square_tile_matmul_io(N_FEAT, N_OBS, N_FEAT,
                                       MEMORY_SCALARS, BLOCK_SCALARS)
    model_mat = model_flag + transpose_materialize_io(
        N_OBS, N_FEAT, BLOCK_SCALARS)
    model_cp = crossprod_io(N_OBS, N_FEAT, MEMORY_SCALARS,
                            BLOCK_SCALARS)
    print(f"\nt(X) %*% X on X {N_OBS}x{N_FEAT}, M={MEMORY_SCALARS}: "
          f"materialized={mat_stats.total} flagged={flag_stats.total} "
          f"crossprod={cp_stats.total} blocks "
          f"({mat_stats.total / cp_stats.total:.1f}x win)")
    print(f"models: materialized={model_mat:.0f} flagged={model_flag:.0f} "
          f"crossprod={model_cp:.0f}")
    benchmark.extra_info["crossprod_model_blocks"] = round(model_cp)
    benchmark.extra_info["flagged_model_blocks"] = round(model_flag)

    assert cp_stats.total * 1.5 <= mat_stats.total
    assert flag_stats.total < mat_stats.total
    assert 0.5 * model_cp <= cp_stats.total <= 2.0 * model_cp
    assert 0.5 * model_flag <= flag_stats.total <= 2.0 * model_flag


def test_normal_equations_in_one_scan(benchmark):
    """Both products of the normal equations from one scan of X:
    ``crossprod_matmul(..., side=[(y, Xty)])`` holds X'X's packed
    triangle beside one slab of X and y, so it reads X and y once each,
    where the separate plan also pays the flagged ``t(X) %*% y`` scan
    of X.  X'y is one page-filling N_FEAT x 1 tile: the separate
    product's two output panels each cover half of it and write it,
    the second scan of X evicting it in between, so the separate plan
    writes that page once more than the shared one, and reads it back
    once (the first panel finds it never written and reads nothing).
    X'X keeps its bits, and X'y agrees to ``rtol = 1e-12`` (the two
    kernels sum over different row blocks)."""
    mem = MEMORY_SCALARS
    y_np = np.random.default_rng(37).standard_normal((N_OBS, 1))

    def run(shared):
        store, x = _fresh_store()
        y = store.matrix_from_numpy(y_np, layout="square", name="y")
        store.pool.clear()
        store.reset_stats()
        if shared:
            xty = store.create_matrix((N_FEAT, 1), layout="square")
            xtx = crossprod_matmul(store, x, mem, side=[(y, xty)])
        else:
            xtx = crossprod_matmul(store, x, mem)
            xty = square_tile_matmul(store, x, y, mem, trans_a=True)
        store.flush()
        pages = [m.grid[0] * m.grid[1] * m.pages_per_tile
                 for m in (x, y, xty)]
        return (store.device.stats.snapshot(), pages,
                xtx.to_numpy(), xty.to_numpy())

    shared, (x_pages, y_pages, xty_pages), s_xtx, s_xty = \
        benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    separate, _, p_xtx, p_xty = run(False)
    record_io_stats(benchmark, shared)
    benchmark.extra_info["io_separate"] = separate.as_dict()
    print(f"\nX'X and X'y on X {N_OBS}x{N_FEAT}, M={mem} "
          f"(X = {x_pages} blocks, y = {y_pages}):")
    print(f"  {'plan':<34}{'read':>7}{'written':>9}{'calls':>7}")
    for label, st in (("crossprod + flagged t(X) %*% y", separate),
                      ("crossprod carrying t(X) %*% y", shared)):
        print(f"  {label:<34}{st.reads:>7}{st.writes:>9}"
              f"{st.read_calls + st.write_calls:>7}")
    assert np.array_equal(s_xtx, p_xtx)
    assert np.allclose(s_xty, p_xty, rtol=1e-12,
                       atol=1e-12 * np.abs(p_xty).max())
    panels = -(-N_FEAT // square_schedule(N_FEAT, N_OBS, 1, 32, mem).rows)
    assert shared.reads == x_pages + y_pages
    # The separate plan's second scan of X, X'y's page read back once,
    # and at full size y once more (evicted between the two panels).
    assert separate.reads - shared.reads == (
        x_pages + (panels - 1) * xty_pages + (0 if FAST else y_pages))
    assert (xty_pages, panels) == (1, 2)
    assert separate.writes == shared.writes + (panels - 1) * xty_pages


def test_fused_epilogue_writes_no_intermediate(benchmark):
    """Ridge normal matrix ``t(X) X + lambda R``: the fused plan
    (level 1 fuses whenever legal) writes only the final output blocks
    — zero for the raw product.  Level 2 may instead materialize the
    product and map over it, but only when that moves no more blocks:
    when the epilogue's tile of lambda R leaves the crossprod fewer
    passes over X than skipping the product's write and re-read
    saves."""

    def run(level):
        session = RiotSession(
            storage=StorageConfig(memory_bytes=MEMORY_SCALARS * 8,
                                  block_size=8192),
            config=OptimizerConfig(level=level))
        rng = np.random.default_rng(31)
        x = session.matrix(rng.standard_normal((N_OBS, N_FEAT)))
        r = session.matrix(np.eye(N_FEAT))
        plan = (x.T @ x) + 0.1 * r
        session.store.pool.clear()
        session.reset_stats()
        values = plan.values()
        session.store.flush()
        return session.io_stats.snapshot(), values

    fused, fused_values = benchmark.pedantic(run, args=(1,), rounds=1,
                                             iterations=1)
    costed, costed_values = run(2)
    record_io_stats(benchmark, fused)
    benchmark.extra_info["io_level2"] = costed.as_dict()

    tile = 32  # 8 KB blocks -> 32x32 tiles, one page each
    out_blocks = ((N_FEAT + tile - 1) // tile) ** 2
    print(f"\nt(X)X + 0.1R (output occupies {out_blocks} blocks):")
    print(f"  {'plan':<10}{'read':>7}{'written':>9}{'total':>7}")
    for label, st in (("level 1", fused), ("level 2", costed)):
        print(f"  {label:<10}{st.reads:>7}{st.writes:>9}{st.total:>7}")
    assert np.allclose(fused_values, costed_values)
    assert fused.writes == out_blocks
    assert costed.total <= fused.total
