"""Dense solve: pivoted LU I/O vs its model, and the inv-to-solve win.

Not a paper figure — §5's algebraic-optimization argument applied to
the dense linear-algebra workload this repo's ``solve()`` operator
opens.  Two claims are measured on the counted tile store:

- ``lu_decompose`` (blocked, partial pivoting, out of core) moves the
  number of blocks the analytic ``lu_io`` model predicts, the same
  0.5-2.0x validation matmul and SpMV get.
- The rewrite ``inv(A) %*% b -> solve(A, b)`` — the classic rewrite an
  array algebra can do and a SQL host cannot — reduces *measured*
  total block I/O versus the materialized-inverse plan, which pays a
  full factorization-sized substitution sweep per identity panel plus
  an n x n write plus an out-of-core multiply.

Set ``RIOT_BENCH_FAST=1`` (the CI smoke job does) to shrink sizes.
"""

from __future__ import annotations

import os

import numpy as np
from conftest import record_io_stats

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import inverse_io, lu_io, solve_io, solve_op_io
from repro.linalg import lu_decompose, lu_solve_factored
from repro.storage import ArrayStore, StorageConfig

FAST = bool(os.environ.get("RIOT_BENCH_FAST"))

#: Matrix side and memory budget.  The pool stays far below the matrix
#: (n^2 scalars) so both plans do real I/O rather than measure caching.
SIDE = 256 if FAST else 512
MEMORY_SCALARS = 24 * 1024 if FAST else 48 * 1024
BLOCK_SCALARS = 1024


def test_lu_io_tracks_model(benchmark):
    """Measured pivoted-LU blocks stay within 2x of ``lu_io``."""

    def measure():
        rng = np.random.default_rng(11)
        a_np = rng.standard_normal((SIDE, SIDE))
        store = ArrayStore(StorageConfig(
            memory_bytes=MEMORY_SCALARS * 8, block_size=8192))
        a = store.matrix_from_numpy(a_np, layout="square")
        store.pool.clear()
        store.reset_stats()
        factors = lu_decompose(store, a, MEMORY_SCALARS)
        store.flush()
        factor_stats = store.device.stats.snapshot()
        b = rng.standard_normal(SIDE)
        store.pool.clear()
        store.reset_stats()
        x = lu_solve_factored(factors, b, MEMORY_SCALARS)
        store.flush()
        solve_stats = store.device.stats.snapshot()
        residual = float(np.max(np.abs(a_np @ x - b)))
        return factor_stats, solve_stats, residual

    factor_stats, solve_stats, residual = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    record_io_stats(benchmark, factor_stats)
    benchmark.extra_info["io_solve"] = solve_stats.as_dict()

    lu_model = lu_io(SIDE, MEMORY_SCALARS, BLOCK_SCALARS, tile_side=32)
    solve_model = solve_io(SIDE, 1, MEMORY_SCALARS, BLOCK_SCALARS,
                           tile_side=32)
    lu_ratio = factor_stats.total / lu_model
    solve_ratio = solve_stats.total / solve_model
    print(f"\npivoted LU n={SIDE}: measured={factor_stats.total} "
          f"model={lu_model:.0f} ratio={lu_ratio:.2f}")
    print(f"substitution sweeps: measured={solve_stats.total} "
          f"model={solve_model:.0f} ratio={solve_ratio:.2f}")
    benchmark.extra_info["lu_model_blocks"] = round(lu_model)
    benchmark.extra_info["solve_model_blocks"] = round(solve_model)
    assert residual < 1e-8
    assert 0.5 <= lu_ratio <= 2.0
    assert 0.5 <= solve_ratio <= 2.0


def test_inv_rewrite_beats_materialized_inverse(benchmark):
    """inv(A) %*% b: the rewritten solve plan must move fewer blocks
    than materializing the inverse and multiplying through it."""
    n = SIDE

    def run(optimize: bool):
        session = RiotSession(
            storage=StorageConfig(memory_bytes=MEMORY_SCALARS * 8,
                                  block_size=8192),
            config=OptimizerConfig(level=2 if optimize else 0))
        rng = np.random.default_rng(23)
        a = session.matrix(rng.standard_normal((n, n)))
        b = session.matrix(rng.standard_normal((n, 1)))
        plan = a.inv() @ b
        session.store.pool.clear()  # cold start: measure real I/O
        session.reset_stats()
        values = plan.values()
        return session.io_stats.snapshot(), values

    solve_stats, solve_values = benchmark.pedantic(
        run, args=(True,), rounds=1, iterations=1)
    inverse_stats, inverse_values = run(False)
    record_io_stats(benchmark, solve_stats)
    benchmark.extra_info["io_materialized_inverse"] = \
        inverse_stats.as_dict()

    model_solve = solve_op_io(n, 1, MEMORY_SCALARS, BLOCK_SCALARS, 32)
    model_inverse = inverse_io(n, MEMORY_SCALARS, BLOCK_SCALARS, 32)
    print(f"\ninv(A) %*% b, n={n}: "
          f"solve-rewrite={solve_stats.total} blocks, "
          f"materialized-inverse={inverse_stats.total} blocks "
          f"({inverse_stats.total / max(solve_stats.total, 1):.1f}x)")
    print(f"models: solve={model_solve:.0f}, "
          f"inverse={model_inverse:.0f} blocks")
    assert np.allclose(solve_values, inverse_values, atol=1e-7)
    assert solve_stats.total < inverse_stats.total
    # The models agree on the winner, by construction of the plans.
    assert model_solve < model_inverse
