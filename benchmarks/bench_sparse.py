"""Sparse vs dense tiling: the block-count crossover over density.

Not a paper figure — RIOT's §5 storage argument applied to the sparse
workload class.  One matrix-vector product (the inner loop of every
iterative solver) runs at each density twice:

- **sparse**: ``SparseTiledMatrix`` (CSR tiles, per-tile nnz directory,
  empty tiles = zero pages) through ``spmv``,
- **dense**: the same values in a dense ``TiledMatrix`` through the
  Appendix-A ``square_tile_matmul`` (the vector as an n x 1 matrix).

At low density the sparse store reads strictly fewer blocks (empty
tiles cost nothing and CSR tiles take O(nnz) bytes, packed into shared
pages); as density grows, CSR's overhead (10 bytes per stored value,
its value and a 2-byte tile-local column index, against ``8 / density``
for dense) hands the win back to dense tiling once density passes
about 0.8.  The sweep prints the measured
crossover and asserts both regimes exist.  A second workload locks in
the chain-order win: ``(A %*% B) %*% v`` with sparse A, B evaluates
right-deep after the nnz-aware rewrite and must beat the left-deep
program order.  A third
is the evidence for ``SPGEMM_DENSE_CROSSOVER``: ``spgemm`` wall-clock
over operand density, the kernel's per-pair choice against densifying
every pair, on both sides of the crossover, with the tile pairs each
path took and the panel steps that covered them.

Set ``RIOT_BENCH_FAST=1`` (the CI smoke job does) to shrink sizes.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np
from conftest import record_io_stats

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import spmv_io
from repro.linalg import square_tile_matmul
from repro.sparse import SparseTiledMatrix, kernels, spgemm, spmv
from repro.storage import ArrayStore, StorageConfig

FAST = bool(os.environ.get("RIOT_BENCH_FAST"))

#: Matrix side and pool size.  The pool is kept far below the matrix so
#: both strategies do real I/O rather than measuring caching.
SIDE = 512 if FAST else 1024
POOL_BLOCKS = 24
MEMORY_SCALARS = POOL_BLOCKS * 1024

DENSITIES = [0.001, 0.003, 0.01, 0.03, 0.1, 0.5, 0.75, 0.9]


def _random_coo(n: int, density: float, seed: int = 13):
    rng = np.random.default_rng(seed)
    nnz = max(1, int(round(density * n * n)))
    flat = rng.choice(n * n, size=nnz, replace=False)
    return flat // n, flat % n, rng.standard_normal(nnz)


def _spmv_pair(density: float):
    """(sparse_stats, dense_stats, max_abs_diff) for one density."""
    i, j, x = _random_coo(SIDE, density)
    xv = np.random.default_rng(7).standard_normal(SIDE)

    store = ArrayStore(StorageConfig(memory_bytes=POOL_BLOCKS * 8192))
    a_sparse = SparseTiledMatrix.from_coo(store, i, j, x, (SIDE, SIDE))
    vec = store.vector_from_numpy(xv)
    store.pool.clear()
    store.reset_stats()
    y_sparse = spmv(store, a_sparse, vec)
    store.flush()
    sparse_stats = store.device.stats.snapshot()
    y1 = y_sparse.to_numpy()

    dense_np = np.zeros((SIDE, SIDE))
    dense_np[i, j] = x
    store2 = ArrayStore(StorageConfig(memory_bytes=POOL_BLOCKS * 8192))
    a_dense = store2.matrix_from_numpy(dense_np, layout="square")
    v_mat = store2.matrix_from_numpy(xv.reshape(-1, 1), layout="col")
    store2.pool.clear()
    store2.reset_stats()
    y_dense = square_tile_matmul(store2, a_dense, v_mat, MEMORY_SCALARS)
    store2.flush()
    dense_stats = store2.device.stats.snapshot()
    y2 = y_dense.to_numpy().ravel()

    return sparse_stats, dense_stats, float(np.max(np.abs(y1 - y2)))


def test_sparse_density_sweep(benchmark):
    """Sweep density 0.001..0.9: sparse wins low, dense wins high."""
    rows = benchmark.pedantic(
        lambda: {d: _spmv_pair(d) for d in DENSITIES},
        rounds=1, iterations=1)

    print("\nSpMV reads: sparse CSR tiles vs dense square tiles, "
          f"n={SIDE}")
    print(f"  {'density':>8s} {'sparse':>8s} {'dense':>8s} "
          f"{'model':>8s} {'winner':>8s}")
    nnz_of = {d: max(1, int(round(d * SIDE * SIDE))) for d in DENSITIES}
    for d, (sp, dn, err) in rows.items():
        model = spmv_io(SIDE, SIDE, nnz_of[d], 1024)
        winner = "sparse" if sp.reads < dn.reads else "dense"
        print(f"  {d:8.3f} {sp.reads:8d} {dn.reads:8d} "
              f"{model:8.0f} {winner:>8s}")
        assert err < 1e-9  # identical answers at every density

    benchmark.extra_info["reads_by_density"] = {
        str(d): {"sparse": sp.reads, "dense": dn.reads}
        for d, (sp, dn, _) in rows.items()}
    record_io_stats(benchmark, rows[DENSITIES[0]][0])

    sparse_reads = {d: sp.reads for d, (sp, _, _) in rows.items()}
    dense_reads = {d: dn.reads for d, (_, dn, _) in rows.items()}
    # The acceptance regime: at the sparse end of the sweep the CSR
    # store reads strictly fewer blocks than dense tiling...
    assert sparse_reads[0.001] < dense_reads[0.001]
    assert sparse_reads[0.003] < dense_reads[0.003]
    # ...and the crossover is real: CSR overhead loses at high density.
    # A CSR tile stores ``10 nnz + 4 (rows + 1) + 8`` bytes against the
    # dense tile's ``8 rows cols``, so CSR holds more bytes once density
    # passes about 0.8: at 0.75 it still reads a little less than dense
    # tiling, at 0.9 it holds 1.13x the bytes and reads more.
    assert sparse_reads[0.9] > dense_reads[0.9]
    # Dense I/O is density-independent; sparse I/O grows with nnz.
    assert sparse_reads[0.001] < sparse_reads[0.1] < sparse_reads[0.5] \
        < sparse_reads[0.75] < sparse_reads[0.9]
    spread = max(dense_reads.values()) / min(dense_reads.values())
    assert spread < 1.2


def test_sparse_io_tracks_model(benchmark):
    """Measured sparse SpMV reads stay within 2x of ``spmv_io``."""
    density = 0.01

    def measure():
        i, j, x = _random_coo(SIDE, density)
        store = ArrayStore(StorageConfig(memory_bytes=POOL_BLOCKS * 8192))
        a = SparseTiledMatrix.from_coo(store, i, j, x, (SIDE, SIDE))
        vec = store.vector_from_numpy(
            np.random.default_rng(7).standard_normal(SIDE))
        store.pool.clear()
        store.reset_stats()
        spmv(store, a, vec)
        store.flush()
        return (store.device.stats.snapshot(),
                store.pool.stats.snapshot(), a.nnz)

    stats, pool, nnz = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_io_stats(benchmark, stats, pool=pool)
    model = spmv_io(SIDE, SIDE, nnz, 1024)
    ratio = stats.total / model
    print(f"\nspmv n={SIDE} density={density}: measured={stats.total} "
          f"model={model:.0f} ratio={ratio:.2f}")
    benchmark.extra_info["model_blocks"] = round(model)
    assert 0.5 <= ratio <= 2.0


def test_sparse_chain_order(benchmark):
    """(A %*% B) %*% v, sparse A and B: the nnz-aware rewrite must beat
    the left-deep program order on measured blocks."""
    # Fixed size even in fast mode (runs in ms): below n=512, or at
    # density 0.005, every plan fits in a handful of pages and the
    # orders tie.
    n = 512
    density = 0.01

    def run(optimize: bool):
        session = RiotSession(
            storage=StorageConfig(memory_bytes=POOL_BLOCKS * 8192),
            config=OptimizerConfig(level=2 if optimize else 0))
        A = session.random_sparse_matrix(n, n, density, seed=1)
        B = session.random_sparse_matrix(n, n, density, seed=2)
        v = session.matrix(
            np.random.default_rng(3).standard_normal((n, 1)))
        chain = (A @ B) @ v
        session.store.pool.clear()  # cold start: measure real I/O
        session.reset_stats()
        values = chain.values()
        return (session.io_stats.snapshot(),
                session.store.pool.stats.snapshot(), values)

    opt_stats, opt_pool, opt_values = benchmark.pedantic(
        run, args=(True,), rounds=1, iterations=1)
    raw_stats, _, raw_values = run(False)
    record_io_stats(benchmark, opt_stats, pool=opt_pool)
    benchmark.extra_info["io_left_deep"] = raw_stats.as_dict()
    print(f"\nsparse chain n={n}, density={density}: "
          f"left-deep={raw_stats.total} blocks, "
          f"nnz-aware={opt_stats.total} blocks "
          f"({raw_stats.total / max(opt_stats.total, 1):.2f}x saving)")
    assert np.allclose(opt_values, raw_values)
    assert opt_stats.total < raw_stats.total


#: Operand densities of the spgemm sweep.  With uniformly scattered
#: nonzeros a tile pair's product count is about density^2 of the dense
#: tile product, so the 1/256 crossover sits at 1/16 = 6.25 %: four
#: points below it, two above.
SPGEMM_DENSITIES = [0.001, 0.005, 0.02, 0.05, 0.2, 0.5]
SPGEMM_REPS = 3
#: Adaptive may trail all-dense by this factor before the sweep fails:
#: where both take the same path the two runs differ by sandbox noise.
SPGEMM_NOISE = 1.25


def _counts(io) -> dict:
    """Every IOStats counter except the measured times."""
    return {k: v for k, v in io.as_dict().items()
            if k not in ("read_ns", "write_ns", "seconds")}


def _spgemm_run(density: float, all_dense: bool):
    """One cold ``A %*% B`` on pread: (seconds, io, pool, paths, C)."""
    a_coo = _random_coo(SIDE, density, seed=13)
    b_coo = _random_coo(SIDE, density, seed=14)
    store = ArrayStore(storage=StorageConfig(
        backend="pread", memory_bytes=128 * 8192))
    a = SparseTiledMatrix.from_coo(store, *a_coo, (SIDE, SIDE))
    b = SparseTiledMatrix.from_coo(store, *b_coo, (SIDE, SIDE))
    store.flush()
    store.pool.clear()
    store.reset_stats()
    # A negative crossover sends every pair, even one with no products,
    # down the densify-and-GEMM path: the kernel as it was.
    crossover = -1.0 if all_dense else kernels.SPGEMM_DENSE_CROSSOVER
    # The kernel reports its steps and the tile pairs they covered, by
    # path, on its row-panel spans (one span a panel: both sides pay
    # the same tracing).
    with mock.patch.object(kernels, "SPGEMM_DENSE_CROSSOVER", crossover), \
            store.tracer.recording():
        start = time.perf_counter()
        # Working memory the size of the pool, as a session sets it.
        c = spgemm(store, a, b, 128 * 1024)
        store.flush()
        seconds = time.perf_counter() - start
    panels = [span.args for span in store.tracer.spans()
              if span.name == "spgemm:row_panel"]
    paths = {key: sum(panel[f"{key}_pairs"] for panel in panels)
             for key in ("csr", "dense")}
    paths["steps"] = sum(panel["steps"] for panel in panels)
    io = store.device.stats.snapshot()
    pool = store.pool.stats.snapshot()
    values = c.to_numpy()
    store.close()
    return seconds, io, pool, paths, values


def test_spgemm_density_sweep(benchmark):
    """Per-pair path choice vs densify-every-pair, density 0.1 %..50 %."""
    def sweep():
        rows = {}
        for d in SPGEMM_DENSITIES:
            runs = {False: [], True: []}
            for _ in range(SPGEMM_REPS):       # alternate the two sides
                for all_dense in (False, True):
                    runs[all_dense].append(_spgemm_run(d, all_dense))
            rows[d] = {side: min(reps, key=lambda r: r[0])
                       for side, reps in runs.items()}
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nspgemm n={SIDE}, 128-side tiles, pread, 1 MiB pool "
          f"(min of {SPGEMM_REPS}):")
    print(f"  {'density':>8s} {'csr':>6s} {'dense':>6s} {'steps':>6s} "
          f"{'adaptive_s':>11s} {'all_dense_s':>12s} {'ratio':>6s} "
          f"{'reads':>7s} {'writes':>7s}")
    report = {}
    for d, sides in rows.items():
        t_new, io_new, pool_new, paths, c_new = sides[False]
        t_old, io_old, pool_old, old_paths, c_old = sides[True]
        print(f"  {d:8.3f} {paths['csr']:6d} {paths['dense']:6d} "
              f"{paths['steps']:6d} {t_new:11.4f} {t_old:12.4f} "
              f"{t_new / t_old:6.2f} {io_new.reads:7d} {io_new.writes:7d}")
        report[str(d)] = {"csr_pairs": paths["csr"],
                          "dense_pairs": paths["dense"],
                          "steps": paths["steps"],
                          "adaptive_s": t_new, "all_dense_s": t_old}
        # Only the arithmetic differs: same blocks, same calls, same
        # pool traffic, same stored pattern.
        assert _counts(io_new) == _counts(io_old)
        assert pool_new == pool_old
        assert old_paths["csr"] == 0
        # A step serves every held row at once: never more steps than
        # pairs, on either side.
        for counted in (paths, old_paths):
            assert counted["steps"] <= counted["csr"] + counted["dense"]
        assert np.allclose(c_new, c_old)
        assert t_new <= SPGEMM_NOISE * t_old, \
            f"adaptive spgemm slower than all-dense at density {d}"
    benchmark.extra_info["spgemm_by_density"] = report
    benchmark.extra_info["crossover"] = kernels.SPGEMM_DENSE_CROSSOVER
    low = rows[SPGEMM_DENSITIES[0]][False]
    record_io_stats(benchmark, low[1], backend="pread", pool=low[2])

    # Both sides of the crossover are in the sweep, and each density
    # sits wholly on one side of it.
    edge = kernels.SPGEMM_DENSE_CROSSOVER ** 0.5
    for d in SPGEMM_DENSITIES:
        paths = rows[d][False][3]
        assert (paths["dense"] == 0) == (d < edge), (d, paths)
        assert (paths["csr"] == 0) == (d > edge), (d, paths)
    # Where the kernel stays compressed it must win outright.
    assert rows[0.005][False][0] < rows[0.005][True][0]
