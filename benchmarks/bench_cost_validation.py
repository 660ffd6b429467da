"""Cost-model validation: measured tile I/O vs the Figure-3 formulas.

Not a paper figure — the paper reports calculated costs only.  This bench
runs the real out-of-core algorithms at laptop scale on the counted tile
store and prints measured-vs-model ratios, demonstrating that the analytic
curves of Figure 3 describe the implemented algorithms.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import record_io_stats

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import bnlj_matmul_io, square_tile_matmul_io
from repro.linalg import bnlj_matmul, square_tile_matmul
from repro.storage import ArrayStore, StorageConfig

CASES = [
    ("square", (512, 512, 512), 96 * 1024),
    ("square", (768, 512, 256), 192 * 1024),
    ("bnlj", (512, 512, 512), 96 * 1024),
    ("bnlj", (1024, 512, 512), 96 * 1024),
]


def _measure(kind, dims, mem):
    m, l, n = dims
    rng = np.random.default_rng(7)
    a_np = rng.standard_normal((m, l))
    b_np = rng.standard_normal((l, n))
    store = ArrayStore(memory_bytes=mem * 8, block_size=8192)
    if kind == "square":
        a = store.matrix_from_numpy(a_np, layout="square")
        b = store.matrix_from_numpy(b_np, layout="square")
        algo, model = square_tile_matmul, square_tile_matmul_io
    else:
        a = store.matrix_from_numpy(a_np, layout="row")
        b = store.matrix_from_numpy(b_np, layout="col")
        algo, model = bnlj_matmul, bnlj_matmul_io
    store.pool.clear()
    store.reset_stats()
    out = algo(store, a, b, mem)
    store.flush()
    assert np.allclose(out.to_numpy(), a_np @ b_np)
    return store.device.stats.snapshot(), model(m, l, n, mem, 1024)


@pytest.mark.parametrize("kind,dims,mem", CASES)
def test_model_agreement(benchmark, kind, dims, mem):
    stats, model = benchmark.pedantic(
        _measure, args=(kind, dims, mem), rounds=1, iterations=1)
    record_io_stats(benchmark, stats)
    measured = stats.total
    ratio = measured / model
    print(f"\n{kind} {dims} M={mem // 1024}k scalars: "
          f"measured={measured} model={model:.0f} ratio={ratio:.2f}")
    benchmark.extra_info["measured_blocks"] = measured
    benchmark.extra_info["model_blocks"] = round(model)
    assert 0.5 <= ratio <= 2.0


def test_chain_reorder_measured(benchmark):
    """Appendix B measured: optimal order saves real I/O under skew."""
    n, s = 512, 8
    mem = 64 * 1024
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n // s))
    b = rng.standard_normal((n // s, n))
    c = rng.standard_normal((n, n))

    def run(chain_reorder):
        with RiotSession(
                storage=StorageConfig(memory_bytes=mem * 8,
                                      block_size=8192),
                config=OptimizerConfig(chain_reorder=chain_reorder)) as s:
            ma, mb, mc = (s.matrix(m) for m in (a, b, c))
            s.store.pool.clear()
            s.reset_stats()
            out = s.force(ma @ mb @ mc)
            s.store.flush()
            return s.io_stats.snapshot(), out.to_numpy()

    stats_opt, r_opt = benchmark.pedantic(
        run, args=(None,), rounds=1, iterations=1)
    stats_inorder, r_inorder = run(False)
    record_io_stats(benchmark, stats_opt)
    benchmark.extra_info["io_in_order"] = stats_inorder.as_dict()
    io_opt, io_inorder = stats_opt.total, stats_inorder.total
    print(f"\nchain n={n}, s={s}: in-order={io_inorder} blocks, "
          f"opt-order={io_opt} blocks "
          f"({io_inorder / io_opt:.2f}x saving)")
    assert np.allclose(r_opt, r_inorder)
    assert io_opt < io_inorder
