"""Figure 2: the subscript-through-modification rewrite, measured.

The paper presents Figure 2 as a pair of DAG diagrams; the claim behind it
is that after the rewrite, *"modifications to b (as well as tests of whether
an element of b should be modified) only need to be executed on 10
elements."*  This bench runs

    b <- a^2; b[b > 100] <- 100; b[1:10]

on the next-generation engine with the rewriter on and off and reports the
I/O of evaluating the 10-element result, printing both DAGs.
"""

from __future__ import annotations

import numpy as np
from conftest import record_io_stats

from repro.core import OptimizerConfig, RiotSession
from repro.storage import StorageConfig

N = 2_000_000
MEMORY = 32 * 8192  # deliberately tiny pool: misses are visible


def _build(session: RiotSession, values: np.ndarray):
    a = session.vector(values)
    b = a ** 2.0
    b2 = b.assign(b > 100.0, 100.0)
    return b2[1:10]


def _measure(optimize: bool):
    rng = np.random.default_rng(42)
    values = rng.uniform(0.0, 20.0, N)
    session = RiotSession(storage=StorageConfig(memory_bytes=MEMORY),
                          config=OptimizerConfig(level=2 if optimize else 0))
    first10 = _build(session, values)
    explain = first10.explain()
    session.store.flush()
    session.reset_stats()
    got = first10.values()
    return session.io_stats.snapshot(), got, explain


def test_fig2_rewrite_io(benchmark):
    stats_opt, got_opt, explain = benchmark.pedantic(
        lambda: _measure(True), rounds=1, iterations=1)
    stats_raw, got_raw, _ = _measure(False)
    record_io_stats(benchmark, stats_opt)
    benchmark.extra_info["io_unoptimized"] = stats_raw.as_dict()
    io_opt, io_raw = stats_opt.total, stats_raw.total

    print("\nFigure 2: expression DAGs for b[1:10]")
    print(explain)
    print(f"\nI/O to evaluate b[1:10] over n={N}:")
    print(f"  optimized (Figure 2(b)):   {io_opt:8d} blocks")
    print(f"  unoptimized (Figure 2(a)): {io_raw:8d} blocks")

    rng = np.random.default_rng(42)
    values = rng.uniform(0.0, 20.0, N)
    expect = np.minimum(values ** 2, 100.0)[:10]
    assert np.allclose(got_opt, expect)
    assert np.allclose(got_raw, expect)
    # The rewrite's point: selected evaluation touches a handful of
    # chunks; the unoptimized plan streams the whole vector.
    chunks = N // 1024
    assert io_opt < 32
    assert io_raw > chunks // 2
    assert io_opt * 100 < io_raw
