"""Shared helpers for the benchmark harness.

Every benchmark prints the rows/series of the paper figure it regenerates
(run ``pytest benchmarks/ --benchmark-only -s`` to see them) and asserts the
*shape* claims of the paper — who wins, by roughly what factor — not
absolute numbers, since the substrate is a simulator rather than the
authors' 2008 Solaris testbed.
"""

from __future__ import annotations

import pytest

from repro.storage import BACKENDS, IOStats, PoolStats


def record_io_stats(benchmark, stats: IOStats | None = None, *,
                    backend: str = "memory",
                    seconds: float | None = None,
                    pool: PoolStats | None = None) -> None:
    """Attach I/O counters to ``extra_info`` under the shared schema.

    Every benchmark emits ``extra_info["io"] = IOStats.as_dict()`` —
    the one JSON shape the CI artifact job validates and aggregates
    (``benchmarks/check_schema.py``).  Purely analytic benchmarks (the
    Figure-3 calculations) pass no stats and record an explicit
    all-zero IOStats rather than omitting the key.

    Schema v2 dual-reports every entry: ``backend`` names the device
    that served the blocks and ``seconds`` is the wall-clock the
    device spent in physical reads+writes (defaulting to the stats'
    own ``read_ns + write_ns``; 0.0 on the simulator, real time on the
    file backends).  ``pool`` (when the workload ran through a buffer
    pool) adds ``extra_info["pool"] = PoolStats.as_dict()`` so results
    answer "how many of those block requests even reached the device";
    analytic entries omit the section rather than faking zeros.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} "
                         f"(use one of {'|'.join(BACKENDS)})")
    stats = stats or IOStats()
    benchmark.extra_info["io"] = stats.as_dict()
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["seconds"] = (
        stats.seconds if seconds is None else float(seconds))
    if pool is not None:
        benchmark.extra_info["pool"] = pool.as_dict()


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (these workloads are deterministic and
    expensive; statistical repetition adds nothing)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)
    return runner
