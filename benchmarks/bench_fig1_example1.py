"""Figure 1: Example 1 on the four engines (plus next-gen RIOT).

Regenerates both panels of the paper's Figure 1 for n in {2^21, 2^22, 2^23}
under the 68 MB data-memory cap (the paper's 84 MB minus R runtime
overhead):

- (a) Disk I/O in MB (simulated-device counters standing in for DTrace),
- (b) computation time in seconds (deterministic SimClock model).

Shape assertions encode the paper's findings:

- the strawman's I/O exceeds even thrashing plain R's,
- MatNamed "nets significant gains over R" at the larger sizes,
- full RIOT-DB "outperforms plain R by orders of magnitude",
- strawman degrades ~linearly while plain R blows up past the cap.
"""

from __future__ import annotations

import dataclasses

import pytest
from conftest import record_io_stats

from repro.engines import ALL_ENGINES
from repro.storage import IOStats
from repro.workloads import run_example1

#: The paper's vector sizes.
SIZES = [2 ** 21, 2 ** 22, 2 ** 23]

#: 84 MB cap minus ~16 MB R-runtime overhead.
MEMORY_BYTES = 68 * 1024 * 1024

ENGINE_ORDER = ["plain", "strawman", "matnamed", "riotdb", "riotng"]

_results: dict[tuple[str, int], object] = {}


def _run(engine_name: str, n: int):
    key = (engine_name, n)
    if key not in _results:
        engine = ALL_ENGINES[engine_name](memory_bytes=MEMORY_BYTES)
        # Cache the numbers, not the run's variables: they keep the
        # engine's vectors and in-memory device alive, and fifteen
        # cached devices starve the later, larger runs.
        _results[key] = dataclasses.replace(run_example1(engine, n),
                                            env={})
    return _results[key]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine_name", ENGINE_ORDER)
def test_fig1_run(benchmark, engine_name, n):
    """Time one (engine, n) cell and record its metrics."""
    result = benchmark.pedantic(_run, args=(engine_name, n),
                                rounds=1, iterations=1)
    record_io_stats(benchmark, result.io)
    benchmark.extra_info["io_mb"] = round(result.io_mb, 2)
    benchmark.extra_info["sim_seconds"] = round(result.sim_seconds, 2)


def test_fig1_tables_and_shape(benchmark):
    """Print both Figure-1 panels and assert the paper's orderings."""
    benchmark.pedantic(
        lambda: [_run(name, n) for n in SIZES for name in ENGINE_ORDER],
        rounds=1, iterations=1)
    merged = IOStats()
    for n in SIZES:
        for name in ENGINE_ORDER:
            merged = merged.merged(_run(name, n).io)
    record_io_stats(benchmark, merged)

    print("\nFigure 1(a): Disk I/O (MB) for Example 1")
    header = f"{'engine':22s}" + "".join(
        f"  n=2^{int(n).bit_length() - 1:<4d}" for n in SIZES)
    print(header)
    for name in ENGINE_ORDER:
        row = f"{_run(name, SIZES[0]).engine:22s}"
        for n in SIZES:
            row += f"  {_run(name, n).io_mb:8.1f}"
        print(row)

    print("\nFigure 1(b): Computation time (simulated seconds)")
    print(header)
    for name in ENGINE_ORDER:
        row = f"{_run(name, SIZES[0]).engine:22s}"
        for n in SIZES:
            row += f"  {_run(name, n).sim_seconds:8.1f}"
        print(row)

    # --- the paper's claims, as assertions -----------------------------
    for n in SIZES:
        io = {name: _run(name, n).io_mb for name in ENGINE_ORDER}
        t = {name: _run(name, n).sim_seconds for name in ENGINE_ORDER}
        # Strawman writes every intermediate: worst I/O of all variants.
        assert io["strawman"] > io["plain"]
        assert io["strawman"] > io["matnamed"] > io["riotdb"]
        # Full RIOT-DB is orders of magnitude better than plain R.
        assert io["riotdb"] * 4 < io["plain"]
        assert t["riotdb"] * 4 < t["plain"]
        # Next-gen RIOT at least matches RIOT-DB.
        assert io["riotng"] <= io["riotdb"] * 1.2

    # All engines print identical answers (transparency!).
    for n in SIZES:
        outputs = {name: _run(name, n).output[0]
                   for name in ENGINE_ORDER}
        assert len(set(outputs.values())) == 1, outputs

    # Plain R degrades much faster than the strawman past the cap
    # ("performance of RIOT-DB/Strawman degrades linearly ... much more
    # gracefully than plain R").
    plain_growth = (_run("plain", SIZES[-1]).io_mb
                    / max(_run("plain", SIZES[0]).io_mb, 1e-9))
    straw_growth = (_run("strawman", SIZES[-1]).io_mb
                    / _run("strawman", SIZES[0]).io_mb)
    assert straw_growth < 1.5 * (SIZES[-1] / SIZES[0])
    assert plain_growth > straw_growth
