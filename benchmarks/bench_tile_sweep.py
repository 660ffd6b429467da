"""The default dense tile side, swept: 32 / 64 / 128 / 256 on the dense
macro workloads.

``repro.storage.tile_store.default_tile_side`` picks the square tile a
store gives a matrix nobody laid out by hand: four times the one-page
side where sixteen such tiles fit the pool and the shape is not padded
by more than an eighth, the one-page side otherwise.  This sweep is
where those choices come from and what guards them.  For every dense
workload of the macro benchmark (``benchmarks/macro``, imported
read-only: same inputs, same statements, same oracles, same rep
protocol) it runs the unpatched default and then a *flat* default of
each side — the side function answering ``side`` whatever the pool
and the shape — and prints, per point: blocks read / written,
``io_calls``, ``device_bytes``, ``linalg.gflops_s``, ``wall_s``,
``setup_s`` and whether the run was feasible at all.

``io_calls`` is in the table on purpose.  A compressed tile is one
device call however few pages its payload fills, and coalescing stops
at every tile boundary, so a 64-side default moves a quarter of the
bytes of the 32-side one on ``ols_zstd`` in *more* calls than it; a
default picked from bytes alone would have been 64.

Every macro dimension is a multiple of 128, so a second table holds
what those workloads cannot show: raw matrices of ``UNALIGNED`` sides,
ingested, scanned and sliced one row at a time under each flat side.
A raw tile moves whole, padding included, which is what the shape rule
of the default bounds.

The flat default is patched in from outside, at every module that
bound the function, the way ``macro/macro_layers.py`` installs its
wrappers: there is no switch for it in ``src/``.

Run it as a script for the full-size table (about three minutes)::

    python benchmarks/bench_tile_sweep.py [--seed N] [--reps N]

or through pytest, as the CI smoke loop does (``RIOT_BENCH_FAST=1``
divides the sizes by 8 and takes one rep per point).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if "numpy" not in sys.modules:
    # As a script: pin BLAS before NumPy loads, as macro/run.py does.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
for _path in (str(HERE.parent / "src"), str(HERE / "macro"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402
from macro_layers import Recorder, summarize, tracing  # noqa: E402
from macro_workloads import WORKLOADS, Workload  # noqa: E402

from repro.core import OptimizerConfig, RiotSession  # noqa: E402
from repro.storage import (ArrayStore, IOStats, StorageConfig,  # noqa: E402
                           tile_store)

FAST = bool(os.environ.get("RIOT_BENCH_FAST"))

#: Sides at B = 1024 scalars per block: 1, 4, 16 and 64 pages a tile.
SIDES = (32, 64, 128, 256)
#: The workloads that store dense matrices; the other two
#: (``sparse_chain``, ``vector_stream``) must not move at all and are
#: held to that by the macro benchmark itself.
DENSE = ("ols_pread", "ols_zstd", "chain_mmap")
#: Square matrices no side but 1 divides evenly — and one (1000) that
#: every side pads to the same 1024.
UNALIGNED = (129, 200, 1000)


@contextlib.contextmanager
def flat_default(side: int):
    """Make ``default_tile_side`` answer ``side`` (scaled to the block:
    ``side / 32`` one-page sides) for every pool, at every use site."""
    original = tile_store.default_tile_side

    def flat(scalars_per_block: int, pool_blocks: int | None = None,
             shape: tuple[int, int] | None = None):
        one_page = original(scalars_per_block)
        return one_page if pool_blocks is None else one_page * side // 32

    sites = [mod for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "repro" and mod is not None
             and mod.__dict__.get("default_tile_side") is original]
    for mod in sites:
        mod.default_tile_side = flat
    try:
        yield
    finally:
        for mod in sites:
            mod.default_tile_side = original


def one_rep(workload: Workload, inputs: dict, traced: bool) -> dict:
    """One rep under the macro benchmark's protocol: fresh session,
    ingest + flush (``setup_s``), cold pool and tile cache, zeroed
    counters, then the timed ``force`` + flush."""
    t0 = time.perf_counter()
    session = RiotSession(
        storage=StorageConfig(sanitize=False, **workload.storage),
        config=OptimizerConfig(level=2))
    try:
        store = session.store
        handles = workload.load(session, inputs)
        store.flush()
        setup_s = time.perf_counter() - t0
        store.pool.clear()
        store.tile_cache.clear()
        session.reset_stats()
        recorder = Recorder()
        with contextlib.ExitStack() as scope:
            if traced:
                scope.enter_context(tracing(recorder))
                scope.enter_context(recorder.rep_root(0))
            t1 = time.perf_counter()
            result = workload.run(session, handles)
            store.flush()
            wall_s = time.perf_counter() - t1
        gflops = 0.0
        if traced:
            rep = summarize(recorder.spans)[0]
            busy = rep["self_s"].get(("linalg", "self"), 0.0)
            if busy:
                gflops = rep["counters"].get("linalg.flops", 0) \
                    / busy / 1e9
        return {"setup_s": setup_s, "wall_s": wall_s, "gflops": gflops,
                "io": store.device.stats.snapshot(),
                "value": result.to_numpy()}
    finally:
        session.close()


def measure(name: str, inputs: dict, reps: int) -> dict:
    """One point of the sweep: ``reps`` untraced reps after a warm-up
    for the timings, one traced rep for ``linalg.gflops_s``, counters
    from the first rep; infeasible when anything raises or the result
    misses the NumPy oracle."""
    workload = WORKLOADS[name]
    try:
        one_rep(workload, inputs, traced=False)        # warm-up
        runs = [one_rep(workload, inputs, traced=False)
                for _ in range(reps)]
        traced = one_rep(workload, inputs, traced=True)
    except Exception as exc:   # whatever it is, the point is infeasible
        return {"feasible": False, "why": f"{type(exc).__name__}: {exc}"}
    ref = workload.oracle(inputs)
    got = runs[0]["value"].reshape(ref.shape)
    err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if not err <= workload.rtol:
        return {"feasible": False, "why": f"oracle: error {err:.3e}"}
    io = runs[0]["io"]
    if any(run["io"].reads != io.reads or run["io"].writes != io.writes
           or run["io"].calls != io.calls for run in runs + [traced]):
        return {"feasible": False, "why": "counts differ between reps"}
    return {"feasible": True, "io": io, "gflops": traced["gflops"],
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs)}


def sweep(seed: int = 0, reps: int = 5, shrink: int = 1) -> dict:
    """``{(side, workload): point}`` with side ``"default"`` for the
    unpatched function."""
    rows: dict[tuple, dict] = {}
    for name in DENSE:
        inputs = WORKLOADS[name].generate(
            np.random.default_rng(seed), shrink)
        rows["default", name] = measure(name, inputs, reps)
        for side in SIDES:
            with flat_default(side):
                rows[side, name] = measure(name, inputs, reps)
    return rows


def unaligned_point(n: int) -> dict:
    """Blocks an ``n x n`` raw matrix costs under the current default
    in the OLS workloads' 2 MiB ``pread`` pool: written by the ingest,
    read by a cold scan, read by a cold one-row slice."""
    data = np.random.default_rng(n).standard_normal((n, n))
    with ArrayStore(storage=StorageConfig(
            backend="pread", memory_bytes=256 * 8192)) as store:
        mat = store.matrix_from_numpy(data)
        store.flush()
        point = {"tile": mat.tile_shape[0],
                 "written": store.device.stats.writes}
        for name, rect in (("scan", (0, n, 0, n)), ("row", (0, 1, 0, n))):
            store.pool.clear()
            store.reset_stats()
            r0, r1, c0, c1 = rect
            got = mat.read_submatrix(r0, r1, c0, c1)
            assert np.array_equal(got, data[r0:r1, c0:c1])
            point[name] = store.device.stats.reads
            point[name + "_calls"] = store.device.stats.read_calls
    return point


def unaligned_sweep() -> dict:
    """``{(side, n): point}``, side ``"default"`` unpatched."""
    rows: dict[tuple, dict] = {}
    for n in UNALIGNED:
        rows["default", n] = unaligned_point(n)
        for side in SIDES:
            with flat_default(side):
                rows[side, n] = unaligned_point(n)
    return rows


def render_unaligned(rows: dict) -> str:
    lines = [f"{'n':<11}{'side':>8}{'tile':>6}{'written':>9}{'scan':>8}"
             f"{'scan_calls':>12}{'row':>6}{'row_calls':>11}"]
    for n in UNALIGNED:
        for side in ("default",) + SIDES:
            row = rows[side, n]
            lines.append(
                f"{n:<11}{side!s:>8}{row['tile']:>6}{row['written']:>9}"
                f"{row['scan']:>8}{row['scan_calls']:>12}{row['row']:>6}"
                f"{row['row_calls']:>11}")
    return "\n".join(lines)


def render(rows: dict) -> str:
    lines = [f"{'workload':<11}{'side':>8}{'read':>8}{'written':>9}"
             f"{'io_calls':>10}{'device_bytes':>14}{'GF/s':>7}"
             f"{'wall_s':>9}{'setup_s':>9}"]
    for name in DENSE:
        for side in ("default",) + SIDES:
            row = rows[side, name]
            head = f"{name:<11}{side!s:>8}"
            if not row["feasible"]:
                lines.append(f"{head}  infeasible: {row['why'][:60]}")
                continue
            io = row["io"]
            lines.append(
                f"{head}{io.reads:>8}{io.writes:>9}{io.calls:>10}"
                f"{io.bytes_read + io.bytes_written:>14}"
                f"{row['gflops']:>7.1f}{row['wall_s']:>9.3f}"
                f"{row['setup_s']:>9.3f}")
    return "\n".join(lines)


def test_tile_sweep(benchmark):
    from conftest import record_io_stats

    rows = benchmark.pedantic(
        sweep, kwargs=dict(reps=1 if FAST else 3,
                           shrink=8 if FAST else 1),
        rounds=1, iterations=1)
    print("\n" + render(rows))
    merged = IOStats()
    for name in DENSE:
        chosen, flat = rows["default", name], rows[128, name]
        assert chosen["feasible"], chosen
        merged = merged.merged(chosen["io"])
        # Every dense workload runs in a pool of >= 256 blocks, where
        # the default is the 128-side point of the sweep.
        assert flat["feasible"] and chosen["io"].reads == flat["io"].reads
        assert chosen["io"].writes == flat["io"].writes
        assert chosen["io"].calls == flat["io"].calls
    record_io_stats(benchmark, merged, backend="pread")
    benchmark.extra_info["sweep"] = {
        f"{name}@{side}": (
            {"blocks_read": row["io"].reads,
             "blocks_written": row["io"].writes,
             "io_calls": row["io"].calls,
             "device_bytes": row["io"].bytes_read
             + row["io"].bytes_written,
             "linalg.gflops_s": row["gflops"],
             "wall_s": row["wall_s"], "setup_s": row["setup_s"]}
            if row["feasible"] else {"infeasible": row["why"]})
        for (side, name), row in rows.items()}
    if not FAST:
        zstd = {side: rows[side, "ols_zstd"] for side in SIDES}
        # The trap the default must not fall into: fewer bytes, more
        # calls.
        assert (zstd[64]["io"].bytes_read < zstd[32]["io"].bytes_read
                and zstd[64]["io"].calls > zstd[128]["io"].calls)


def test_unaligned_shapes():
    """The default never pads a raw matrix by more than an eighth over
    the one-page layout: the large tile where the shape fits it, the
    one-page tile where a flat 128 would cost 2.6x (129) or 1.3x (200)
    the blocks."""
    rows = unaligned_sweep()
    print("\n" + render_unaligned(rows))
    for n, side in zip(UNALIGNED, (32, 32, 128)):
        chosen = rows["default", n]
        assert chosen == rows[side, n]
        for key in ("written", "scan"):
            assert 8 * chosen[key] <= 9 * rows[32, n][key]
    assert rows[128, 129]["scan"] == 64 and rows[32, 129]["scan"] == 25


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes divided by 8 (what CI runs)")
    args = parser.parse_args(argv)
    rows = sweep(args.seed, args.reps, 8 if args.smoke else 1)
    print(render(rows))
    print()
    print(render_unaligned(unaligned_sweep()))
    return 0 if all(rows["default", name]["feasible"]
                    for name in DENSE) else 1


if __name__ == "__main__":
    sys.exit(main())
