"""One workload, measured: the rep loop, the counters, the metrics.

Imported by ``run.py`` only after the BLAS thread pins are in the
environment (this module imports NumPy and ``repro``).

One rep = fresh ``RiotSession`` on a fresh temporary page file, ingest
the inputs, ``store.flush()`` (all of that is ``setup_s``), then empty
the pool and the decoded-tile cache, zero the counters, and time
``force(statement)`` + ``store.flush()``.  A fresh session per rep is
required: a reused session piles intermediates up in the page file and
``wall_s`` drifts upward rep over rep.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from macro_layers import (PanelCounter, Recorder, ROOT_KEY, export_chrome,
                          summarize, tracing)
from macro_workloads import WORKLOADS, Workload, input_bytes

from repro.core import OptimizerConfig, RiotSession
from repro.storage import StorageConfig

#: ``--smoke``: sizes divided by this, and exactly SMOKE_REPS reps.
SMOKE_SHRINK = 8
SMOKE_REPS = 2
#: A timed run measures at least this many reps however slow they are.
MIN_REPS = 3


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------
def _counts(session: RiotSession, sched0, cache0, inputs_nbytes: int
            ) -> dict:
    """Every counter the metrics need, over the timed interval, keyed
    by metric name: dotted names are per-layer metrics, the rest
    end-to-end.  All of them are exact: a rep whose counts differ from
    rep 1 has failed."""
    store = session.store
    io, pool = store.device.stats, store.pool.stats
    sched = store.pool.scheduler.stats.delta(sched0)
    cache = store.tile_cache
    hits, misses = cache.hits - cache0[0], cache.misses - cache0[1]
    allocated = store.device.allocated_blocks
    return {
        "blocks_read": io.reads,
        "blocks_written": io.writes,
        "device_bytes": io.bytes_read + io.bytes_written,
        "io_calls": io.calls,
        "storage.tile_store.tile_cache_hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "storage.codecs.compression_ratio": io.compression_ratio,
        "storage.buffer_pool.hits": pool.hits,
        "storage.buffer_pool.misses": pool.misses,
        "storage.buffer_pool.hit_rate": pool.hit_rate,
        "storage.buffer_pool.evictions": pool.evictions,
        "storage.buffer_pool.dirty_writebacks": pool.dirty_writebacks,
        "storage.buffer_pool.prefetch_wasted": pool.prefetch_wasted,
        "storage.io_scheduler.hint_batches": sched.hint_batches,
        "storage.io_scheduler.hinted_blocks": sched.hinted_blocks,
        "storage.io_scheduler.coalesced_batches":
            sched.coalesced_batches,
        "storage.io_scheduler.readahead_triggers":
            sched.readahead_triggers,
        "storage.device.syscalls": io.syscalls,
        "storage.device.bytes_read": io.bytes_read,
        "storage.device.bytes_written": io.bytes_written,
        "storage.device.seq_fraction":
            (io.seq_reads + io.seq_writes) / io.total if io.total
            else 0.0,
        "storage.device.allocated_blocks": allocated,
        "storage.device.space_amp":
            allocated * store.device.block_size / inputs_nbytes,
    }


def one_rep(workload: Workload, inputs: dict, inputs_nbytes: int,
            recorder: Recorder | None = None, rep: int = 0) -> dict:
    """Run one rep; returns its timings, counts and result array.

    With a ``recorder`` the timed interval runs under the layer
    wrappers and a root span; they are installed after setup and
    removed before the result is read back, so ``setup_s`` and the
    oracle never see them.
    """
    gc.collect()
    t0 = time.perf_counter()
    session = RiotSession(
        storage=StorageConfig(sanitize=False, **workload.storage),
        config=OptimizerConfig(level=2, parallelism=1))
    try:
        store = session.store
        handles = workload.load(session, inputs)
        store.flush()
        setup_s = time.perf_counter() - t0
        store.pool.clear()
        store.tile_cache.clear()
        session.reset_stats()
        sched0 = store.pool.scheduler.stats.snapshot()
        cache0 = (store.tile_cache.hits, store.tile_cache.misses)
        panels = PanelCounter()
        out = {"setup_s": setup_s}
        if recorder is None:
            scope = root = contextlib.nullcontext()
        else:
            session.tracer.add_observer(panels)
            scope, root = tracing(recorder), recorder.rep_root(rep)
        with scope as patches:
            cpu0, t1 = time.process_time(), time.perf_counter()
            with root:
                result = workload.run(session, handles)
                store.flush()
            out["wall_s"] = time.perf_counter() - t1
            out["cpu_s"] = time.process_time() - cpu0
        out["patches"] = patches
        out["busy_s"] = store.device.stats.seconds
        out["counts"] = _counts(session, sched0, cache0, inputs_nbytes)
        out["panels"] = panels.panels
        out["value"] = result.to_numpy()
        return out
    finally:
        session.close()


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _digest(value: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(value).tobytes()).hexdigest()


def _check_oracle(workload: Workload, inputs: dict,
                  value: np.ndarray) -> str | None:
    """None when ``value`` matches the NumPy oracle, else why not."""
    ref = workload.oracle(inputs)
    got = value.reshape(ref.shape)
    if workload.rtol == 0.0:
        if np.array_equal(got, ref):
            return None
        return (f"oracle: {int(np.sum(got != ref))} of {ref.size} "
                "elements differ (exact match required)")
    err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if err <= workload.rtol:  # a NaN error fails this test too
        return None
    return f"oracle: relative error {err:.3e} > {workload.rtol:.0e}"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(spans: list[list], traced: list[dict],
                   untraced: list[dict]) -> dict[str, float]:
    """The per-layer metrics: self times and call counts as the median
    over the traced reps, counters from the first traced rep (they
    repeat exactly, and the rep loop has already failed any that do
    not)."""
    reps = [r for _, r in sorted(summarize(spans).items())]

    def seconds(layer: str, part: str) -> float:
        return _median([r["self_s"].get((layer, part), 0.0)
                        for r in reps])

    def calls(layer: str, part: str) -> int:
        return reps[0]["calls"].get((layer, part), 0) if reps else 0

    def counter(name: str) -> float:
        return reps[0]["counters"].get(name, 0) if reps else 0

    counts = traced[0]["counts"] if traced else {}
    m: dict[str, float] = {
        name: value for name, value in counts.items() if "." in name}
    blocks = counts.get("blocks_read", 0) + counts.get(
        "blocks_written", 0)
    predicted = counter("core.optimizer.predicted_blocks")
    m["core.optimizer.plan_s"] = seconds("core.optimizer", "plan")
    m["core.optimizer.plan_ops"] = counter("core.optimizer.plan_ops")
    m["core.optimizer.predicted_blocks"] = predicted
    m["core.optimizer.pred_ratio"] = \
        blocks / predicted if predicted else 0.0
    m["core.evaluator.self_s"] = seconds("core.evaluator", "self")
    m["core.evaluator.ops"] = counter("core.evaluator.ops")
    m["linalg.self_s"] = seconds("linalg", "self")
    m["linalg.calls"] = calls("linalg", "self")
    m["linalg.panels"] = traced[0]["panels"] if traced else 0
    m["linalg.flops"] = counter("linalg.flops")
    m["linalg.gflops_s"] = (m["linalg.flops"] / m["linalg.self_s"] / 1e9
                            if m["linalg.self_s"] else 0.0)
    m["sparse.self_s"] = seconds("sparse", "self")
    m["sparse.store_s"] = seconds("sparse", "store")
    m["sparse.calls"] = calls("sparse", "self")
    m["sparse.tile_reads"] = (
        reps[0]["names"].get("sparse:read_tile_csr", 0) if reps else 0)
    m["sparse.nnz_out"] = counter("sparse.nnz_out")
    for part in ("read", "write"):
        m[f"storage.tile_store.{part}_s"] = \
            seconds("storage.tile_store", part)
        m[f"storage.tile_store.{part}_calls"] = \
            calls("storage.tile_store", part)
    m["storage.tile_store.bytes_logical"] = \
        counter("storage.tile_store.bytes_logical")
    for part in ("encode", "decode"):
        m[f"storage.codecs.{part}_s"] = seconds("storage.codecs", part)
        m[f"storage.codecs.{part}_calls"] = \
            calls("storage.codecs", part)
    for layer in ("storage.buffer_pool", "storage.io_scheduler",
                  "storage.device"):
        m[f"{layer}.self_s"] = seconds(layer, "self")
    m["storage.buffer_pool.calls"] = calls("storage.buffer_pool", "self")
    m["storage.device.busy_s"] = _median([r["busy_s"] for r in traced])
    m["process.cpu_s"] = _median([r["cpu_s"] for r in untraced])
    m["process.unattributed_share"] = _median(
        [r["self_s"].get(ROOT_KEY, 0.0) / r["wall_s"]
         for r in reps if r["wall_s"]])
    base = _median([r["wall_s"] for r in untraced])
    m["process.trace_overhead"] = \
        _median([r["wall_s"] for r in traced]) / base if base else 0.0
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, trace_out: str | None = None,
                 scratch: str | None = None) -> dict:
    """Measure one workload for ``seconds`` (or SMOKE_REPS reps).

    Untraced (``trace=False``) every rep is timed with no wrapper
    installed and the record carries the end-to-end metrics.  Traced,
    reps alternate untraced / traced so that ``process.trace_overhead``
    compares like with like inside one process, and the record carries
    the per-layer metrics.  The first rep of each kind is warm-up and
    discarded.
    """
    workload = WORKLOADS[name]
    inputs = workload.generate(np.random.default_rng(seed),
                               SMOKE_SHRINK if smoke else 1)
    nbytes = input_bytes(inputs)
    recorder = Recorder() if trace else None
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    errors: list[str] = []
    attempted = 0

    def attempt(wl: Workload, traced: bool) -> dict | None:
        index = sum(1 for r in reps if r["traced"])
        try:
            rep = one_rep(wl, inputs, nbytes,
                          recorder if traced else None, index)
        except Exception:
            errors.append(traceback.format_exc(limit=8))
            return None
        rep["traced"] = traced
        rep["digest"] = _digest(rep["value"])
        return rep

    prev_tmp = tempfile.tempdir
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        # Page files of `path=None` sessions land here (mkstemp).
        tempfile.tempdir = tmp
        try:
            for traced in kinds:
                attempt(workload, traced)
            if recorder is not None:
                recorder.spans.clear()
            started = time.perf_counter()
            while True:
                rep = attempt(workload, kinds[attempted % len(kinds)])
                attempted += 1
                if rep is not None:
                    if reps:
                        del rep["value"]  # rep 1's is the one checked
                    reps.append(rep)
                if smoke:
                    if attempted >= SMOKE_REPS * len(kinds):
                        break
                elif (attempted >= MIN_REPS * len(kinds)
                      and time.perf_counter() - started >= seconds):
                    break
            # Sampled before the oracle allocates its reference.
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            twin = None
            if workload.same_bits_as:
                twin = attempt(WORKLOADS[workload.same_bits_as], False)
        finally:
            tempfile.tempdir = prev_tmp

    # Failure accounting: a rep fails when it raised, when its bits or
    # counters differ from rep 1, or when rep 1's result — and so every
    # rep with the same digest — misses the oracle.
    failed = attempted - len(reps)
    if reps:
        first = reps[0]
        why = _check_oracle(workload, inputs, first["value"])
        if why is None and workload.same_bits_as and (
                twin is None or twin["digest"] != first["digest"]):
            why = (f"result bits differ from {workload.same_bits_as}: "
                   "the codec is not lossless")
        drifted = [r for r in reps if r["digest"] != first["digest"]
                   or r["counts"] != first["counts"]]
        if why is not None:
            errors.append(why)
            failed += len(reps)
        else:
            failed += len(drifted)
        if drifted:
            errors.append(f"{len(drifted)} rep(s) differ from rep 1 in "
                          "result bits or counters")

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if trace:
        metrics = _layer_metrics(recorder.spans, traced_reps, untraced)
        if trace_out:
            export_chrome(recorder.spans, trace_out,
                          {"workload": name, "seed": seed})
    else:
        counts = reps[0]["counts"] if reps else {}
        metrics = {
            "wall_s": _median([r["wall_s"] for r in untraced]),
            "setup_s": _median([r["setup_s"] for r in untraced]),
            "peak_rss_mib": peak_rss_mib,
            **{k: v for k, v in counts.items() if "." not in k}}
    patches = traced_reps[-1]["patches"] if traced_reps else []
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "samples": {"wall_s": [r["wall_s"] for r in untraced],
                    "setup_s": [r["setup_s"] for r in untraced]},
        "digest": reps[0]["digest"] if reps else None,
        "errors": errors,
        "patched": len(patches),
        "restored": all(site.__dict__[attr] is original
                        for site, attr, original in patches),
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    best, fs = "", "unknown"
    with contextlib.suppress(OSError, ValueError), \
            open("/proc/mounts") as fh:
        for line in fh:
            _dev, mount, kind = line.split()[:3]
            if (os.path.commonpath([path, mount]) == mount
                    and len(mount) >= len(best)):
                best, fs = mount, kind
    return fs


def provenance(root: Path, scratch: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, text=True,
            capture_output=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "zstandard": importlib.util.find_spec("zstandard") is not None,
        "threadpoolctl":
            importlib.util.find_spec("threadpoolctl") is not None,
        "tmpdir": scratch,
        "tmpdir_fs": _fs_type(os.path.realpath(scratch)),
        "block_size": StorageConfig().block_size,
    }
