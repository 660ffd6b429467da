"""Parallelism: BLAS threads are the engine's only parallelism.

Every kernel runs on the calling thread; the one knob is the BLAS
library's own thread count (``OPENBLAS_NUM_THREADS``).  The contract
under test: results are bitwise fixed for a fixed BLAS thread count,
and on the workload shapes below — hint-free OLS out of core, the
fused chain, ``spgemm`` then ``spmm``, Example 1's vector stream and a
crossprod with a side product — they are also the same at one and two
BLAS threads, at levels 0 and 2, as are the simulated block counts, in
total and per operator.  Not every product keeps its bits across
thread counts: OpenBLAS splits some shapes' work by thread count (a
thin ``(1000 x 3000) %*% (3000 x 7)`` in a pool that holds both
operands is one), so only these shapes are pinned.  Beside that,
``OptimizerConfig.parallelism`` accepts only 1, and
``explain(analyze=True)`` runs the plan once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import OptimizerConfig, RiotSession
from repro.storage import StorageConfig

#: Runs every case at levels 0 and 2 and prints, per case, the result
#: digest, the device counts of a cold execution and each operator's
#: measured blocks.  Each case builds its inputs from its own seed.
_PROBE = r'''
import hashlib, json, sys
import numpy as np
from repro.core import (ArrayInput, OptimizerConfig, RiotMatrix,
                        RiotSession)
from repro.storage import StorageConfig

MIB = 1 << 20
FIELDS = ("reads", "writes", "read_calls", "write_calls", "prefetched")


def ints(g, shape):
    return g.integers(-8, 9, size=shape).astype(np.float64)


def ols(s, g):
    x = s.matrix(ints(g, (4096, 128)), name="X")
    y = s.matrix(ints(g, (4096, 1)), name="y")
    return s.solve(x.T @ x, x.T @ y)


def fused_chain(s, g):
    a, b, c = (s.matrix(g.standard_normal(shape)) for shape in
               ((512, 128), (128, 512), (512, 512)))
    return ((a @ b) @ c).abs().sqrt() + 1.0


def chain(s, g):
    a, b, c = (s.matrix(g.standard_normal(shape)) for shape in
               ((160, 64), (64, 128), (128, 72)))
    return a @ b @ c


def products_sum(s, g):
    a, b, c, d = (s.matrix(g.standard_normal(shape)) for shape in
                  ((96, 64), (64, 80), (96, 48), (48, 80)))
    return a @ b + c @ d


def sparse(s, g):
    n, nnz = 512, 1300

    def pattern():
        flat = g.choice(n * n, size=nnz, replace=False)
        return s.sparse_matrix(flat // n, flat % n,
                               g.standard_normal(nnz), (n, n))
    a, b = pattern(), pattern()
    v = s.matrix(g.standard_normal((n, 16)))
    product = RiotMatrix(s, ArrayInput(s.force(a @ b), name="G"))
    return product @ v


def vector(s, g):
    x = s.vector(g.uniform(0.0, 100.0, 200_000))
    y = s.vector(g.uniform(0.0, 100.0, 200_000))
    return (((x - 10.0) ** 2 + (y - 20.0) ** 2).sqrt()
            + ((x - 90.0) ** 2 + (y - 80.0) ** 2).sqrt())


def side(s, g):
    x = s.matrix(g.standard_normal((1000, 96)))
    b = s.matrix(g.standard_normal((1000, 7)))
    p = x.T @ b
    return x.T @ x + p @ p.T


CASES = {
    "ols": (ols, "memory", 2 * MIB),
    "fused_chain": (fused_chain, "memory", 64 * MIB),
    "chain_memory": (chain, "memory", 24 * 8192),
    "chain_pread": (chain, "pread", 24 * 8192),
    "products_sum": (products_sum, "memory", 96 * 8192),
    "sparse": (sparse, "pread", 1 * MIB),
    "vector": (vector, "memory", 2 * MIB),
    "side": (side, "memory", 2 * MIB),
}

out = {}
for seed, (name, (build, backend, mem)) in enumerate(CASES.items()):
    for level in (0, 2):
        with RiotSession(storage=StorageConfig(backend=backend,
                                               memory_bytes=mem),
                         config=OptimizerConfig(level=level)) as s:
            expr = build(s, np.random.default_rng(seed))
            s.store.flush()
            s.reset_stats()
            plan = s.plan(expr)
            values = s.evaluator.execute(plan, cold=True).to_numpy()
            out[f"{name}/{level}"] = {
                "digest": hashlib.sha256(values.tobytes()).hexdigest(),
                "counts": [getattr(s.io_stats, f) for f in FIELDS],
                "ops": [[op.label(), op.measured_io]
                        for op in plan.ops()],
            }
json.dump(out, sys.stdout)
'''


def _probe(threads: int) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.Popen([sys.executable, "-c", _PROBE], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every case at one and two BLAS threads, both probes at once."""
    probes = {threads: _probe(threads) for threads in (1, 2)}
    out = {}
    for threads, proc in probes.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        out[threads] = json.loads(stdout)
    return out


def assert_same_bits(runs: dict, case: str) -> None:
    for level in (0, 2):
        key = f"{case}/{level}"
        assert runs[1][key]["digest"] == runs[2][key]["digest"], key


class TestBitwiseIdentity:
    """The same result bits at one and two BLAS threads."""

    def test_ols(self, runs):
        assert_same_bits(runs, "ols")

    def test_chain_matmul(self, runs):
        assert_same_bits(runs, "fused_chain")

    def test_independent_products_sum(self, runs):
        assert_same_bits(runs, "products_sum")

    def test_sparse_spmm(self, runs):
        assert_same_bits(runs, "sparse")

    def test_vector_stream(self, runs):
        assert_same_bits(runs, "vector")

    def test_crossprod_side_product(self, runs):
        assert_same_bits(runs, "side")


class TestDeterministicCounts:
    @pytest.mark.parametrize("backend", ["memory", "pread"])
    def test_chain_block_counts_identical(self, runs, backend):
        """A sequentially dependent chain gives the same bits, device
        counts and per-operator blocks at one and two BLAS threads, on
        the simulator and on a real page file."""
        for level in (0, 2):
            key = f"chain_{backend}/{level}"
            assert runs[1][key] == runs[2][key]
            assert runs[1][key]["counts"][0] > 0


_IO_FIELDS = ("reads", "writes", "read_calls", "write_calls",
              "bytes_read", "bytes_written")


def make_session(mem_scalars: int = 96 * 1024):
    return RiotSession(storage=StorageConfig(memory_bytes=mem_scalars * 8,
                                             block_size=8192))


class TestScheduleAndExplain:
    def test_per_op_measurements_identical(self, runs):
        """Every operator of every case measures the same blocks at
        one and two BLAS threads."""
        assert runs[1].keys() == runs[2].keys()
        for key, run in runs[1].items():
            assert all(io is not None for _, io in run["ops"]), key
            assert run["ops"] == runs[2][key]["ops"], key
            assert run["counts"] == runs[2][key]["counts"], key

    def test_serial_explain_has_no_schedule(self, rng):
        s = make_session()
        try:
            a = s.matrix(rng.standard_normal((64, 64)))
            text = s.explain(a @ a, analyze=True)
        finally:
            s.close()
        assert "-- analyze" in text
        assert "schedule" not in text

    def test_explain_analyze_executes_once(self, rng):
        s = make_session(mem_scalars=24 * 1024)
        try:
            a = s.matrix(rng.standard_normal((96, 64)), name="A")
            b = s.matrix(rng.standard_normal((64, 80)), name="B")
            expr = a @ b
            plan = s.plan(expr.node)

            def delta(run):
                s.store.pool.clear()
                before = s.io_stats.snapshot()
                run()
                after = s.io_stats.delta(before)
                return {f: getattr(after, f) for f in _IO_FIELDS}

            explained = delta(lambda: s.explain(expr, analyze=True))
            executed = delta(lambda: s.evaluator.execute(plan, cold=True))
        finally:
            s.close()
        assert executed["reads"] > 0
        assert explained == executed


class TestResolveParallelism:
    """``OptimizerConfig.parallelism`` resolves to one value, 1: BLAS
    threads are set outside the engine."""

    def test_default_is_serial(self):
        assert OptimizerConfig().parallelism == 1

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="OPENBLAS_NUM_THREADS"):
            OptimizerConfig(parallelism=0)

    def test_config_validation(self):
        assert OptimizerConfig(level=2, parallelism=1).parallelism == 1
        for value in (2, None):
            with pytest.raises(ValueError, match="OPENBLAS_NUM_THREADS"):
                OptimizerConfig(parallelism=value)
