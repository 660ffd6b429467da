"""Parallel plan execution: determinism, scheduling, and knobs.

The contract under test (see ``repro.core.parallel``): results are
bitwise-identical at every parallelism level, simulated block counts
for dependency chains are identical at every worker count, and
``explain(analyze=True)`` renders the measured schedule.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import spmm_panels
from repro.core.parallel import (MAX_WORKERS, PARALLELISM_ENV,
                                 TileParallelism, resolve_parallelism)
from repro.sparse import kernels
from repro.storage import StorageConfig


def make_session(workers: int, mem_scalars: int = 96 * 1024):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_scalars * 8,
                              block_size=8192),
        config=OptimizerConfig(parallelism=workers))


def _values_at(workers: int, build, mem_scalars: int = 96 * 1024):
    session = make_session(workers, mem_scalars)
    try:
        return build(session).values()
    finally:
        session.close()


class TestBitwiseIdentity:
    def test_independent_products_sum(self, rng):
        a = rng.standard_normal((96, 64))
        b = rng.standard_normal((64, 80))
        c = rng.standard_normal((96, 48))
        d = rng.standard_normal((48, 80))

        def build(s):
            return (s.matrix(a) @ s.matrix(b)
                    + s.matrix(c) @ s.matrix(d))

        ref = _values_at(1, build)
        for workers in (2, 8):
            got = _values_at(workers, build)
            assert got.tobytes() == ref.tobytes()

    def test_chain_matmul(self, rng):
        a = rng.standard_normal((120, 40))
        b = rng.standard_normal((40, 96))
        c = rng.standard_normal((96, 56))

        def build(s):
            return s.matrix(a) @ s.matrix(b) @ s.matrix(c)

        ref = _values_at(1, build)
        for workers in (2, 8):
            assert _values_at(workers, build).tobytes() == ref.tobytes()

    def test_sparse_spmm(self, rng):
        """Tall enough for two row panels of four block rows: the
        products of several accumulators share one worker stream, and
        each accumulator must still fold its own in ascending tj."""
        m, l, nnz = 1024, 512, 6000
        flat = rng.choice(m * l, size=nnz, replace=False)
        dense = rng.standard_normal((l, 128))
        geometries = []

        def spying_panels(*args):
            geometries.append(spmm_panels(*args))
            return geometries[-1]

        def build(s):
            A = s.sparse_matrix(flat // l, flat % l,
                                np.arange(1.0, nnz + 1.0), (m, l))
            return A @ s.matrix(dense)

        with mock.patch.object(kernels, "spmm_panels", spying_panels):
            ref = _values_at(1, build)
            for workers in (2, 4):
                assert _values_at(workers, build).tobytes() == ref.tobytes()
        assert geometries == [(128, 4)] * 3
        product = np.zeros((m, l))
        product[flat // l, flat % l] = np.arange(1.0, nnz + 1.0)
        assert np.allclose(ref, product @ dense)


@settings(max_examples=10, deadline=None)
@given(m=st.integers(min_value=8, max_value=96),
       k=st.integers(min_value=8, max_value=96),
       n=st.integers(min_value=8, max_value=96),
       seed=st.integers(min_value=0, max_value=2**16))
def test_property_ragged_dags_bitwise_identical(m, k, n, seed):
    """Random ragged-grid DAGs evaluate bitwise-identically at
    parallelism 1, 2 and 8 — the determinism contract, end to end."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))

    def build(s):
        return s.matrix(a) @ s.matrix(b) + s.matrix(c) * 2.0

    ref = _values_at(1, build, mem_scalars=48 * 1024)
    for workers in (2, 8):
        got = _values_at(workers, build, mem_scalars=48 * 1024)
        assert got.tobytes() == ref.tobytes()


_COUNT_FIELDS = ("seq_reads", "rand_reads", "seq_writes", "rand_writes",
                 "read_calls", "write_calls", "coalesced_ios",
                 "prefetched")


class TestDeterministicCounts:
    def test_chain_block_counts_identical(self, rng):
        """Sequentially-dependent plans produce identical simulated
        block counts at every worker count (ns fields excluded — they
        are wall-clock, not simulation)."""
        a = rng.standard_normal((160, 64))
        b = rng.standard_normal((64, 128))
        c = rng.standard_normal((128, 72))
        counts = {}
        for workers in (1, 2, 8):
            s = make_session(workers, mem_scalars=24 * 1024)
            try:
                expr = s.matrix(a) @ s.matrix(b) @ s.matrix(c)
                s.store.flush()
                s.reset_stats()
                expr.force()
                io = s.io_stats
                counts[workers] = {f: getattr(io, f)
                                   for f in _COUNT_FIELDS}
            finally:
                s.close()
        assert counts[2] == counts[1]
        assert counts[8] == counts[1]


class TestScheduleAndExplain:
    def test_explain_analyze_renders_schedule(self, rng):
        s = make_session(2)
        try:
            a = s.matrix(rng.standard_normal((96, 64)), name="A")
            b = s.matrix(rng.standard_normal((64, 80)), name="B")
            text = s.explain(a @ b, analyze=True)
        finally:
            s.close()
        assert "-- parallel schedule (workers=2) --" in text
        assert "critical path" in text
        assert "sum of op time" in text
        assert "measured:" in text  # parallel vs serial baseline

    def test_serial_explain_has_no_schedule(self, rng):
        s = make_session(1)
        try:
            a = s.matrix(rng.standard_normal((64, 64)))
            text = s.explain(a @ a, analyze=True)
        finally:
            s.close()
        assert "parallel schedule" not in text

    def test_warm_parallel_run_records_schedule(self, rng):
        s = make_session(4)
        try:
            a = s.matrix(rng.standard_normal((96, 48)))
            b = s.matrix(rng.standard_normal((48, 96)))
            plan = s.plan((a @ b).node)
            s.evaluator.execute(plan)
            sched = plan.parallel_schedule
            assert sched is not None
            assert sched["workers"] == 4
            assert len(sched["ops"]) == len(list(plan.ops()))
            for entry in sched["ops"]:
                assert 0 <= entry["worker"] < 4
                assert entry["end_ns"] >= entry["start_ns"]
            assert sched["critical_path_ns"] <= sched["sum_op_ns"]
        finally:
            s.close()

    def test_parallel_error_propagates(self, rng):
        s = make_session(2, mem_scalars=24 * 1024)
        try:
            a = s.matrix(rng.standard_normal((32, 32)))
            plan = s.plan((a @ a).node)
            ev = s.evaluator
            orig = ev._dispatch_op

            def boom(op, memo):
                raise RuntimeError("kernel exploded")

            ev._dispatch_op = boom
            try:
                with pytest.raises(RuntimeError, match="exploded"):
                    ev.execute_parallel(plan)
            finally:
                ev._dispatch_op = orig
        finally:
            s.close()


class TestTileParallelism:
    def test_accumulate_bitwise_matches_serial(self, rng):
        parts = [rng.standard_normal((24, 24)) for _ in range(9)]
        serial = np.zeros((24, 24))
        for p in parts:
            serial += p
        tp = TileParallelism(4)
        try:
            got = tp.accumulate(np.zeros((24, 24)),
                                (lambda p=p: p for p in parts))
        finally:
            tp.shutdown()
        assert got.tobytes() == serial.tobytes()

    def test_single_worker_needs_no_pool(self):
        tp = TileParallelism(1)
        assert tp._executor is None
        acc = tp.accumulate(np.zeros(4), (lambda: np.ones(4)
                                          for _ in range(3)))
        assert acc.tolist() == [3.0] * 4
        tp.shutdown()

    def test_reads_stay_on_calling_thread(self):
        """The thunk *stream* is consumed on the caller: any I/O done
        while producing a thunk happens serially, in order."""
        import threading
        caller = threading.get_ident()
        seen = []

        def thunks():
            for i in range(6):
                seen.append((i, threading.get_ident()))
                yield lambda i=i: np.full(2, float(i))

        tp = TileParallelism(3)
        try:
            acc = tp.accumulate(np.zeros(2), thunks())
        finally:
            tp.shutdown()
        assert [i for i, _ in seen] == list(range(6))
        assert all(tid == caller for _, tid in seen)
        assert acc[0] == sum(range(6))


class TestResolveParallelism:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(PARALLELISM_ENV, raising=False)
        assert resolve_parallelism(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "3")
        assert resolve_parallelism(None) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "3")
        assert resolve_parallelism(5) == 5

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "lots")
        with pytest.raises(ValueError, match="integer"):
            resolve_parallelism(None)

    def test_zero_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_parallelism(0)

    def test_clamped_to_max(self):
        assert resolve_parallelism(10_000) == MAX_WORKERS

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(parallelism=0)
