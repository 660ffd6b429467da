"""Runtime storage-protocol sanitizers: each hazard class is detected.

The :class:`SanitizingBufferPool` is a drop-in BufferPool that turns
protocol violations into loud errors: pins left unbalanced at span
close, discarding pinned blocks, and kernel-span reads whose blocks
were never announced to the prefetcher.  The suite seeds each
violation deliberately, then proves clean workloads run silently and
that ``StorageConfig(sanitize=True)`` / ``REPRO_SANITIZE=1`` wire the
pool in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.analysis import (CrossThreadUnpinError, LatchLeakError,
                            PinLeakError, PinnedDiscardError,
                            RetentionError, SanitizerError,
                            SanitizingBufferPool, UnannouncedReadError,
                            UseAfterDropError, WritebackLeakError)
from repro.core import RiotSession
from repro.storage import StorageConfig


def make_session(mem="4MiB", **storage_kw):
    return RiotSession(storage=StorageConfig(
        memory_bytes=mem, sanitize=True, **storage_kw))


@pytest.fixture()
def sess():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = make_session()
    yield s
    s.close()


def fresh_block(pool):
    block = pool.device.allocate(1)
    pool.invalidate(block)
    return block


class TestWiring:
    def test_sanitize_config_swaps_the_pool(self, sess):
        assert isinstance(sess.store.pool, SanitizingBufferPool)

    def test_sanitize_false_uses_plain_pool(self):
        # Explicit False beats the REPRO_SANITIZE env default, so this
        # holds even inside a fully sanitized CI run.
        s = RiotSession(storage=StorageConfig(sanitize=False))
        assert not isinstance(s.store.pool, SanitizingBufferPool)
        s.close()

    def test_env_var_drives_the_default(self):
        code = ("from repro.storage import StorageConfig;"
                "import sys; sys.exit(0 if StorageConfig().sanitize"
                " else 1)")
        repo_src = os.path.join(os.path.dirname(__file__),
                                os.pardir, os.pardir, "src")
        env = {"PYTHONPATH": os.path.abspath(repo_src),
               "REPRO_SANITIZE": "1", "PATH": os.environ["PATH"]}
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0
        env["REPRO_SANITIZE"] = "0"
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 1

    def test_errors_are_one_family(self):
        for err in (PinLeakError, PinnedDiscardError,
                    UnannouncedReadError, LatchLeakError,
                    WritebackLeakError, CrossThreadUnpinError,
                    UseAfterDropError):
            assert issubclass(err, SanitizerError)
            assert issubclass(err, RuntimeError)


class TestPinLeak:
    def test_unbalanced_pin_detected_at_span_close(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with pytest.raises(PinLeakError, match="unbalanced pins"):
            with tracer.span("leaky", cat="kernel"):
                pool.prefetch([block])
                pool.get(block)
                pool.pin(block)
        pool.unpin(block)

    def test_balanced_pins_are_silent(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with tracer.span("balanced", cat="kernel"):
            pool.prefetch([block])
            pool.get(block)
            pool.pin(block)
            pool.unpin(block)

    def test_exception_in_span_takes_priority(self, sess):
        # A span that dies mid-kernel reports the original error, not
        # the (inevitable) pin imbalance it leaves behind.
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with pytest.raises(KeyError):
            with tracer.span("dying", cat="kernel"):
                pool.prefetch([block])
                pool.get(block)
                pool.pin(block)
                raise KeyError("kernel bug")
        pool.unpin(block)


class TestLatchAndWritebackLeaks:
    def test_latch_held_at_span_close_detected(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        pool.put(block, np.zeros(8, dtype=np.uint8))
        latch = pool._latch(block)
        with pytest.raises(LatchLeakError, match=f"{{{block}: 1}}"):
            with tracer.span("leaky", cat="kernel"):
                latch.acquire()
        latch.release()

    def test_latches_released_inside_the_span_are_silent(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with pool.latched(block):  # held across the span, not leaked by it
            with tracer.span("balanced", cat="kernel"):
                pool.put(block, np.zeros(8, dtype=np.uint8))
                with pool.latched(block):
                    pool.get(block, for_write=True)[:] = 1
                pool.flush()

    def test_room_made_without_a_drain_detected(self, sess):
        # A pool entry point that evicts must drain before it returns;
        # calling the eviction loop bare is exactly that bug.
        pool, tracer = sess.store.pool, sess.store.tracer
        first = pool.device.allocate(pool.capacity)
        for bid in range(first, first + pool.capacity):
            pool.put(bid, np.zeros(8, dtype=np.uint8))
        written = pool.device.stats.writes
        with pytest.raises(WritebackLeakError, match="still parked"):
            with tracer.span("leaky", cat="kernel"):
                pool._ensure_room()
        assert pool.device.stats.writes == written
        pool._drain_pending()
        assert pool.device.stats.writes == written + 1


class TestUnannouncedRead:
    def test_miss_without_announcement_detected(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        announced = fresh_block(pool)
        sneaky = fresh_block(pool)
        with pytest.raises(UnannouncedReadError, match="neither"):
            with tracer.span("kern", cat="kernel"):
                pool.prefetch([announced])
                pool.get(announced)
                pool.get(sneaky)

    def test_announced_miss_is_legal(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with tracer.span("kern", cat="kernel"):
            pool.prefetch([block])
            pool.get(block)

    def test_written_blocks_count_as_covered(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        frame = np.zeros(pool.device.block_size, dtype=np.uint8)
        with tracer.span("kern", cat="kernel"):
            pool.prefetch([fresh_block(pool)])  # span announces
            pool.put(block, frame)
            pool.invalidate(block)
            pool.get(block)  # re-miss of a block this span wrote

    def test_put_many_blocks_count_as_covered(self, sess):
        pool, tracer = sess.store.pool, sess.store.tracer
        blocks = [fresh_block(pool), fresh_block(pool)]
        pages = np.zeros((2, pool.device.block_size), dtype=np.uint8)
        with tracer.span("kern", cat="kernel"):
            pool.prefetch([fresh_block(pool)])  # span announces
            pool.put_many(blocks, pages)
            for block in blocks:
                pool.invalidate(block)
                pool.get(block)  # re-miss of a block this span wrote

    def test_unhinted_kernels_are_exempt(self, sess):
        # The schedule runner announces no step whose footprint
        # reaches into another store, so a kernel streaming foreign
        # operands announces nothing; a span with zero announcements
        # makes no footprint claim, so its misses are legal.
        pool, tracer = sess.store.pool, sess.store.tracer
        block = fresh_block(pool)
        with tracer.span("naive", cat="kernel"):
            pool.get(block)

    def test_demand_reads_outside_kernel_spans_are_legal(self, sess):
        pool = sess.store.pool
        pool.get(fresh_block(pool))

    def test_clipped_prefetch_does_not_false_positive(self, sess):
        # The announced set records *requested* ids: even when the
        # pool clips a hint, a re-miss of an announced block must
        # not be reported as unannounced.
        pool, tracer = sess.store.pool, sess.store.tracer
        blocks = [fresh_block(pool) for _ in range(4)]
        with tracer.span("kern", cat="kernel"):
            pool.prefetch(blocks)
            for b in blocks:
                pool.invalidate(b)  # force every get to re-miss
            for b in blocks:
                pool.get(b)


class TestPinnedDiscard:
    def test_invalidate_of_pinned_block_detected(self, sess):
        pool = sess.store.pool
        block = fresh_block(pool)
        pool.get(block)
        pool.pin(block)
        with pytest.raises(PinnedDiscardError, match="pinned"):
            pool.invalidate(block)
        pool.unpin(block)
        pool.invalidate(block)  # legal once unpinned


class TestCleanWorkloads:
    """Real kernels run sanitized without tripping anything."""

    def test_dense_matmul(self, sess):
        g = np.random.default_rng(0)
        a = sess.matrix(g.standard_normal((200, 160)))
        b = sess.matrix(g.standard_normal((160, 120)))
        out = sess.values(a @ b)
        assert out.shape == (200, 120)

    def test_sparse_chain(self):
        s = make_session(mem="2MiB")
        coo = np.random.default_rng(1)
        n, nnz = 256, 700
        flat = coo.choice(n * n, size=nnz, replace=False)
        A = s.sparse_matrix(flat // n, flat % n,
                            coo.standard_normal(nnz), (n, n))
        v = s.matrix(coo.standard_normal((n, 1)))
        out = s.values(A @ v)
        assert out.shape == (n, 1)
        s.close()

    def test_solve(self, sess):
        g = np.random.default_rng(2)
        A = sess.matrix(g.standard_normal((96, 96)) + 96 * np.eye(96))
        y = sess.matrix(g.standard_normal((96, 1)))
        x = sess.values(sess.solve(A, y))
        assert np.allclose(
            sess.values(A)[0:96] @ x, sess.values(y), atol=1e-6)

    def test_write_submatrix_rmw_announces_partial_tiles(self):
        # Regression for the violation the sanitizer surfaced: spmm
        # writes non-tile-aligned column panels, and the partial-tile
        # read-modify-write read used to be an unannounced miss inside
        # the kernel span.  write_submatrix now announces the RMW
        # blocks itself.
        s = make_session(mem="2MiB")
        coo = np.random.default_rng(5)
        n, k, nnz = 192, 50, 900  # k=50 never tile-aligned
        flat = coo.choice(n * n, size=nnz, replace=False)
        A = s.sparse_matrix(flat // n, flat % n,
                            coo.standard_normal(nnz), (n, n))
        B = s.matrix(coo.standard_normal((n, k)))
        out = s.values(A @ B)
        assert out.shape == (n, k)
        s.close()


class TestCrossThreadUnpin:
    def test_unpin_from_other_thread_detected(self, sess):
        import threading


        pool = sess.store.pool
        block = fresh_block(pool)
        pool.get(block)
        pool.pin(block)
        caught: list[BaseException] = []

        def rogue():
            try:
                pool.unpin(block)
            except BaseException as exc:  # noqa: BLE001
                caught.append(exc)

        t = threading.Thread(target=rogue)
        t.start()
        t.join()
        assert len(caught) == 1
        assert isinstance(caught[0], CrossThreadUnpinError)
        assert "never pinned" in str(caught[0])
        # The rogue release must not have touched the real pin count.
        assert pool._pinned[block] == 1
        pool.unpin(block)  # owner releases cleanly
        assert block not in pool._pinned

    def test_each_thread_balances_its_own_pins(self, sess):
        import threading

        pool = sess.store.pool
        block = fresh_block(pool)
        pool.get(block)
        errors: list[BaseException] = []

        def worker():
            try:
                for _ in range(20):
                    pool.pin(block)
                    pool.unpin(block)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert block not in pool._pinned

    def test_unpin_of_never_pinned_block_still_tolerated(self, sess):
        # Nobody holds a pin: the plain pool tolerates over-release and
        # the sanitizer must not turn that into a cross-thread error.
        pool = sess.store.pool
        block = fresh_block(pool)
        pool.get(block)
        pool.unpin(block)


# ----------------------------------------------------------------------
# Over-retention
# ----------------------------------------------------------------------
class _SkipsTheCopyOut(SanitizingBufferPool):
    """A pool that never copies rows out of thinned buffers."""

    def _bound_retention(self) -> None:
        pass


class TestRetention:
    """Every pool call ends with the frames keeping at most
    ``pool.retention_limit`` bytes alive, recounted from the frames."""

    @staticmethod
    def _touch_one_row_per_run(pool_cls, seed=2026):
        """Seeded: read runs of eight blocks, then touch one random row
        of each run kept so far, so LRU evicts the siblings and every
        buffer keeps one row alive."""
        from repro.storage import BlockDevice
        rng = np.random.default_rng(seed)
        device = BlockDevice(block_size=512)
        first = device.allocate(50 * 8)
        pool = pool_cls(device, 16)
        survivors: list[int] = []
        for start in rng.permutation(50)[:30]:
            run = list(range(first + 8 * int(start),
                             first + 8 * int(start) + 8))
            pool.get_many(run)
            survivors = (survivors + [int(rng.choice(run))])[-8:]
            pool.get_many(survivors)
        return pool

    def test_an_over_retaining_pool_fails(self):
        assert issubclass(RetentionError, SanitizerError)
        with pytest.raises(RetentionError, match="bound of 16384"):
            self._touch_one_row_per_run(_SkipsTheCopyOut)

    def test_the_pool_keeps_the_bound_on_the_same_pattern(self):
        pool = self._touch_one_row_per_run(SanitizingBufferPool)
        assert len({id(f.base) for f in pool._frames.values()}) > 1
