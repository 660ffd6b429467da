"""Vector run I/O against a one-chunk-at-a-time reference.

``TiledVector.read_chunk(ci, count)`` / ``write_chunk(ci, values)`` move
a run of whole chunks with one pool call and one bulk copy, and
``read_range`` slices a run.  The contract is that nobody can tell:
contents are bitwise those of a NumPy mirror, and the device and the
pool see exactly what they would have seen had every chunk been read
and written on its own, in order.  The one-chunk loops below are that
reference — the walk the store's callers used before the run became the
unit — kept here so the equivalence stays checked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import SanitizingBufferPool
from repro.storage import ArrayStore, StorageConfig
from repro.storage.tile_store import STREAM_PREFETCH_CHUNKS, TiledVector

BLOCK = 512                  # 64 float64 scalars per page
PAGE = BLOCK // 8


# ----------------------------------------------------------------------
# The reference: one chunk at a time
# ----------------------------------------------------------------------
def ref_read_run(vec: TiledVector, ci: int, count: int) -> np.ndarray:
    return np.concatenate([vec.read_chunk(c)
                           for c in range(ci, ci + count)])


def ref_write_run(vec: TiledVector, ci: int, values: np.ndarray) -> None:
    for k in range(-(-values.size // vec.chunk)):
        vec.write_chunk(ci + k, values[k * vec.chunk: (k + 1) * vec.chunk])


def ref_read_range(vec: TiledVector, lo: int, hi: int) -> np.ndarray:
    parts = [np.empty(0)]
    for ci in range(lo // vec.chunk, -(-hi // vec.chunk) if lo < hi else 0):
        c_lo, c_hi = vec.chunk_bounds(ci)
        parts.append(vec.read_chunk(ci)[max(lo, c_lo) - c_lo:
                                        min(hi, c_hi) - c_lo])
    return np.concatenate(parts)


# ----------------------------------------------------------------------
@st.composite
def layouts(draw):
    """Length (empty, one element, under a chunk, ragged tail, whole
    chunks), chunk (a fraction of a page or all of it), pool."""
    chunk = draw(st.sampled_from([1, 3, 17, PAGE - 1, PAGE]))
    length = draw(st.one_of(
        st.sampled_from([0, 1, chunk - 1, chunk, 5 * chunk]),
        st.integers(0, 12 * chunk)))
    return dict(length=length, chunk=chunk,
                capacity=draw(st.integers(4, 64)),   # 4: the store's floor
                policy=draw(st.sampled_from(["lru", "clock"])),
                scheduler=draw(st.booleans()))


def _make(layout: dict) -> tuple[ArrayStore, TiledVector]:
    store = ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=layout["capacity"] * BLOCK,
        policy=layout["policy"], scheduler=layout["scheduler"],
        sanitize=True))
    assert isinstance(store.pool, SanitizingBufferPool)
    return store, store.create_vector(layout["length"],
                                      chunk=layout["chunk"], name="v")


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _counters(store: ArrayStore) -> tuple:
    io = store.device.stats
    return (io.reads, io.writes, io.bytes_read, io.bytes_written,
            store.pool.stats.snapshot())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), layout=layouts(), seed=st.integers(0, 2 ** 16))
def test_runs_match_the_one_chunk_walk(data, layout, seed):
    rng = np.random.default_rng(seed)
    store, vec = _make(layout)
    ref_store, ref = _make(layout)
    n, chunk = layout["length"], layout["chunk"]
    mirror = np.zeros(n)

    def fresh(got: np.ndarray, want: np.ndarray, lo: int, hi: int):
        assert got.dtype == np.float64
        assert _bits(got) == _bits(mirror[lo:hi]) == _bits(want)
        assert got.flags.writeable
        got.fill(-7.0)       # scribbling on a result changes nothing

    ops = ["from_numpy", "read_range"]
    if n:
        ops += ["read_run", "write_run", "gather", "scatter"]
    for _ in range(data.draw(st.integers(1, 8), label="n_ops")):
        op = data.draw(st.sampled_from(ops))
        if op == "from_numpy":
            vals = rng.standard_normal(n)
            vec.from_numpy(vals)
            ref_write_run(ref, 0, vals)
            mirror[:] = vals
        elif op == "read_range":
            lo, hi = sorted((data.draw(st.integers(0, n)),
                             data.draw(st.integers(0, n))))
            fresh(vec.read_range(lo, hi), ref_read_range(ref, lo, hi),
                  lo, hi)
        elif op in ("read_run", "write_run"):
            ci = data.draw(st.integers(0, vec.num_chunks - 1))
            count = data.draw(st.integers(1, vec.num_chunks - ci))
            lo, hi = ci * chunk, min((ci + count) * chunk, n)
            if op == "read_run":
                fresh(vec.read_chunk(ci, count),
                      ref_read_run(ref, ci, count), lo, hi)
            else:
                vals = rng.standard_normal(hi - lo)
                vec.write_chunk(ci, vals)
                ref_write_run(ref, ci, vals)
                mirror[lo:hi] = vals
        else:
            idx = rng.integers(0, n, size=data.draw(st.integers(0, 6)))
            if op == "gather":
                assert _bits(vec.gather(idx)) == _bits(mirror[idx]) \
                    == _bits(ref.gather(idx))
            else:
                idx = np.unique(idx)
                vals = rng.standard_normal(idx.size)
                vec.scatter(idx, vals)
                ref.scatter(idx, vals)
                mirror[idx] = vals

    assert _bits(vec.to_numpy()) == _bits(mirror)
    got = np.concatenate([np.empty(0)] + [run for _, run in vec.scan()])
    assert _bits(got) == _bits(mirror)
    window = min(STREAM_PREFETCH_CHUNKS,
                 max(1, (layout["capacity"] - 2) // 2))
    for _ in range(2):       # to_numpy and scan above, as hinted walks
        for ci in range(0, ref.num_chunks, window):
            hi = min(ci + window, ref.num_chunks)
            ref_store.pool.prefetch(ref.blocks_for_chunks(range(ci, hi)))
            ref_read_run(ref, ci, hi - ci)

    # the device and the pool saw the same traffic either way
    store.flush()
    ref_store.flush()
    assert _counters(store) == _counters(ref_store)

    # a vector re-attached from the manifest entry reads the same bits
    # (an empty vector owns no pages and has no entry)
    if not n:
        return
    entry = store._build_manifest()["v"]
    store.pool.clear()
    again = TiledVector._attach(store, "v", entry)
    assert _bits(again.read_range(0, n)) == _bits(mirror)
    assert _bits(again.to_numpy()) == _bits(mirror)


@pytest.mark.parametrize("chunk", [17, PAGE])
def test_bad_runs_raise_and_touch_nothing(chunk):
    layout = dict(length=5 * chunk + 3, chunk=chunk, capacity=4,
                  policy="lru", scheduler=True)
    store, vec = _make(layout)
    data = np.arange(vec.length, dtype=np.float64)
    vec.from_numpy(data)
    before = _counters(store)
    resident = store.pool.resident

    for ci, count in [(0, 0), (0, -1), (2, 5), (6, 1), (-1, 1)]:
        with pytest.raises((IndexError, ValueError)):
            vec.read_chunk(ci, count)
    for ci, size in [
            (0, chunk + 1),          # stops mid-chunk, not at the end
            (1, 2 * chunk - 1),
            (5, 4),                  # the tail chunk holds 3
            (5, 2),
            (4, 2 * chunk),          # crosses the end
            (0, 0), (6, 3), (-1, chunk)]:
        with pytest.raises((IndexError, ValueError)):
            vec.write_chunk(ci, np.ones(size))
    for lo, hi in [(-1, 2), (3, 2), (0, vec.length + 1)]:
        with pytest.raises(IndexError):
            vec.read_range(lo, hi)

    assert _counters(store) == before
    assert store.pool.resident == resident
    assert _bits(vec.to_numpy()) == _bits(data)
    # the ragged tail is legal exactly at the vector's end
    vec.write_chunk(4, np.full(chunk + 3, 2.0))
    assert _bits(vec.read_chunk(4, 2)) == _bits(np.full(chunk + 3, 2.0))
