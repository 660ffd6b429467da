"""Rectangle I/O against a per-tile reference.

``TiledMatrix.read_submatrix`` / ``write_submatrix`` move a whole raw
rectangle with one block-table slice, one pool call and one bulk copy.
The contract is that nobody can tell: contents are bitwise those of a
NumPy mirror, and the device sees exactly the blocks it would have
seen had every tile been read and written on its own, in row-major
tile order.  The per-tile loops below are that reference — the
rectangle walk the store used before it went panel-granular, kept here
so the equivalence stays checked.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ArrayStore, StorageConfig, linearization_names
from repro.storage.buffer_pool import retained_bytes
from repro.storage.tile_store import TiledMatrix

BLOCK = 512          # 64 float64 / 128 float32 scalars per page
POOL_BLOCKS = 6      # small enough that most rectangles evict


# ----------------------------------------------------------------------
# The reference: one tile at a time
# ----------------------------------------------------------------------
def _overlaps(mat: TiledMatrix, r0: int, r1: int, c0: int, c1: int):
    """Yield (ti, tj, tile bounds, intersection) in row-major order."""
    th, tw = mat.tile_shape
    for ti in range(r0 // th, -(-r1 // th)):
        for tj in range(c0 // tw, -(-c1 // tw)):
            tr0, tr1, tc0, tc1 = mat.tile_bounds(ti, tj)
            ir0, ir1 = max(tr0, r0), min(tr1, r1)
            ic0, ic1 = max(tc0, c0), min(tc1, c1)
            if ir0 < ir1 and ic0 < ic1:
                yield ti, tj, (tr0, tr1, tc0, tc1), (ir0, ir1, ic0, ic1)


def ref_read_submatrix(mat: TiledMatrix, r0, r1, c0, c1) -> np.ndarray:
    mat.store.pool.prefetch(mat.submatrix_blocks(r0, r1, c0, c1))
    out = np.empty((r1 - r0, c1 - c0), dtype=mat.dtype)
    for ti, tj, (tr0, _, tc0, _), (ir0, ir1, ic0, ic1) in _overlaps(
            mat, r0, r1, c0, c1):
        tile = mat.read_tile(ti, tj)
        out[ir0 - r0: ir1 - r0, ic0 - c0: ic1 - c0] = \
            tile[ir0 - tr0: ir1 - tr0, ic0 - tc0: ic1 - tc0]
    return out


def ref_write_submatrix(mat: TiledMatrix, r0, c0, values) -> None:
    vals = np.ascontiguousarray(values, dtype=mat.dtype)
    r1, c1 = r0 + vals.shape[0], c0 + vals.shape[1]
    touched = list(_overlaps(mat, r0, r1, c0, c1))
    rmw = [bid for ti, tj, bounds, inter in touched if bounds != inter
           for bid in mat.tile_blocks(ti, tj)]
    if rmw:
        mat.store.pool.prefetch(rmw)
    for ti, tj, bounds, inter in touched:
        tr0, tr1, tc0, tc1 = bounds
        ir0, ir1, ic0, ic1 = inter
        if bounds == inter:
            tile = np.empty((tr1 - tr0, tc1 - tc0), dtype=mat.dtype)
        else:
            tile = mat.read_tile(ti, tj)
        tile[ir0 - tr0: ir1 - tr0, ic0 - tc0: ic1 - tc0] = \
            vals[ir0 - r0: ir1 - r0, ic0 - c0: ic1 - c0]
        mat.write_tile(ti, tj, tile)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def layouts(draw):
    """Shape (ragged edges included), tile shape from a fraction of a
    page to several pages, curve, dtype, codec."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    # 8x8 float64 and 8x16 float32 fill one page exactly; 11 and 16
    # make multi-page tiles, the small sides leave slack in the page.
    side = st.sampled_from([1, 2, 3, 5, 8, 11, 16])
    tile = (draw(side), draw(side))
    return dict(shape=shape, tile_shape=tile,
                linearization=draw(st.sampled_from(linearization_names())),
                dtype=draw(st.sampled_from(["float64", "float32"])),
                codec=draw(st.sampled_from(["raw", "delta+zstd"])))


@st.composite
def rectangles(draw, shape, tile_shape):
    """A rectangle inside ``shape``; half the time snapped outward to
    tile boundaries (the whole-tile path), else left ragged (RMW)."""
    def span(n, t):
        lo, hi = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
        if draw(st.booleans()):
            lo, hi = lo // t * t, min(-(-hi // t) * t, n)
        return lo, hi
    r0, r1 = span(shape[0], tile_shape[0])
    c0, c1 = span(shape[1], tile_shape[1])
    return r0, r1, c0, c1


def _make(layout: dict) -> tuple[ArrayStore, TiledMatrix]:
    store = ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=POOL_BLOCKS * BLOCK,
        dtype=layout["dtype"], codec=layout["codec"]))
    mat = store.create_matrix(
        layout["shape"], tile_shape=layout["tile_shape"],
        linearization=layout["linearization"], name="m")
    return store, mat


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(data=st.data(), layout=layouts(), seed=st.integers(0, 2 ** 16))
def test_rectangles_match_the_per_tile_walk(data, layout, seed):
    rng = np.random.default_rng(seed)
    store, mat = _make(layout)
    ref_store, ref = _make(layout)
    mirror = np.zeros(layout["shape"], dtype=layout["dtype"])
    tile_shape = mat.tile_shape

    for _ in range(data.draw(st.integers(1, 8), label="n_ops")):
        op = data.draw(st.sampled_from(["write", "read", "read_tile"]))
        if op == "read_tile":
            ti = data.draw(st.integers(0, mat.grid[0] - 1))
            tj = data.draw(st.integers(0, mat.grid[1] - 1))
            r0, r1, c0, c1 = mat.tile_bounds(ti, tj)
            got, want = mat.read_tile(ti, tj), ref.read_tile(ti, tj)
        else:
            r0, r1, c0, c1 = data.draw(
                rectangles(layout["shape"], tile_shape), label=op)
        if op == "write":
            # Small integers compress; noise outgrows its pages and
            # takes the codec's raw fallback.
            if data.draw(st.booleans(), label="noise"):
                vals = rng.standard_normal((r1 - r0, c1 - c0))
            else:
                vals = rng.integers(-3, 4, (r1 - r0, c1 - c0))
            vals = vals.astype(layout["dtype"])
            mat.write_submatrix(r0, c0, vals)
            ref_write_submatrix(ref, r0, c0, vals)
            mirror[r0:r1, c0:c1] = vals
            continue
        if op == "read":
            got = mat.read_submatrix(r0, r1, c0, c1)
            want = ref_read_submatrix(ref, r0, r1, c0, c1)
        # (i) bitwise the mirror (and the reference walk agrees)
        assert got.dtype == mirror.dtype
        assert _bits(got) == _bits(mirror[r0:r1, c0:c1]) == _bits(want)
        # (iv) fresh and writable: scribbling on it changes nothing
        assert got.flags.writeable and got.flags.c_contiguous
        got.fill(-7.0)

    assert _bits(mat.read_submatrix(0, mirror.shape[0],
                                    0, mirror.shape[1])) == _bits(mirror)
    ref_read_submatrix(ref, 0, mirror.shape[0], 0, mirror.shape[1])

    # (ii) the device saw the same blocks and bytes either way
    store.flush()
    ref_store.flush()
    for field in ("reads", "writes", "bytes_read", "bytes_written",
                  "bytes_logical", "bytes_compressed"):
        assert getattr(store.device.stats, field) == \
            getattr(ref_store.device.stats, field), field
    assert store.pool.stats == ref_store.pool.stats

    # (iii) a matrix re-attached from the manifest entry reads the same
    # bits back off the device
    entry = store._build_manifest()["m"]
    store.pool.clear()
    store.tile_cache.clear()
    again = TiledMatrix._attach(store, "m", entry)
    assert np.array_equal(again._blocks, mat._blocks)
    assert _bits(again.read_submatrix(0, mirror.shape[0],
                                      0, mirror.shape[1])) == _bits(mirror)
    assert _bits(again.to_numpy()) == _bits(mirror)


def test_a_compressed_rectangle_reads_what_its_walk_reads():
    """Six compressed tiles through a decoded-tile cache that holds
    four (the walk evicts each tile just before it asks for it again):
    the rectangle read moves the walk's blocks and bytes, decodes as
    often, and leaves the pool counters where the walk leaves them."""
    layout = dict(shape=(11, 17), tile_shape=(5, 16),
                  linearization="col", dtype="float64",
                  codec="delta+zstd")
    data = np.arange(11 * 17, dtype=np.float64).reshape(11, 17)
    seen = {}
    for name, read in (("rect", TiledMatrix.read_submatrix),
                       ("walk", ref_read_submatrix)):
        store, mat = _make(layout)
        store.tile_cache.capacity_bytes = 4 * 640
        mat.write_submatrix(0, 0, data)
        # Written tiles are encoded when they leave memory.
        store.flush()
        store.reset_stats()
        assert _bits(read(mat, 0, 11, 0, 17)) == _bits(data)
        stats = store.device.stats
        seen[name] = (stats.bytes_logical // 640, stats.reads,
                      stats.bytes_read, stats.bytes_compressed,
                      store.pool.stats)
    assert seen["rect"] == seen["walk"]
    assert seen["rect"][0] == 6


def test_dropped_matrix_has_no_blocks():
    store, mat = _make(dict(shape=(20, 20), tile_shape=(8, 8),
                            linearization="row", dtype="float64",
                            codec="raw"))
    mat.from_numpy(np.ones((20, 20)))
    mat.drop()
    assert mat._blocks.size == 0
    assert store.pool.resident == 0


def test_a_rectangle_written_in_slices_reads_back_within_the_bound():
    """A sanitized draw of the property above: the write hands
    ``put_many`` two slices of one tiles array, so one buffer backs
    the frames of two batches, and the full read's ``prefetch`` evicts
    the rows of one of them.  The pool counts that buffer once, and
    until its last row leaves, so the read ends within its retention
    limit (7 168 bytes were kept alive against 6 144 while each batch
    charged the buffer on its own)."""
    store = ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=POOL_BLOCKS * BLOCK,
        dtype="float32", codec="raw", sanitize=True))
    mat = store.create_matrix((17, 17), tile_shape=(16, 16),
                              linearization="col", name="m")
    vals = np.arange(17 * 16, dtype=np.float32).reshape(17, 16) % 7 - 3
    mat.write_submatrix(0, 1, vals)
    mirror = np.zeros((17, 17), dtype=np.float32)
    mirror[:, 1:] = vals
    assert _bits(mat.read_submatrix(0, 17, 0, 17)) == _bits(mirror)
    pool = store.pool
    assert pool._held == retained_bytes(pool._frames.values())
    store.close()
