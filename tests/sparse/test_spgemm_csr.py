"""Row-panel, CSR-native ``spgemm`` against the output-tile loop it
replaced.

``spgemm`` multiplies each tile pair from its CSR triples — a join on
the inner index, then a keyed sum into the output tile's accumulator —
unless the pair's exact product count says one BLAS GEMM on the
densified tiles is cheaper, and it holds a panel of A's block rows so a
B tile is read once per panel.  The contract is that the numbers did
not move: the result is NumPy's, every stored tile is the one the old
loop stored, the bits depend on the operands and the tile grid alone —
never on the budget that sets the panel height — and the reads are the
schedule's own count, which is never more than the old loop's one read
per pair (what a pool big enough to hold B saved the old loop on top of
that, a panel's A reads can take away: the last fixed case pins it).
``ref_spgemm`` below is that old loop (one output tile at a time,
densify both tiles, GEMM every pair), kept as the reference for numbers
and writes; ``model_spgemm`` is the summation order written out one
product at a time, kept as the bitwise reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import SanitizingBufferPool
from repro.sparse import SparseTiledMatrix, kernels, spgemm
from repro.sparse.sparse_matrix import default_sparse_tile_shape
from repro.storage import ArrayStore, StorageConfig
from repro.storage.linearization import linearization_names
from schedule_counts import (biggest_tile, hints_fit, spgemm_pair_reads,
                             spgemm_schedule_reads)

BLOCK = 512                  # 64 words per page: the default tile is 32x32
DEFAULT_SIDE = default_sparse_tile_shape((1 << 20, 1 << 20), BLOCK // 8)[0]
MEMORY = 4096                # the fixed cases' budget: a few default tiles


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def ref_spgemm(store, a, b):
    """The loop ``spgemm`` ran before: one output tile at a time, both
    tiles of every pair read and densified."""
    out = SparseTiledMatrix(
        store, store._fresh_name("spgemm"), (a.shape[0], b.shape[1]),
        (a.tile_shape[0], b.tile_shape[1]), a.linearization.name)
    hinting = a.store is store and b.store is store
    for ti, tj in out.tiles():
        ks = sorted(set(a.nonempty_in_row(ti))
                    & set(b.nonempty_in_col(tj)))
        if not ks:
            continue
        groups = [a.tile_blocks(ti, k) + b.tile_blocks(k, tj) for k in ks]
        hints = kernels._BatchedHints(store.pool, groups, hinting)
        r0, r1, c0, c1 = out.tile_bounds(ti, tj)
        acc = np.zeros((r1 - r0, c1 - c0))
        for idx, k in enumerate(ks):
            hints.before(idx)
            acc += a.read_tile(ti, k) @ b.read_tile(k, tj)
        out.append_tile_dense(ti, tj, acc)
    return out


def _pairs(a_np, b_np, tiles):
    """Every tile pair with a nonempty tile on both sides, in schedule
    order per output tile: ``(rows, cols, A block, B block, P)``."""
    th, tk, tw = tiles
    m, l = a_np.shape
    n = b_np.shape[1]
    for r0 in range(0, m, th):
        for c0 in range(0, n, tw):
            for k0 in range(0, l, tk):
                a_blk = np.ascontiguousarray(a_np[r0:r0 + th, k0:k0 + tk])
                b_blk = np.ascontiguousarray(b_np[k0:k0 + tk, c0:c0 + tw])
                if a_blk.any() and b_blk.any():
                    products = int((a_blk != 0).sum(axis=0)
                                   @ (b_blk != 0).sum(axis=1))
                    yield (slice(r0, r0 + th), slice(c0, c0 + tw),
                           a_blk, b_blk, products)


def _is_dense_pair(a_blk, b_blk, products) -> bool:
    volume = a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1]
    return products > kernels.SPGEMM_DENSE_CROSSOVER * volume


def expected_paths(a_np, b_np, tiles) -> dict:
    paths = {"csr": 0, "dense": 0}
    for _, _, a_blk, b_blk, products in _pairs(a_np, b_np, tiles):
        if _is_dense_pair(a_blk, b_blk, products):
            paths["dense"] += 1
        elif products:
            paths["csr"] += 1
    return paths


def model_spgemm(a_np, b_np, tiles) -> np.ndarray:
    """The summation order, spelled out: k ascending; a pair below the
    crossover adds its products one at a time in A's CSR order (B's row
    in column order inside each), a pair above it adds one GEMM."""
    out = np.zeros((a_np.shape[0], b_np.shape[1]))
    for rows, cols, a_blk, b_blk, products in _pairs(a_np, b_np, tiles):
        acc = out[rows, cols]
        if _is_dense_pair(a_blk, b_blk, products):
            acc += a_blk @ b_blk
            continue
        for i, p in zip(*np.nonzero(a_blk)):
            for j in np.flatnonzero(b_blk[p]):
                acc[i, j] += a_blk[i, p] * b_blk[p, j]
    return out


@contextmanager
def counted_paths():
    """Count the tile pairs ``spgemm`` sends down each path."""
    paths = {}
    with mock.patch.object(kernels, "_expand_pair",
                           wraps=kernels._expand_pair) as expand, \
            mock.patch.object(kernels, "csr_to_dense",
                              wraps=kernels.csr_to_dense) as densify:
        yield paths
    # A dense pair densifies two tiles.
    paths.update(csr=expand.call_count, dense=densify.call_count // 2)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _operand(rng, shape, tile, integers: bool) -> np.ndarray:
    """A matrix whose tiles each draw their own density, empty and full
    included, so one product has pairs on both sides of the crossover."""
    dense = np.zeros(shape)
    for r0 in range(0, shape[0], tile[0]):
        for c0 in range(0, shape[1], tile[1]):
            blk = dense[r0:r0 + tile[0], c0:c0 + tile[1]]
            density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.5, 1.0])
            mask = rng.random(blk.shape) < density
            if integers:
                vals = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
                                  size=blk.shape)
            else:
                vals = rng.standard_normal(blk.shape)
            blk[...] = mask * vals
    return dense


@st.composite
def products(draw):
    # None: the default side.  Small tiles have small crossovers (under
    # one product below side 7), so the larger sides are drawn more often.
    side = st.one_of(st.integers(1, 17), st.integers(12, 17), st.none())
    return dict(
        m=draw(st.integers(1, 48)), l=draw(st.integers(1, 48)),
        n=draw(st.integers(1, 48)),
        th=draw(side), tk=draw(side), tw=draw(side),
        linearization=draw(st.sampled_from(linearization_names())),
        capacity=draw(st.integers(4, 64)),   # 4: the store's floor
        # From "one row per panel" to "the whole of A in one".
        memory=draw(st.one_of(st.integers(1, 2048),
                              st.integers(1, 1 << 15))),
        scheduler=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 16)))


def _store(capacity: int, scheduler: bool) -> ArrayStore:
    store = ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=capacity * BLOCK,
        scheduler=scheduler, sanitize=True))
    assert isinstance(store.pool, SanitizingBufferPool)
    return store


def _tiles(p: dict) -> tuple[int, int, int]:
    return tuple(min(p[side] or DEFAULT_SIDE, p[extent])
                 for side, extent in (("th", "m"), ("tk", "l"), ("tw", "n")))


def _load(store, a_np, b_np, tiles, linearization="row"):
    th, tk, tw = tiles
    a = SparseTiledMatrix.from_dense(store, a_np, tile_shape=(th, tk),
                                     linearization=linearization)
    b = SparseTiledMatrix.from_dense(store, b_np, tile_shape=(tk, tw),
                                     linearization=linearization)
    store.flush()
    store.pool.clear()
    store.reset_stats()
    return a, b


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
def _stored(c) -> dict:
    """Everything a product stores, by tile: pages, nnz and the triple."""
    return {t: (pages, nnz, [part.tolist() for part in c.read_tile_csr(*t)])
            for t, (_, pages, nnz) in c.directory.items()}


@settings(max_examples=300, deadline=None)
@given(p=products())
def test_same_numbers_and_same_io_as_the_densify_loop(p):
    """Integer-valued operands make every sum exact, so both loops must
    store the same tiles on as many pages — and the panel schedule's
    reads are its own count: at most the old loop's one-read-per-pair,
    and exactly the count when nothing can survive in the pool from one
    panel to the next."""
    rng = np.random.default_rng(p["seed"])
    tiles = _tiles(p)
    a_np = _operand(rng, (p["m"], p["l"]), tiles[:2], integers=True)
    b_np = _operand(rng, (p["l"], p["n"]), tiles[1:], integers=True)
    want = a_np @ b_np

    store = _store(p["capacity"], p["scheduler"])
    a, b = _load(store, a_np, b_np, tiles, p["linearization"])
    with counted_paths() as paths:
        c = spgemm(store, a, b, p["memory"])
    store.flush()
    io = store.device.stats.snapshot()

    ref_store = _store(p["capacity"], p["scheduler"])
    ref_c = ref_spgemm(ref_store, *_load(ref_store, a_np, b_np, tiles,
                                         p["linearization"]))
    ref_store.flush()
    ref_io = ref_store.device.stats.snapshot()
    assert (io.writes, io.bytes_written) \
        == (ref_io.writes, ref_io.bytes_written)
    assert _stored(c) == _stored(ref_c)

    # The old loop read both tiles of every pair; a pool could only
    # save it some.  The panel schedule never plans more than that and
    # never reads more than it planned — so wherever the pool saved the
    # old loop nothing, the new one reads no more than it did.  (Where
    # it saved the old loop a lot, see the fixed case below.)  ``fit``
    # is always true with the scheduler off; with it on, a tile over
    # half the pool has its hint clipped, and a page of it can then be
    # fetched by the hint and again by the read — twice, never more.
    planned = spgemm_schedule_reads(a, b, p["memory"])
    pair_reads = sum(spgemm_pair_reads(a, b))
    assert planned <= pair_reads
    needed, panels = kernels.spgemm_schedule(a, b, p["memory"])
    fit = hints_fit(store, max(biggest_tile(a), biggest_tile(b)))
    assert fit or p["scheduler"]
    assert io.reads <= (planned if fit else 2 * planned)
    if fit and ref_io.reads >= pair_reads:
        assert io.reads <= ref_io.reads
    exact = fit and _cold_between_panels(b, needed, panels, p["capacity"])
    if exact:
        assert io.reads == planned
    event(f"panels: {min(len(panels), 3)}, exact: {exact}")

    assert paths == expected_paths(a_np, b_np, tiles)
    event(f"csr pairs: {paths['csr'] > 0}, dense pairs: {paths['dense'] > 0}")
    assert np.array_equal(c.to_numpy(), want)
    # Explicit zeros (exact cancellations are common here) are not stored.
    assert c.nnz == np.count_nonzero(want)
    assert c.nnz == sum(e[2] for e in c.directory.values())


def _cold_between_panels(b, needed, panels, capacity: int) -> bool:
    """Can no B page be found in the pool by a later panel?  Trivially
    with one panel; otherwise when every panel streams the same B tiles
    in the same order and they outnumber the pool twice over (the
    margin covers a hint batch of half the pool)."""
    if len(panels) <= 1:
        return True
    streamed = [{k for ks in needed[lo:hi] for k in ks} for lo, hi in panels]
    pages = sum(e[1] for (k, _), e in b.directory.items()
                if k in streamed[0])
    return (all(ks == streamed[0] for ks in streamed)
            and pages - biggest_tile(b) >= 2 * capacity)


@settings(max_examples=100, deadline=None)
@given(p=products(), capacity=st.integers(4, 64),
       scheduler=st.booleans(), foreign=st.booleans(),
       memory=st.integers(1, 1 << 15))
def test_bits_depend_on_operands_and_grid_only(p, capacity, scheduler,
                                               foreign, memory):
    """Real-valued operands: the result is bitwise the written-out
    summation order, whatever pool, scheduler or hinting delivered the
    tiles (operands of a foreign store switch hinting off) and whatever
    budget set the panel height."""
    rng = np.random.default_rng(p["seed"])
    tiles = _tiles(p)
    a_np = _operand(rng, (p["m"], p["l"]), tiles[:2], integers=False)
    b_np = _operand(rng, (p["l"], p["n"]), tiles[1:], integers=False)
    want = _bits(model_spgemm(a_np, b_np, tiles))
    assert np.allclose(model_spgemm(a_np, b_np, tiles), a_np @ b_np)

    store = _store(p["capacity"], p["scheduler"])
    c = spgemm(store, *_load(store, a_np, b_np, tiles, p["linearization"]),
               p["memory"])
    assert _bits(c.to_numpy()) == want

    other = _store(capacity, scheduler)
    home = _store(p["capacity"], p["scheduler"]) if foreign else other
    c2 = spgemm(other, *_load(home, a_np, b_np, tiles, p["linearization"]),
                memory)
    assert _bits(c2.to_numpy()) == want
    if foreign:
        assert other.pool.scheduler.stats.hinted_blocks == 0


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
def test_k_is_summed_in_ascending_order():
    """Four k-tiles feed every output entry with inexact values: any
    other k order rounds differently somewhere."""
    rng = np.random.default_rng(7)
    a_np = rng.standard_normal((8, 16))
    b_np = rng.standard_normal((16, 8))
    tiles = (4, 4, 4)
    store = _store(32, True)
    c = spgemm(store, *_load(store, a_np, b_np, tiles), MEMORY)
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
    flipped = model_spgemm(a_np[:, ::-1], b_np[::-1], tiles)
    assert _bits(flipped) != _bits(c.to_numpy())   # the order matters


def test_one_product_uses_both_paths():
    """A full tile pair goes to BLAS, a near-empty one stays compressed,
    an inner-index mismatch does no arithmetic at all."""
    rng = np.random.default_rng(11)
    a_np = np.zeros((32, 96))
    b_np = np.zeros((96, 32))
    a_np[:, :32] = rng.standard_normal((32, 32))        # k = 0: dense
    b_np[:32] = rng.standard_normal((32, 32))
    a_np[3, 40] = a_np[9, 41] = 2.0                     # k = 1: 2 products
    b_np[40, 5] = b_np[41, 6] = -1.5
    a_np[0, 70] = 1.0                                   # k = 2: no match
    b_np[71, 0] = 1.0
    tiles = (32, 32, 32)
    store = _store(16, True)
    with counted_paths() as paths:
        c = spgemm(store, *_load(store, a_np, b_np, tiles), MEMORY)
    assert paths == {"csr": 1, "dense": 1} \
        == expected_paths(a_np, b_np, tiles)
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
    assert np.allclose(c.to_numpy(), a_np @ b_np)


@pytest.mark.parametrize("pad,tk,path,pairs", [
    (1, 2, "dense", 1),      # 2 products in a 1x2x1 tile: above the crossover
    (1, 1, "dense", 2),      # ... cancelling across two k-tiles
    (24, 48, "csr", 1),      # padded into a 24x48x24 tile: below it
    (24, 1, "csr", 2),
])
def test_exact_cancellation_stores_nothing(pad, tk, path, pairs):
    """``[[1, 1]] . [[1], [-1]]`` is a zero nobody stored."""
    a_np = np.zeros((pad, 2 * pad))
    b_np = np.zeros((2 * pad, pad))
    a_np[0, :2] = 1.0
    b_np[:2, 0] = [1.0, -1.0]
    store = _store(8, True)
    with counted_paths() as paths:
        c = spgemm(store, *_load(store, a_np, b_np, (pad, tk, pad)),
                   MEMORY)
    assert paths[path] == pairs and sum(paths.values()) == pairs
    assert c.nnz == 0 and not c.directory and c.data_pages == 0
    assert not c.to_numpy().any()


@pytest.mark.parametrize("scheduler", [False, True])
def test_a_pool_that_holds_b_pays_for_it_once_per_panel(scheduler):
    """The one regime where row panels read more than the output-tile
    loop did.  A is tall (8 block rows, 48 pages), B small (12 pages),
    every tile full, and the 32-frame pool holds B beside one block
    row of A and the output tile being written: the old loop found B
    in the pool after the first block row and read everything once.
    A panel's A reads go through the same pool, so a panel of four
    rows (24 pages) flushes B and the next panel reads it again:
    ``pages(A) + panels * pages(B)``, the schedule's own count and the
    bound in general.  At either end of the budget the loss is gone —
    one-row panels leave B in the pool as the old loop did, one panel
    reads it once by construction."""
    a_np = np.arange(64 * 16, dtype=float).reshape(64, 16) % 7 + 1
    b_np = np.arange(16 * 16, dtype=float).reshape(16, 16) % 5 + 1
    tiles = (8, 8, 8)

    def reads_of(product, *budget):
        store = _store(32, scheduler)
        a, b = _load(store, a_np, b_np, tiles)
        assert (a.data_pages, b.data_pages) == (48, 12)
        c = product(store, a, b, *budget)
        store.flush()
        reads = store.device.stats.reads
        assert np.array_equal(c.to_numpy(), a_np @ b_np)
        if not budget:
            return reads
        return (reads, spgemm_schedule_reads(a, b, *budget),
                len(kernels.spgemm_schedule(a, b, *budget)[1]))

    assert reads_of(ref_spgemm) == 48 + 12
    # Room for four rows' accumulators and CSR triples beside a B tile.
    assert reads_of(spgemm, 1600) == (48 + 2 * 12, 48 + 2 * 12, 2)
    assert reads_of(spgemm, 1) == (48 + 12, 48 + 8 * 12, 8)
    assert reads_of(spgemm, 1 << 15) == (48 + 12, 48 + 12, 1)


def test_default_tiles_ragged_shape(store):
    """The stock 128-side grid over a shape it does not divide."""
    rng = np.random.default_rng(5)
    a_np = (rng.random((300, 260)) < 0.02) * rng.standard_normal((300, 260))
    b_np = (rng.random((260, 200)) < 0.02) * rng.standard_normal((260, 200))
    a_np[128:256, 128:256] = rng.standard_normal((128, 128))
    b_np[128:256, :128] = rng.standard_normal((128, 128))
    a = SparseTiledMatrix.from_dense(store, a_np)
    b = SparseTiledMatrix.from_dense(store, b_np)
    tiles = (*a.tile_shape, b.tile_shape[1])
    assert tiles == (128, 128, 128)
    with counted_paths() as paths:
        c = spgemm(store, a, b, 1 << 17)
    assert paths == expected_paths(a_np, b_np, tiles)
    assert paths["csr"] and paths["dense"]
    assert np.allclose(c.to_numpy(), a_np @ b_np)
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
