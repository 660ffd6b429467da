"""Row-panel, CSR-native ``spgemm`` against the output-tile loop it
replaced.

``spgemm`` multiplies each tile pair from its CSR triples — a join on
the inner index, then a keyed sum into the output tile's accumulator —
unless the pair's exact product count says one BLAS GEMM on the
densified tiles is cheaper, and it holds a panel of A's block rows so a
B tile is read once per panel and multiplied into every held row in
one step (the held tiles of an inner index stacked into one CSR block,
one join for the stack).  The contract is that the numbers did not
move: the result is NumPy's, every stored tile is the one the old
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
from repro.sparse.sparse_matrix import (default_sparse_tile_shape,
                                        tile_words)
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
class _BatchedHints:
    """The sparse kernels' lookahead as the old loop ran it: before a
    read, announce it and the reads after it while their blocks fit in
    half the pool (``repro.core.parallel.batched`` states the rule for
    the kernels now)."""

    def __init__(self, pool, groups: list[list[int]],
                 enabled: bool) -> None:
        self.pool = pool
        self.groups = groups
        self.enabled = enabled
        self.limit = max(1, pool.capacity // 2 - 2)
        self._next = 0

    def before(self, idx: int) -> None:
        if not self.enabled or idx < self._next:
            return
        batch: list[int] = []
        t = idx
        while t < len(self.groups) and (
                not batch
                or len(batch) + len(self.groups[t]) <= self.limit):
            batch.extend(self.groups[t])
            t += 1
        if batch:
            self.pool.prefetch(batch)
        self._next = max(t, idx + 1)


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
        hints = _BatchedHints(store.pool, groups, hinting)
        r0, r1, c0, c1 = out.tile_bounds(ti, tj)
        acc = np.zeros((r1 - r0, c1 - c0))
        for idx, k in enumerate(ks):
            hints.before(idx)
            acc += a.read_tile(ti, k) @ b.read_tile(k, tj)
        out.append_tile_dense(ti, tj, acc)
    return out


def _pairs(a_np, b_np, tiles):
    """Every tile pair with a nonempty tile on both sides, in schedule
    order per output tile: ``(rows, cols, k, A block, B block, P)``."""
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
                           k0 // tk, a_blk, b_blk, products)


def _is_dense_pair(a_blk, b_blk, products) -> bool:
    volume = a_blk.shape[0] * a_blk.shape[1] * b_blk.shape[1]
    return products > kernels.SPGEMM_DENSE_CROSSOVER * volume


def expected_paths(a_np, b_np, tiles, panels) -> dict:
    """Tile pairs by path, and the ``(panel, k, tj)`` steps that serve
    them: a step multiplies one B tile into every held row at once, so
    it counts once however many of the panel's pairs it covers."""
    th, tk, tw = tiles
    paths = {"csr": 0, "dense": 0}
    steps = set()
    for rows, cols, k, a_blk, b_blk, products in _pairs(a_np, b_np, tiles):
        if _is_dense_pair(a_blk, b_blk, products):
            paths["dense"] += 1
        elif products:
            paths["csr"] += 1
        else:
            continue
        ti = rows.start // th
        panel = next(i for i, (lo, hi) in enumerate(panels) if lo <= ti < hi)
        steps.add((panel, k, cols.start // tw))
    return {**paths, "steps": len(steps)}


def model_spgemm(a_np, b_np, tiles) -> np.ndarray:
    """The summation order, spelled out: k ascending; a pair below the
    crossover adds its products one at a time in A's CSR order (B's row
    in column order inside each), a pair above it adds one GEMM."""
    out = np.zeros((a_np.shape[0], b_np.shape[1]))
    for rows, cols, _, a_blk, b_blk, products in _pairs(a_np, b_np, tiles):
        acc = out[rows, cols]
        if _is_dense_pair(a_blk, b_blk, products):
            acc += a_blk @ b_blk
            continue
        for i, p in zip(*np.nonzero(a_blk)):
            for j in np.flatnonzero(b_blk[p]):
                acc[i, j] += a_blk[i, p] * b_blk[p, j]
    return out


@contextmanager
def counted_paths(store):
    """What ``spgemm`` reports on its row-panel spans, summed over the
    panels: tile pairs by path and the steps that multiplied them."""
    paths = {}
    seen = len(store.tracer.spans())
    with store.tracer.recording():
        yield paths
    panels = [span.args for span in store.tracer.spans()[seen:]
              if span.name == "spgemm:row_panel"]
    paths.update(csr=sum(p["csr_pairs"] for p in panels),
                 dense=sum(p["dense_pairs"] for p in panels),
                 steps=sum(p["steps"] for p in panels))


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
    """Everything a product stores, by tile: bytes, nnz and the triple
    (where a tile starts depends on the order tiles were appended)."""
    return {t: (length, nnz,
                [part.tolist() for part in c.read_tile_csr(*t)])
            for t, (_, length, nnz) in c.directory.items()}


@settings(max_examples=300, deadline=None)
@given(p=products())
def test_same_numbers_and_same_io_as_the_densify_loop(p):
    """Integer-valued operands make every sum exact, so both loops must
    store the same tiles in as many bytes, each page written once — and
    the panel schedule's reads are its own count: at most the old loop's one-read-per-pair,
    and exactly the count when nothing can survive in the pool from one
    panel to the next."""
    rng = np.random.default_rng(p["seed"])
    tiles = _tiles(p)
    a_np = _operand(rng, (p["m"], p["l"]), tiles[:2], integers=True)
    b_np = _operand(rng, (p["l"], p["n"]), tiles[1:], integers=True)
    want = a_np @ b_np

    store = _store(p["capacity"], p["scheduler"])
    a, b = _load(store, a_np, b_np, tiles, p["linearization"])
    with counted_paths(store) as paths:
        c = spgemm(store, a, b, p["memory"])
    store.flush()
    io = store.device.stats.snapshot()

    ref_store = _store(p["capacity"], p["scheduler"])
    ref_c = ref_spgemm(ref_store, *_load(ref_store, a_np, b_np, tiles,
                                         p["linearization"]))
    ref_store.flush()
    ref_io = ref_store.device.stats.snapshot()
    # The loops append the same tiles in another order (panel by
    # panel, column by column against row by row), so they pack them
    # into pages differently; each writes its pages once, and never
    # more than tiles on pages of their own would take.
    assert (io.writes, ref_io.writes) == (c.data_pages, ref_c.data_pages)
    assert io.bytes_written == io.writes * store.device.block_size
    spans = sum(len(c.tile_pages(*t)) for t in c.directory)
    assert max(io.writes, ref_io.writes) <= spans
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

    assert paths == expected_paths(a_np, b_np, tiles, panels)
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
    pages = len({page for t in b.directory if t[0] in streamed[0]
                 for page in b.tile_pages(*t)})
    return (all(ks == streamed[0] for ks in streamed)
            and pages - biggest_tile(b) >= 2 * capacity)


@settings(max_examples=100, deadline=None)
@given(p=products(), capacity=st.integers(4, 64),
       scheduler=st.booleans(), foreign=st.booleans(),
       memory=st.integers(1, 1 << 15),
       join=st.sampled_from([1, 3, 50, kernels.JOIN_PRODUCTS]))
def test_bits_depend_on_operands_and_grid_only(p, capacity, scheduler,
                                               foreign, memory, join):
    """Real-valued operands: the result is bitwise the written-out
    summation order, whatever pool, scheduler or hinting delivered the
    tiles (operands of a foreign store switch hinting off), whatever
    budget set the panel height and wherever a step's join was cut."""
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
    a, b = _load(home, a_np, b_np, tiles, p["linearization"])
    # Whatever was drawn, one-row panels, a two-row panel (tiles stacked
    # at all) and one panel of every row (the tallest stack) also run.
    with mock.patch.object(kernels, "JOIN_PRODUCTS", join):
        for budget in (memory, *_budgets_by_height(a, b)):
            c2 = spgemm(other, a, b, budget)
            assert _bits(c2.to_numpy()) == want
    if foreign:
        assert other.pool.scheduler.stats.hinted_blocks == 0


def _budgets_by_height(a, b) -> tuple[int, int, int]:
    """Budgets that cut A into one-row panels, into a first panel of two
    rows, and into one panel."""
    th, tw = a.tile_shape[0], b.tile_shape[1]
    needed, ones = kernels.spgemm_schedule(a, b, 1)
    # What the schedule holds for two rows: the largest B tile as read,
    # two accumulators, the rows' A tiles.
    two = (max((tile_words(b.tile_shape[0], nnz)
                for _, _, nnz in b.directory.values()), default=0)
           + 2 * th * tw
           + sum(tile_words(th, a.tile_nnz(ti, k))
                 for ti, ks in enumerate(needed[:2]) for k in ks))
    rows = a.grid[0]
    assert ones == [(ti, ti + 1) for ti in range(rows)]
    assert kernels.spgemm_schedule(a, b, two)[1][0] == (0, min(2, rows))
    assert kernels.spgemm_schedule(a, b, 1 << 40)[1] == [(0, rows)]
    return 1, two, 1 << 40


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
    with counted_paths(store) as paths:
        c = spgemm(store, *_load(store, a_np, b_np, tiles), MEMORY)
    assert paths == {"csr": 1, "dense": 1, "steps": 2} \
        == expected_paths(a_np, b_np, tiles, [(0, 1)])
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
    assert np.allclose(c.to_numpy(), a_np @ b_np)


@pytest.mark.parametrize("sanitize", [False, True])
def test_counts_ride_on_the_panel_spans(sanitize):
    """One ``spgemm:row_panel`` span per panel carries that panel's
    pairs by path and its steps; with the tracer off (a null span, or
    the sanitizer's observer span) nothing is recorded."""
    rng = np.random.default_rng(19)
    a_np = (rng.random((32, 16)) < 0.1) * rng.standard_normal((32, 16))
    b_np = (rng.random((16, 24)) < 0.1) * rng.standard_normal((16, 24))
    tiles = (8, 8, 8)
    store = ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=16 * BLOCK, sanitize=sanitize))
    a, b = _load(store, a_np, b_np, tiles)
    panels = kernels.spgemm_schedule(a, b, 400)[1]
    assert len(panels) == 2
    quiet = spgemm(store, a, b, 400)
    assert len(store.tracer) == 0
    with store.tracer.recording():
        c = spgemm(store, a, b, 400)
    spans = [span for span in store.tracer.spans()
             if span.name == "spgemm:row_panel"]
    assert [(s.args["lo"], s.args["hi"]) for s in spans] == panels
    for span, panel in zip(spans, panels):
        lo, hi = (edge * 8 for edge in panel)
        want = expected_paths(a_np[lo:hi], b_np, tiles, [(0, 99)])
        assert {key: span.args[arg] for key, arg in (
            ("csr", "csr_pairs"), ("dense", "dense_pairs"),
            ("steps", "steps"))} == want
    assert _bits(c.to_numpy()) == _bits(quiet.to_numpy())


@pytest.mark.parametrize("pad,tk,path,pairs", [
    (1, 2, "dense", 1),      # 2 products in a 1x2x1 tile: above the crossover
    (1, 1, "dense", 2),      # ... cancelling across two k-tiles
    (24, 48, "csr", 1),      # padded into a 24x48x24 tile: below it
    (24, 1, "csr", 2),
])
def test_exact_cancellation_stores_nothing(pad, tk, path, pairs):
    """``[[1, 1]] . [[1], [-1]]`` is a zero nobody stored — alone in
    its accumulator, or stacked above a block row whose sum survives."""
    for stack in (1, 2):
        a_np = np.zeros((stack * pad, 2 * pad))
        b_np = np.zeros((2 * pad, pad))
        a_np[0, :2] = 1.0
        b_np[:2, 0] = [1.0, -1.0]
        if stack == 2:
            a_np[pad, :2] = [1.0, 3.0]
        store = _store(8, True)
        a, b = _load(store, a_np, b_np, (pad, tk, pad))
        assert kernels.spgemm_schedule(a, b, MEMORY)[1] == [(0, stack)]
        with counted_paths(store) as paths:
            c = spgemm(store, a, b, MEMORY)
        # One step per k-tile however many rows are stacked under it.
        assert paths == {"csr": 0, "dense": 0, "steps": pairs,
                         path: stack * pairs}
        assert set(c.directory) == ({(1, 0)} if stack == 2 else set())
        assert c.nnz == stack - 1 and c.data_pages == stack - 1
        assert np.array_equal(c.to_numpy(), a_np @ b_np)


def test_one_step_uses_both_paths():
    """Three held tiles meet one B tile in one step: the middle pair is
    above the crossover and goes to BLAS alone, its neighbours stay in
    the stacked join — a step that chose one path for the whole stack,
    or masked the wrong segment, would move counts and bits."""
    rng = np.random.default_rng(13)
    a_np = np.zeros((48, 16))
    a_np[16:32] = rng.standard_normal((16, 16))          # ti = 1: full
    a_np[[2, 9, 40, 47], [3, 3, 0, 15]] = rng.standard_normal(4)
    b_np = (rng.random((16, 16)) < 0.25) * rng.standard_normal((16, 16))
    tiles = (16, 16, 16)
    store = _store(16, True)
    a, b = _load(store, a_np, b_np, tiles)
    assert kernels.spgemm_schedule(a, b, MEMORY)[1] == [(0, 3)]
    with counted_paths(store) as paths:
        c = spgemm(store, a, b, MEMORY)
    assert paths == {"csr": 2, "dense": 1, "steps": 1} \
        == expected_paths(a_np, b_np, tiles, [(0, 3)])
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
    assert np.allclose(c.to_numpy(), a_np @ b_np)


@pytest.mark.parametrize("memory,panels", [
    (1, [(0, 1), (1, 2), (2, 3)]), (3000, [(0, 2), (2, 3)]),
    (MEMORY, [(0, 3)])])
def test_ragged_last_row_and_rectangular_tiles(memory, panels):
    """``th != tk != tw`` over a shape none of them divides, so the last
    block row (10 of 24 rows) is stacked under full ones — and its
    crossover is its own: at inner tile 1 its 42 products are above
    1/256 of a 10x16x40 tile, the 29 and 32 of the rows above it below
    1/256 of a 24x16x40 one, in the same step."""
    rng = np.random.default_rng(17)
    a_np = (rng.random((58, 37)) < 0.05) * rng.standard_normal((58, 37))
    b_np = (rng.random((37, 53)) < 0.05) * rng.standard_normal((37, 53))
    a_np[48:, 16:32] = ((rng.random((10, 16)) < 0.15)
                        * rng.standard_normal((10, 16)))
    tiles = (24, 16, 40)
    step = {rows.start // 24: (products, _is_dense_pair(a_blk, b_blk,
                                                         products))
            for rows, cols, k, a_blk, b_blk, products
            in _pairs(a_np, b_np, tiles) if (k, cols.start) == (1, 0)}
    assert step == {0: (29, False), 1: (32, False), 2: (42, True)}
    store = _store(16, True)
    a, b = _load(store, a_np, b_np, tiles)
    assert kernels.spgemm_schedule(a, b, memory)[1] == panels
    with counted_paths(store) as paths:
        c = spgemm(store, a, b, memory)
    assert paths == expected_paths(a_np, b_np, tiles, panels)
    assert paths["steps"] == 6 * len(panels)
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
    assert np.allclose(c.to_numpy(), a_np @ b_np)


def test_empty_rows_and_unmatched_tiles_in_a_stack():
    """The ``reduceat`` edge cases: held tiles whose first and last rows
    store nothing, and held tiles — in the middle of the stack and at
    its end — none of whose nonzeros meets a stored row of the B tile,
    so their segments of the join are all zero counts.  A segment is
    never empty, because an empty tile is never held."""
    a_np = np.zeros((64, 16))
    a_np[[1, 8, 14], [0, 3, 2]] = [0.7, -1.1, 1.3]    # rows 0, 15 empty
    a_np[16:32, 6] = 0.3                  # ti = 1: meets only B's row 6
    a_np[[33, 46], [2, 0]] = -1.25        # ti = 2: rows 32, 47 empty
    a_np[48:, 7] = 2.0                    # ti = 3: meets only B's row 7
    b_np = np.zeros((16, 16))
    b_np[:4, ::4] = np.arange(16.0).reshape(4, 4) / 3 - 2
    tiles = (16, 16, 16)
    store = _store(16, True)
    a, b = _load(store, a_np, b_np, tiles)
    needed, panels = kernels.spgemm_schedule(a, b, MEMORY)
    assert panels == [(0, 4)]
    hold_panel, held_panels = kernels._hold_panel, []

    def spy(*args):
        held_panels.append(hold_panel(*args))
        return held_panels[-1]

    with counted_paths(store) as paths, \
            mock.patch.object(kernels, "_hold_panel", spy):
        c = spgemm(store, a, b, MEMORY)
    (held,) = held_panels        # as the panel's steps filled it
    assert [col.tis for col in held.values()] == [[0, 1, 2, 3]]
    for col in held.values():
        assert np.all(np.diff(col.seg, append=col.indices.size) > 0)
        assert col.lens[[0, 15, 32, 47]].tolist() == [0, 0, 0, 0]
    assert paths == {"csr": 2, "dense": 0, "steps": 1} \
        == expected_paths(a_np, b_np, tiles, panels)
    assert set(c.directory) == {(0, 0), (2, 0)}
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))


@pytest.mark.parametrize("scheduler", [False, True])
def test_a_pool_that_holds_b_pays_for_it_once_per_panel(scheduler):
    """The one regime where row panels read more than the output-tile
    loop did.  A is tall (8 block rows, 24 packed pages; 35 with 8-byte
    indices, 48 with every tile on pages of its own), B small (6 pages;
    9, 12), every tile full, and the 16-frame pool holds B beside one
    block row of A and the output tile being written (32 frames, enough
    for 8-byte indices, hold B beside a whole panel of narrow ones):
    the old loop found B in the pool after the first block row and
    read everything once.  A panel's A reads
    go through the same pool, so a panel of four rows flushes B and
    the next panel reads it again:
    ``pages(A) + panels * pages(B)``, the schedule's own count and the
    bound in general.  At either end of the budget the loss is gone —
    one-row panels leave B in the pool as the old loop did, one panel
    reads it once by construction."""
    a_np = np.arange(64 * 16, dtype=float).reshape(64, 16) % 7 + 1
    b_np = np.arange(16 * 16, dtype=float).reshape(16, 16) % 5 + 1
    tiles = (8, 8, 8)

    def reads_of(product, *budget):
        store = _store(16, scheduler)
        a, b = _load(store, a_np, b_np, tiles)
        assert (a.data_pages, b.data_pages) == (24, 6)
        c = product(store, a, b, *budget)
        store.flush()
        reads = store.device.stats.reads
        assert np.array_equal(c.to_numpy(), a_np @ b_np)
        if not budget:
            return reads
        return (reads, spgemm_schedule_reads(a, b, *budget),
                len(kernels.spgemm_schedule(a, b, *budget)[1]))

    assert reads_of(ref_spgemm) == 24 + 6
    # Room for four rows' accumulators and CSR triples beside a B tile.
    assert reads_of(spgemm, 1600) == (24 + 2 * 6, 24 + 2 * 6, 2)
    assert reads_of(spgemm, 1) == (24 + 6, 24 + 8 * 6, 8)
    assert reads_of(spgemm, 1 << 15) == (24 + 6, 24 + 6, 1)


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
    with counted_paths(store) as paths:
        c = spgemm(store, a, b, 1 << 17)
    assert paths == expected_paths(a_np, b_np, tiles,
                                   kernels.spgemm_schedule(a, b, 1 << 17)[1])
    assert paths["steps"] < paths["csr"] + paths["dense"]
    assert paths["csr"] and paths["dense"]
    assert np.allclose(c.to_numpy(), a_np @ b_np)
    assert _bits(c.to_numpy()) == _bits(model_spgemm(a_np, b_np, tiles))
