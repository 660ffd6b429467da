"""Window-granular vector streaming against NumPy and against itself.

The evaluator runs a fused elementwise region's tape once per prefetch
window: one run read per stored source, one pass over the tape, one
run write.  Nobody may be able to tell how wide the window was: results
are bitwise NumPy's on the logical DAG, every source chunk is fetched
once and every output chunk written once whatever the pool size, and
reductions keep the bits of the one-chunk-per-window run.

The same random DAGs then run as matrix regions — over tiles, as the
epilogue of a product, and under a reduction — at every optimizer
level, bitwise against NumPy.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OptimizerConfig, RiotSession
from repro.core import evaluator as evaluator_module
from repro.core.costs import STREAM_PREFETCH_CHUNKS, stream_window
from repro.core.expr import (ArrayInput, ELEMENTWISE_OPS, Map, MatMul,
                             Range, Reduce, Scalar, Subscript,
                             SubscriptAssign)
from repro.core.session import RiotVector
from repro.storage import StorageConfig

BLOCK = 512
CHUNK = BLOCK // 8           # the store's standard chunk: 64 scalars
N_STORED = 3
WINDOWS = (1, 3, STREAM_PREFETCH_CHUNKS)

UNARY = ("neg", "abs", "floor", "ceil", "sqrt")   # sqrt is fed abs(.)
BINARY = ("+", "-", "*", "/")
COMPARE = ("<", ">", "<=", ">=", "==", "!=")


# ----------------------------------------------------------------------
# DAG specs: a list of instructions, each naming earlier slots, so
# leaves and interior nodes are shared freely.  Slots 0..5 are fixed:
# three stored vectors, a plain ndarray, a Range, a gathered vector.
# The gather is evaluated first and joins the DAG as a stored input (an
# execution owns its memo, so that is how a result is handed on), at
# the root only, so it is read once.
# ----------------------------------------------------------------------
N_LEAVES = N_STORED + 3
NDARRAY, RANGE, GATHER = N_STORED, N_STORED + 1, N_STORED + 2


@st.composite
def dag_specs(draw):
    steps: list[tuple] = []
    vectors = list(range(GATHER))        # slots holding float vectors
    scalars: list[int] = []              # slots holding 0-d values
    masks: list[int] = []                # slots holding boolean vectors
    for _ in range(draw(st.integers(1, 9))):
        slot = N_LEAVES + len(steps)
        kind = draw(st.sampled_from(
            ["scalar", "scalar_map", "unary", "binary", "binary",
             "compare", "ifelse", "assign", "mask_arith", "mask_arith"]))
        if kind == "scalar" or (kind == "scalar_map" and not scalars):
            steps.append(("scalar", draw(st.floats(-3.0, 3.0))))
            scalars.append(slot)
        elif kind == "scalar_map":       # a subtree with no vector in it
            steps.append(("binary", draw(st.sampled_from(("+", "-", "*"))),
                          draw(st.sampled_from(scalars)),
                          draw(st.sampled_from(scalars))))
            scalars.append(slot)
        elif kind == "unary":
            steps.append(("unary", draw(st.sampled_from(UNARY)),
                          draw(st.sampled_from(vectors))))
            vectors.append(slot)
        elif kind == "binary":
            steps.append(("binary", draw(st.sampled_from(BINARY)),
                          draw(st.sampled_from(vectors)),
                          draw(st.sampled_from(vectors + scalars))))
            vectors.append(slot)
        elif kind == "compare" or not masks:
            steps.append(("binary", draw(st.sampled_from(COMPARE)),
                          draw(st.sampled_from(vectors)),
                          draw(st.sampled_from(vectors + scalars))))
            masks.append(slot)
        elif kind == "mask_arith":       # -(x > y), (x > y) - (x > z)
            if draw(st.booleans()):
                steps.append(("unary", draw(st.sampled_from(("neg", "floor"))),
                              draw(st.sampled_from(masks))))
            else:
                steps.append(("binary", draw(st.sampled_from(("-", "+"))),
                              draw(st.sampled_from(masks)),
                              draw(st.sampled_from(masks + vectors
                                                   + scalars))))
            vectors.append(slot)
        elif kind == "ifelse":
            steps.append(("ifelse", draw(st.sampled_from(masks)),
                          draw(st.sampled_from(vectors + scalars)),
                          draw(st.sampled_from(vectors))))
            vectors.append(slot)
        else:                            # base[mask] <- value
            steps.append(("assign", draw(st.sampled_from(vectors)),
                          draw(st.sampled_from(masks)),
                          draw(st.sampled_from(vectors + scalars))))
            vectors.append(slot)
    # The root always streams stored vector 0, so every run has at least
    # one prefetched source and the window formula has a source to count.
    steps.append(("binary", "+", vectors[-1], 0))
    if draw(st.booleans()):
        steps.append(("binary", "*", N_LEAVES + len(steps) - 1, GATHER))
    return steps


def _apply(step: tuple, slots: list, fn) -> object:
    """One instruction over ``slots``; ``fn(op, *args)`` makes the Map."""
    kind = step[0]
    if kind == "unary":
        arg = slots[step[2]]
        if step[1] == "sqrt":
            arg = fn("abs", arg)
        return fn(step[1], arg)
    if kind == "binary":
        return fn(step[1], slots[step[2]], slots[step[3]])
    if kind == "ifelse":
        return fn("ifelse", slots[step[1]], slots[step[2]], slots[step[3]])
    raise AssertionError(kind)


def _arith(op: str, *args):
    """``ELEMENTWISE_OPS[op]``, reading a logical as R's 0/1 doubles
    wherever the op is arithmetic (``-(x > y)``)."""
    if op != "ifelse":
        args = tuple(a.astype(np.float64)
                     if getattr(a, "dtype", None) == np.bool_ else a
                     for a in args)
    return ELEMENTWISE_OPS[op](*args)


def numpy_oracle(steps, leaves: list[np.ndarray]) -> np.ndarray:
    slots: list = list(leaves)
    for step in steps:
        if step[0] == "scalar":
            slots.append(float(step[1]))
        elif step[0] == "assign":
            base, mask, value = (slots[i] for i in step[1:])
            slots.append(np.where(mask, value, base))
        else:
            slots.append(_apply(step, slots, _arith))
    return np.asarray(slots[-1], dtype=np.float64)


def build_dag(steps, leaf_nodes: list):
    slots: list = list(leaf_nodes)
    for step in steps:
        if step[0] == "scalar":
            slots.append(Scalar(step[1]))
        elif step[0] == "assign":
            base, mask, value = (slots[i] for i in step[1:])
            slots.append(SubscriptAssign(base, mask, value,
                                         logical_mask=True))
        else:
            slots.append(_apply(step, slots, Map))
    return slots[-1]


def _reachable_sources(steps) -> int:
    """Stored vectors, the gathered one included, the root streams."""
    live = {N_LEAVES + len(steps) - 1}
    for slot in range(N_LEAVES + len(steps) - 1, N_LEAVES - 1, -1):
        if slot in live:
            live.update(a for a in steps[slot - N_LEAVES][1:]
                        if isinstance(a, int))
    return sum(1 for s in live if s < N_STORED or s == GATHER)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class _Run:
    """One cold streaming pass of a spec at one window and scheduler
    setting, plus the four reductions of the same DAG."""

    def __init__(self, steps, data, perm, lo, window, scheduler):
        n_src = _reachable_sources(steps)
        capacity = {1: 4}.get(window, window * (n_src + 1) + 2)
        s = RiotSession(storage=StorageConfig(
            block_size=BLOCK, memory_bytes=capacity * BLOCK,
            scheduler=scheduler))
        stored = [ArrayInput(s.store.vector_from_numpy(d))
                  for d in data[:N_STORED]]
        ev = s.evaluator
        gathered = ev.force(Subscript(stored[1],
                                      ArrayInput(perm + 1.0)))
        leaves = stored + [
            ArrayInput(data[N_STORED]),
            Range(lo, lo + data[0].size - 1),
            ArrayInput(gathered)]
        root = build_dag(steps, leaves)
        seen_windows: list[int] = []

        def spy(pool_blocks: int, n_sources: int) -> int:
            seen_windows.append(stream_window(pool_blocks, n_sources))
            return seen_windows[-1]
        # The stream starts from a cold pool.
        s.store.pool.clear()
        s.store.reset_stats()
        with mock.patch.object(evaluator_module, "stream_window", spy):
            out = ev.force(root)
        s.store.flush()
        self.window = seen_windows[-1]
        self.n_src = n_src
        self.io = s.store.device.stats.snapshot()
        self.pool = s.store.pool.stats.snapshot()
        self.out_chunks = out.num_chunks
        self.values = out.to_numpy()
        self.reduced = {op: ev.force(Reduce(op, root))
                        for op in ("sum", "mean", "min", "max")}
        s.close()


# errstate is per thread: under REPRO_PARALLELISM > 1 the stream runs on
# a plan worker, where only the warning filter reaches.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(steps=dag_specs(), n=st.integers(1, 40 * CHUNK),
       lo=st.integers(-5, 5), seed=st.integers(0, 2 ** 16))
def test_window_width_is_invisible(steps, n, lo, seed):
    with np.errstate(all="ignore"):      # x / 0 is part of the domain
        _check_window_width_is_invisible(steps, n, lo, seed)


def _check_window_width_is_invisible(steps, n, lo, seed):
    rng = np.random.default_rng(seed)
    # Small integers now and then, so == and != see both outcomes.
    data = [np.round(rng.standard_normal(n) * 2) if i % 2
            else rng.standard_normal(n) for i in range(N_STORED + 1)]
    perm = rng.permutation(n)
    want = numpy_oracle(steps, data + [
        np.arange(lo, lo + n, dtype=np.float64), data[1][perm]])
    want = np.broadcast_to(want, (n,))

    runs = {(w, sched): _Run(steps, data, perm, lo, w, sched)
            for w in WINDOWS for sched in (True, False)}
    chunks = -(-n // CHUNK)
    first = runs[1, True]
    for (window, sched), run in runs.items():
        assert run.window == window
        assert _bits(run.values) == _bits(want)
        # every source chunk is read once, every output chunk written
        # once — at any window, hinted or not
        assert run.io.reads == run.n_src * chunks
        assert run.io.writes == run.out_chunks == chunks
        assert (run.io.bytes_read, run.io.bytes_written) == \
            (first.io.bytes_read, first.io.bytes_written)
        assert run.pool.accesses == (run.n_src + 1) * chunks
        for op, value in run.reduced.items():
            assert _bits(value) == _bits(first.reduced[op]), (op, window)


# ----------------------------------------------------------------------
# Shared leaves are fetched once per window
# ----------------------------------------------------------------------
def test_example1_fetches_each_leaf_once_per_window():
    n = 40 * 1024 + 17
    rng = np.random.default_rng(7)
    xv, yv = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    s = RiotSession(storage=StorageConfig(memory_bytes=2 * 1024 * 1024))
    x, y = s.vector(xv), s.vector(yv)
    d = (((x - 1.0) ** 2 + (y - 2.0) ** 2).sqrt()
         + ((x - 3.0) ** 2 + (y - 4.0) ** 2).sqrt())
    s.store.pool.clear()
    s.store.reset_stats()
    out = s.force(d)
    chunks = out.num_chunks
    pool = s.store.pool.stats
    # x and y appear twice each in the expression; a window reads each
    # once (a prefetched hit per chunk) and puts each output chunk once.
    assert pool.hits == 2 * chunks
    assert pool.misses == chunks
    assert s.store.device.stats.reads == 2 * chunks
    want = (np.sqrt((xv - 1.0) ** 2 + (yv - 2.0) ** 2)
            + np.sqrt((xv - 3.0) ** 2 + (yv - 4.0) ** 2))
    assert _bits(out.to_numpy()) == _bits(want)


# ----------------------------------------------------------------------
# Sources on their own chunk grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", [512, 768, 1000])
def test_streaming_reads_a_source_by_element_range(chunk):
    """A stored vector is sliced by element range, not by the output's
    chunk index: its own chunk size need not be the store's."""
    s = RiotSession()
    n = 5000
    v = s.store.create_vector(n, chunk=chunk).from_numpy(
        np.arange(n, dtype=np.float64))
    x = RiotVector(s, ArrayInput(v))
    assert x.sum() == np.arange(n).sum() == 12_497_500
    assert x.max() == n - 1
    assert x.min() == 0.0
    assert _bits(s.force(x + 1.0).to_numpy()) == \
        _bits(np.arange(n) + 1.0)
    y = s.vector(np.ones(n))             # standard grid next to it
    assert _bits(s.force(x * 2.0 - y).to_numpy()) == \
        _bits(np.arange(n) * 2.0 - 1.0)


def test_positional_assign_copies_a_source_on_its_own_grid():
    s = RiotSession()
    n = 3000
    v = s.store.create_vector(n, chunk=768).from_numpy(
        np.arange(n, dtype=np.float64))
    x = RiotVector(s, ArrayInput(v))
    got = s.values(x.assign(slice(1, 10), -1.0))
    want = np.arange(n, dtype=np.float64)
    want[:10] = -1.0
    assert _bits(got) == _bits(want)


# ----------------------------------------------------------------------
# A reduction allocates nothing
# ----------------------------------------------------------------------
def test_reduce_leaves_no_vector_behind():
    s = RiotSession()
    x = s.vector(np.linspace(-1.0, 1.0, 50_000))
    names = s.stored_names()
    blocks = s.store.device.allocated_blocks
    assert (x * x).sum() > 0
    assert s.stored_names() == names
    assert s.store.device.allocated_blocks == blocks
    # ... nor when the stream raises part-way: y's pages are gone
    y = s.vector(np.ones(50_000))
    product = x * y
    y.node.data.drop()
    names = s.stored_names()
    blocks = s.store.device.allocated_blocks
    with pytest.raises(IndexError):
        product.sum()
    assert s.stored_names() == names
    assert s.store.device.allocated_blocks == blocks


# ----------------------------------------------------------------------
# The same DAGs as matrix regions: over tiles, on a product's resident
# block, and under a Reduce — levels 0 / 1 / 2 against NumPy
# ----------------------------------------------------------------------
MATRIX_FORMS = ("tiles", "product", "reduce")


def _matrix_leaves(s, data, factors):
    """The six leaf slots as matrix nodes: stored matrices, the plain
    ndarray as is, the range slot as one more stored matrix, and in
    the product form slot 0 the product of two stored factors."""
    leaves = [ArrayInput(d) if i == NDARRAY else s.matrix(d).node
              for i, d in enumerate(data)]
    if factors is not None:
        a, b = (s.matrix(f).node for f in factors)
        leaves[0] = MatMul(a, b)
    return leaves


def _tile_fold(values: np.ndarray, th: int, tw: int) -> dict[str, float]:
    """The reductions as the engine folds them: one partial per tile,
    in row-major tile order."""
    total, low, high = 0.0, np.inf, -np.inf
    for r in range(0, values.shape[0], th):
        for c in range(0, values.shape[1], tw):
            tile = np.ascontiguousarray(values[r:r + th, c:c + tw])
            total += float(tile.sum())
            low = min(low, float(tile.min()))
            high = max(high, float(tile.max()))
    return {"sum": total, "mean": total / values.size, "min": low,
            "max": high}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(steps=dag_specs(), form=st.sampled_from(MATRIX_FORMS),
       rows=st.integers(1, 20), cols=st.integers(1, 20),
       seed=st.integers(0, 2 ** 16))
def test_matrix_regions_match_numpy(steps, form, rows, cols, seed):
    with np.errstate(all="ignore"):
        _check_matrix_regions(steps, form, rows, cols, seed)


def _check_matrix_regions(steps, form, rows, cols, seed):
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    data = [np.round(rng.standard_normal(shape) * 2) if i % 2
            else rng.standard_normal(shape) for i in range(N_LEAVES)]
    data[RANGE] = np.arange(rows * cols, dtype=np.float64).reshape(shape)
    factors = None
    if form == "product":
        # Integer-valued factors: every tiled summation order is exact,
        # so the engine's product is NumPy's, bit for bit.
        factors = (rng.integers(-4, 5, (rows, 5)).astype(np.float64),
                   rng.integers(-4, 5, (5, cols)).astype(np.float64))
        data[0] = factors[0] @ factors[1]
    want = np.broadcast_to(numpy_oracle(steps, data), shape)
    for level in (0, 1, 2):
        s = RiotSession(
            storage=StorageConfig(block_size=BLOCK,
                                  memory_bytes=64 * BLOCK),
            config=OptimizerConfig(level=level, strict=True))
        leaves = _matrix_leaves(s, data, factors)
        root = build_dag(steps, leaves)
        if form == "reduce":
            # Every matrix of this shape is cut on the same grid.
            oracle = _tile_fold(want, *leaves[1].data.tile_shape)
            for op, value in oracle.items():
                got = s.values(Reduce(op, root))
                assert _bits(got) == _bits(value), (op, level)
        else:
            assert _bits(s.values(root)) == _bits(want), level
        s.close()
