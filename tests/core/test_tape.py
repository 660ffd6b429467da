"""The region tape: what each step computes, where it writes, what it
reads.

``x ^ 2`` is a square, bit for bit ``np.power(x, 2.0)`` (R's ``R_POW``
rule); any other exponent stays a power.  A run writes each exact step
into the array of a dead interior slot, never into an input: a stored
vector's window arrives as a read-only view of the buffer pool's
pages, and whatever the caller hands the tile store is copied before
the pool keeps it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import RiotSession
from repro.core import parallel as parallel_module
from repro.core.expr import ArrayInput, Map, Scalar
from repro.storage import ArrayStore, StorageConfig

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
            -5e-324, 2.2250738585072014e-308, 1.3407807929942596e154,
            -1.3407807929942597e154, 1e-162, 3.0]


def _region(s, handle):
    plan = s.plan(handle)
    (region,) = [op.region for op in plan.ops() if op.region is not None]
    return region


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(values=hnp.arrays(np.float64, st.integers(1, 64),
                         elements=st.floats(allow_nan=True,
                                            allow_infinity=True,
                                            allow_subnormal=True)
                         | st.sampled_from(SPECIALS)))
def test_square_is_power_two_bit_for_bit(values):
    s = RiotSession()
    x = s.vector(values)
    region = _region(s, x ** 2)
    assert [fn for fn, _ in region.tape] == [np.square]
    with np.errstate(all="ignore"):
        want = np.power(values, 2.0)
        got = region.run(lambda n: values)
        assert _bits(got) == _bits(want)
        assert _bits(s.values(x ** 2)) == _bits(want)


@pytest.mark.parametrize("make", [
    lambda x, y: x ** 2.5, lambda x, y: x ** y, lambda x, y: 2 ** x,
    lambda x, y: x ** 3, lambda x, y: x ** -2])
def test_any_other_exponent_stays_a_power(make):
    s = RiotSession()
    x, y = s.vector(np.arange(1.0, 6.0)), s.vector(np.full(5, 2.0))
    region = _region(s, make(x, y))
    assert [fn for fn, _ in region.tape] == [np.power]
    want = make(np.arange(1.0, 6.0), np.full(5, 2.0))
    assert _bits(s.values(make(x, y))) == _bits(want)


def test_a_run_reuses_dead_slots_and_never_writes_an_input():
    """Example 1's thirteen steps write into three arrays; the inputs
    are read-only and come back untouched."""
    n = 1000
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    s = RiotSession()
    x, y = s.vector(xs), s.vector(ys)
    d = (((x - 1.0) ** 2 + (y - 2.0) ** 2).sqrt()
         + ((x - 3.0) ** 2 + (y - 4.0) ** 2).sqrt())
    region = _region(s, d)
    inputs = {id(x.node): xs.copy(), id(y.node): ys.copy()}
    for arr in inputs.values():
        arr.flags.writeable = False
    results = []                 # every step's result, kept alive

    def spy(fn):
        def step(*args, **kw):
            results.append(fn(*args, **kw))
            return results[-1]
        return step

    region.tape = tuple((spy(fn), args) for fn, args in region.tape)
    got = region.run(lambda node: inputs.get(id(node), getattr(
        node, "value", None)))
    want = (np.sqrt((xs - 1.0) ** 2 + (ys - 2.0) ** 2)
            + np.sqrt((xs - 3.0) ** 2 + (ys - 4.0) ** 2))
    assert _bits(got) == _bits(want)
    assert len(results) == 13 and len({id(r) for r in results}) == 3
    assert _bits(inputs[id(x.node)]) == _bits(xs)


def test_a_window_view_handed_to_the_tape_raises_on_write():
    s = RiotSession(storage=StorageConfig(block_size=512))
    v = s.store.vector_from_numpy(np.arange(1000.0))
    s.store.pool.clear()
    view = v.view_range(64, 600)
    assert not view.flags.writeable
    assert _bits(view) == _bits(np.arange(64.0, 600.0))
    frame = s.store.pool._frames[v.blocks_for_chunks(range(1, 2))[0]]
    assert np.shares_memory(view, frame)   # a view, not a copy
    with pytest.raises(ValueError, match="read-only"):
        view[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.negative(view, out=view)
    # The streaming driver hands the tape exactly such views.
    seen = []
    read = parallel_module.read
    with mock.patch.object(parallel_module, "read",
                           lambda *operand: seen.append(
                               read(*operand)) or seen[-1]):
        out = s.force(Map("neg", ArrayInput(v)))
    assert _bits(out.to_numpy()) == _bits(-np.arange(1000.0))
    assert seen and not any(a.flags.writeable for a in seen)


def test_scalar_inputs_pass_through():
    s = RiotSession()
    x = s.vector(np.arange(4.0))
    region = _region(s, Map("+", Map("*", x.node, Scalar(2.0)),
                            Scalar(1.0)))
    assert _bits(region.run(lambda n: np.arange(4.0) if n is x.node
                            else n.value)) == _bits(np.arange(4.0) * 2 + 1)


@pytest.mark.parametrize("backend", ["memory", "pread"])
def test_mutating_what_was_written_changes_nothing_read_back(backend):
    store = ArrayStore(StorageConfig(backend=backend, block_size=512,
                                     memory_bytes=64 * 512))
    vals = np.arange(1000.0)
    vec = store.create_vector(1000)
    vec.from_numpy(vals)
    run = np.full(128, 5.0)
    vec.write_chunk(2, run)
    tile = np.ones((8, 8))
    mat = store.create_matrix((16, 16), tile_shape=(8, 8))
    mat.write_tile(1, 0, tile)
    rect = np.full((16, 8), 3.0)
    mat.write_submatrix(0, 8, rect)
    for arr in (vals, run, tile, rect):
        arr[...] = -1.0
    want = np.arange(1000.0)
    want[128:256] = 5.0
    assert _bits(vec.to_numpy()) == _bits(want)
    got = mat.to_numpy()
    assert (got[8:, :8] == 1.0).all() and (got[:, 8:] == 3.0).all()
    store.flush()
    store.pool.clear()
    assert _bits(vec.to_numpy()) == _bits(want)
    assert _bits(mat.to_numpy()) == _bits(got)
    store.close()
