"""Shared scans: ``t(X) %*% B`` rides on ``crossprod(X)``'s passes.

The planner's one inter-operator rule so far: a product ``t(X) %*% B``
whose X is the operand of a ``crossprod(X)`` in the same DAG is
computed by the crossprod's operator on its diagonal passes, so X is
scanned once for both (``Planner._pair_side_products``).  These tests
pin what that may and may not change:

- results are bitwise those of the unshared plan (``fuse_epilogues=
  False``) and of level 0 — inputs are integer-valued, so every path
  that computes the same products gets the same bits — and a cold run writes at most the side products'
  pages more: every intermediate is dropped after its last reader,
  so a write is a dirty frame evicted while its value is alive, and
  sharing computes the side products earlier;
- with X far larger than the pool the shared operator reads exactly
  the crossprod's blocks plus B once per diagonal region, and the run
  saves at least the X scan of the separate flagged multiply.  Not
  exactly: every later operator sees another pool residue, so its
  reads move a few blocks either way;
- the rule fires exactly when ``costs.crossprod_side_fits`` says so,
  and never in the cases listed in ``TestNeverShared``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_plan
from repro.core import (Crossprod, Map, MatMul, OptimizerConfig,
                        RiotSession, Scalar, Solve)
from repro.core.costs import crossprod_schedule, crossprod_side_fits
from repro.core.plan import (CrossprodOp, FusedEpilogueOp, LUSolveOp,
                             MapOp, TileMatMulOp)
from repro.storage import StorageConfig

BLOCK = 1024  # scalars per 8 KiB block; pools below 256 blocks -> 32


def session(mem_blocks, level=2, fuse=None):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_blocks * 8192,
                              block_size=8192),
        config=OptimizerConfig(level=level, fuse_epilogues=fuse))


def integers(rng, shape):
    return rng.integers(-8, 9, size=shape).astype(np.float64)


def normal_equations(s, x_np, b_nps, nested=False):
    """``solve(crossprod(X) + tcrossprod(S_1), S_0 + S_2 %*% 1)`` with
    ``S_i = t(X) %*% B_i`` (terms present as far as there are B's) —
    every side product feeds a non-``Map`` consumer or a multi-barrier
    ``Map``, so none is an epilogue, and each ``Map`` is a region of
    its own with fusion on or off.

    ``nested`` builds ``solve(crossprod(X) + sum_i tcrossprod(S_i),
    S_0)`` instead: a chain of ``Map(+)`` that fusion runs as one
    region and the unfused plan as one operator per ``+``, storing
    each inner sum."""
    x = s.matrix(x_np, name="X")
    sides = [MatMul(x.node, s.matrix(b, name=f"B{i}").node, trans_a=True)
             for i, b in enumerate(b_nps)]
    coef, rhs = Crossprod(x.node), sides[0]
    if nested:
        for side in sides[1:]:
            coef = Map("+", coef, Crossprod(side, t_first=False))
        return x, Solve(coef, rhs)
    if len(sides) > 1:
        coef = Map("+", coef, Crossprod(sides[1], t_first=False))
    if len(sides) > 2:
        ones = s.matrix(np.ones((sides[2].shape[1], rhs.shape[1])))
        rhs = Map("+", rhs, MatMul(sides[2], ones.node))
    return x, Solve(coef, rhs)


def map_ops(plan):
    return sum(isinstance(op, MapOp) for op in plan.ops())


def shared_sides(plan):
    return [n for op in plan.ops() if isinstance(op, CrossprodOp)
            for n in op.side_nodes]


def run_cold(s, root, x):
    """Execute ``root``'s plan on a cold pool; returns ``(values,
    plan, reads, writes, X blocks read by flagged multiplies)``."""
    plan = s.plan(root)
    x_blocks = set(x.submatrix_blocks(0, x.shape[0], 0, x.shape[1]))
    device, ev = s.store.device, s.evaluator
    timed_read, dispatch = device._timed_read, ev._dispatch_op
    running = [None]
    x_in_products = [0]

    def read(first, length):
        if isinstance(running[0], TileMatMulOp):
            x_in_products[0] += len(x_blocks.intersection(
                range(first, first + length)))
        return timed_read(first, length)

    def run_op(op, memo):
        running[0] = op
        return dispatch(op, memo)

    device._timed_read, ev._dispatch_op = read, run_op
    try:
        s.store.pool.clear()
        s.reset_stats()
        out = ev.execute(plan, cold=True)
    finally:
        del device._timed_read, ev._dispatch_op
    stats = s.io_stats
    return (out.to_numpy(), plan, stats.reads, stats.writes,
            x_in_products[0])


def oracle(x_np, b_nps, nested=False):
    s = [x_np.T @ b for b in b_nps]
    if nested:
        coef = x_np.T @ x_np + sum(t @ t.T for t in s[1:])
        return np.linalg.solve(coef, s[0])
    coef = x_np.T @ x_np + sum(t @ t.T for t in s[1:2])
    rhs = s[0] + sum(t @ np.ones((t.shape[1], s[0].shape[1]))
                     for t in s[2:])
    return np.linalg.solve(coef, rhs)


@given(cols=st.integers(10, 90), extra=st.integers(30, 250),
       widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       mem_blocks=st.integers(10, 60),
       seed=st.integers(0, 2 ** 16), nested=st.booleans())
@settings(max_examples=15, deadline=None)
def test_sharing_changes_no_bit_and_no_write(cols, extra, widths,
                                             mem_blocks, seed, nested):
    """Tall X ragged against the 32-wide tile, one to three side
    products, budgets on both sides of the fit threshold; levels
    0 / 1 / 2 against the unshared plan.

    Writes depend on which values are alive when the pool evicts, so
    the shared plan may write fewer blocks (the separate multiply's
    scan of X no longer evicts X'X) or more, but never more than the
    side products' own pages (one per 32 x 32 tile) beyond the
    unshared plan's."""
    rows = cols + extra
    g = np.random.default_rng(seed)
    x_np = integers(g, (rows, cols))
    b_nps = [integers(g, (rows, w)) for w in widths]
    mem = mem_blocks * BLOCK

    runs = {}
    for level, fuse in ((1, False), (1, None), (0, None), (2, None)):
        s = session(mem_blocks, level, fuse)
        x, root = normal_equations(s, x_np, b_nps, nested)
        runs[level, fuse] = run_cold(s, root, s.force(x))
        verify_plan(runs[level, fuse][1], s.storage)

    ref, unshared, reads, writes, _ = runs[1, False]
    assert not shared_sides(unshared)
    assert np.allclose(ref, oracle(x_np, b_nps, nested))
    for key, (values, plan, *_) in runs.items():
        assert np.array_equal(values, ref), key
        if key[0] == 0:
            assert not shared_sides(plan)
    # Level 1 makes every other choice by heuristic, so the two plans
    # differ by the shared scan alone.
    _, plan, s_reads, s_writes, s_x = runs[1, None]
    taken = sum(n.shape[1] for n in shared_sides(plan))
    assert crossprod_side_fits(mem, cols, 32, taken)
    # Greedy in walk order: whatever was left out does not fit on top.
    left = list(widths)
    for n in shared_sides(plan):
        left.remove(n.shape[1])
    assert not any(crossprod_side_fits(mem, cols, 32, taken + w)
                   for w in left)
    inner_sums = map_ops(unshared) - map_ops(plan)
    assert inner_sums == (max(len(widths) - 2, 0) if nested else 0)
    side_pages = sum(math.ceil(cols / 32) * math.ceil(n.shape[1] / 32)
                     for n in shared_sides(plan))
    assert s_writes <= writes + side_pages
    if not left:
        assert s_x == 0  # no flagged multiply left to scan X
    if not taken and not inner_sums:
        assert (s_reads, s_x) == (reads, runs[1, False][4])


@pytest.mark.parametrize("rows,cols,mem_blocks", [
    (4096, 512, 256),   # ols_pread: X 8x the pool, 128-wide tiles
    (2048, 256, 64),
    (2048, 256, 80),
])
def test_out_of_core_sharing_saves_exactly_the_x_scan(rows, cols,
                                                      mem_blocks):
    """With X far larger than the pool the separate flagged multiply
    reads all of X, and the shared operator reads exactly what the
    crossprod alone reads plus B once per diagonal region of the
    schedule — one on these geometries, where the packed triangle of
    X'X fits beside a slab.  The whole run saves at least the X scan
    and writes no more: the separate multiply's scan of X evicts X'X's
    dirty frames, which the solve then reads back, while the shared
    scan leaves them in the pool for the LU to factor in place
    (4 418 / 262 -> 2 088 / 12 read / written on the ``ols_pread``
    geometry: X's 2 048 pages, B's 32 read once instead of twice, and
    X'X's 256 neither written nor read back).  The shared run's solve
    does almost no I/O of its own
    (:func:`test_the_ols_solve_does_no_io_of_its_own`).  The solve's
    reads move by a few blocks either way, because it sees another
    residue."""
    g = np.random.default_rng(0)
    x_np = integers(g, (rows, cols))
    b_nps = [integers(g, (rows, 1))]
    runs = {}
    for fuse in (False, None):
        s = session(mem_blocks, 2, fuse)
        x, root = normal_equations(s, x_np, b_nps)
        x = s.force(x)
        runs[fuse] = run_cold(s, root, x)
    ref, plan, reads, writes, x_reads = runs[False]
    values, s_plan, s_reads, s_writes, s_x = runs[None]
    b = shared_sides(s_plan)[0].children[1].data
    x_pages = x.grid[0] * x.grid[1] * x.pages_per_tile
    b_pages = b.grid[0] * b.grid[1] * b.pages_per_tile
    schedule = crossprod_schedule(rows, cols, max(x.tile_shape),
                                  mem_blocks * BLOCK)

    def op_reads(p, kind):
        [op] = [op for op in p.ops() if isinstance(op, kind)]
        return op.measured.reads

    assert len(shared_sides(s_plan)) == 1 and s_x == 0
    assert x_reads == x_pages == schedule.reads() // BLOCK
    assert op_reads(s_plan, CrossprodOp) == (
        op_reads(plan, CrossprodOp)
        + schedule.diagonal_regions() * b_pages)
    assert s_reads <= reads - x_reads and s_writes <= writes
    assert np.array_equal(values, ref)
    if rows == 4096:
        assert (reads, s_reads, writes, s_writes) == (4418, 2088, 262, 12)


def test_the_ols_solve_does_no_io_of_its_own():
    """On the ``ols_pread`` geometry the 512 x 512 factor of X'X fills
    the 256-frame pool exactly.  X'y is dropped as the LU reads it, no
    permutation is stored and the right-hand side rides through the
    factorization, so the LU and the backward sweep write nothing and
    read only the 4 X'X pages that reading X'y displaced.  Reading X'y
    is the operator's only other I/O: the crossprod's pass left 260
    pages for 256 frames, so X'y's 4 come back from the device and
    evict 4 dirty X'X pages.  (The operator read 68 blocks and wrote 69
    when the sweeps spilled the factor.)"""
    from repro.linalg import solve as solve_module

    g = np.random.default_rng(0)
    x_np = integers(g, (4096, 512))
    b_nps = [integers(g, (4096, 1))]
    s = session(256)
    _, root = normal_equations(s, x_np, b_nps)
    plan = s.plan(root)
    s.store.flush()
    s.store.pool.clear()
    s.reset_stats()
    stats = s.store.device.stats
    factor, sweep = solve_module._factor, solve_module.backward_substitute
    kernel = []

    def factoring(*args, **kwargs):
        kernel.append(stats.snapshot())
        return factor(*args, **kwargs)

    def sweeping(*args, **kwargs):
        out = sweep(*args, **kwargs)
        kernel.append(stats.delta(kernel.pop()))
        return out

    with mock.patch.object(solve_module, "_factor", factoring), \
            mock.patch.object(solve_module, "backward_substitute",
                              sweeping), \
            mock.patch.object(s.store, "vector_from_numpy",
                              side_effect=AssertionError("stored a vector")):
        out = s.evaluator.execute(plan)
    [lu] = [op for op in plan.ops() if isinstance(op, LUSolveOp)]
    [own] = kernel
    assert lu.in_place
    assert (own.reads, own.writes) == (4, 0)
    assert (lu.measured.reads, lu.measured.writes) == (8, 4)
    assert np.allclose(out.to_numpy(), oracle(x_np, b_nps), rtol=1e-9)


class TestNeverShared:
    """Each of these plans keeps ``t(X) %*% B`` as its own operator."""

    MEM = 64  # blocks: room for 282 side columns beside X'X

    def sides_of(self, build, **cfg):
        s = session(cfg.pop("mem_blocks", self.MEM), **cfg)
        g = np.random.default_rng(1)
        x = s.matrix(integers(g, (256, 64)), name="X")
        y = s.matrix(integers(g, (256, 2)), name="y")
        plan = s.plan(build(s, x, y))
        return shared_sides(plan), plan

    def test_the_positive_control_shares(self):
        sides, _ = self.sides_of(
            lambda s, x, y: Solve(Crossprod(x.node),
                                  MatMul(x.node, y.node, trans_a=True)))
        assert len(sides) == 1

    def test_sparse_stored_x(self):
        def build(s, x, y):
            g = np.random.default_rng(2)
            flat = g.choice(256 * 64, size=200, replace=False)
            xs = s.sparse_matrix(flat // 64, flat % 64,
                                 g.standard_normal(200), (256, 64))
            return Solve(Crossprod(xs.node),
                         MatMul(xs.node, y.node, trans_a=True))
        assert self.sides_of(build)[0] == []

    def test_trans_b(self):
        def build(s, x, y):
            yt = s.matrix(np.ones((2, 256)), name="yt")
            return Solve(Crossprod(x.node),
                         MatMul(x.node, yt.node, trans_a=True,
                                trans_b=True))
        assert self.sides_of(build)[0] == []

    def test_tcrossprod_host(self):
        def build(s, x, y):
            z = s.matrix(np.ones((64, 256)), name="z")
            return Solve(Crossprod(z.node, t_first=False),
                         MatMul(z.node, z.node, trans_b=True))
        assert self.sides_of(build)[0] == []

    def test_a_different_x_node(self):
        def build(s, x, y):
            twin = s.matrix(x.values(), name="X2")
            return Solve(Crossprod(x.node),
                         MatMul(twin.node, y.node, trans_a=True))
        assert self.sides_of(build)[0] == []

    def test_a_row_mismatch(self):
        def build(s, x, y):
            side = MatMul(x.node, y.node, trans_a=True)
            short = s.matrix(np.ones((255, 2)), name="short")
            side.children = (x.node, short.node)  # hand-broken
            return Solve(Crossprod(x.node), side)
        assert self.sides_of(build)[0] == []

    def test_no_room(self):
        # 64 blocks: X'X's packed 64-wide triangle (3 072 scalars) and
        # a 128-row slab (8 192) leave room for (a + h) n = 192 n,
        # 282 columns.
        assert crossprod_side_fits(self.MEM * BLOCK, 64, 32, 282)
        assert not crossprod_side_fits(self.MEM * BLOCK, 64, 32, 283)

        def build(s, x, y):
            wide = s.matrix(np.ones((256, 283)), name="wide")
            return Solve(Crossprod(x.node),
                         MatMul(x.node, wide.node, trans_a=True))
        sides, plan = self.sides_of(build)
        assert sides == []
        assert any(isinstance(op, TileMatMulOp) for op in plan.ops())

    @pytest.mark.parametrize("cfg", [{"level": 0},
                                     {"fuse": False}])
    def test_switched_off(self, cfg):
        sides, _ = self.sides_of(
            lambda s, x, y: Solve(Crossprod(x.node),
                                  MatMul(x.node, y.node, trans_a=True)),
            **cfg)
        assert sides == []

    def test_crossprod_that_is_an_epilogue_barrier(self):
        """Ridge: ``crossprod(X) + lambda I`` fuses, so there is no
        crossprod operator for ``t(X) %*% y`` to ride on."""
        sides, plan = self.sides_of(
            lambda s, x, y: Solve(
                Map("+", Crossprod(x.node),
                    s.matrix(0.5 * np.eye(64), name="lamI").node),
                MatMul(x.node, y.node, trans_a=True)))
        assert sides == []
        assert not any(isinstance(op, CrossprodOp) for op in plan.ops())
        assert any(isinstance(op, TileMatMulOp) for op in plan.ops())

    def test_b_that_depends_on_the_crossprod(self):
        """Sharing would make the crossprod's operator wait for its own
        result: ``t(X) %*% (X %*% crossprod(X))``."""
        def build(s, x, y):
            cross = Crossprod(x.node)
            return Solve(cross, MatMul(x.node, MatMul(x.node, cross),
                                       trans_a=True))
        assert self.sides_of(build)[0] == []

    def test_side_product_that_is_an_epilogue_barrier(self):
        sides, plan = self.sides_of(
            lambda s, x, y: Solve(
                Crossprod(x.node),
                Map("*", MatMul(x.node, y.node, trans_a=True),
                    Scalar(2.0))))
        assert sides == []
        assert any(isinstance(op, FusedEpilogueOp) for op in plan.ops())


def test_every_side_value_is_stored():
    """The evaluator stores each side product a shared operator
    computes (three sides, all consumed), flat or nested."""
    g = np.random.default_rng(9)
    x_np = integers(g, (200, 48))
    b_nps = [integers(g, (200, w)) for w in (1, 5, 3)]
    for nested in (False, True):
        s = session(64)
        _, root = normal_equations(s, x_np, b_nps, nested)
        assert len(shared_sides(s.plan(root))) == 3
        got = s.values(root)
        ref = session(64, fuse=False)
        _, ref_root = normal_equations(ref, x_np, b_nps, nested)
        assert np.array_equal(got, ref.values(ref_root))
        assert np.allclose(got, oracle(x_np, b_nps, nested))
