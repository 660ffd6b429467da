"""Elementwise regions: what one fused pass reads, writes and computes.

The planner builds a region once (``planner.build_region``) and every
driver runs its tape.  At optimizer levels >= 1 a matrix ``Map`` chain
is one tile pass and a matrix reduction folds its region's tiles
without storing them; level 0 keeps one operator per node as the
ablation baseline.  Inside a fused product epilogue the tape reads each
matrix input once per resident block and computes each shared
subexpression once.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import Map, MatMul, OptimizerConfig, RiotSession, Scalar
from repro.core.expr import ELEMENTWISE_OPS, Reduce
from repro.core.plan import FusedEpilogueOp, MapOp
from repro.storage import StorageConfig, TiledMatrix

N = 512


def session(level, mem_blocks=64):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_blocks * 8192,
                              block_size=8192),
        config=OptimizerConfig(level=level))


def cold(s, handle):
    """Force ``handle`` from an empty pool; device (reads, writes),
    trailing write-back included."""
    s.store.flush()
    s.store.pool.clear()
    s.store.reset_stats()
    s.force(handle)
    s.store.flush()
    stats = s.store.device.stats
    return stats.reads, stats.writes


def matrices(s, names):
    g = np.random.default_rng(5)
    return [s.matrix(g.standard_normal((N, N)), name=n) for n in names]


@pytest.mark.parametrize("level,passes", [(0, 9), (1, 5), (2, 5)])
def test_map_chain_is_one_pass_above_level_0(level, passes):
    """``(A + B) * C - D`` over 512^2 in a pool of a quarter of one
    matrix: four reads and one write per page fused, three
    read-read-write passes at level 0."""
    s = session(level)
    A, B, C, D = matrices(s, "ABCD")
    pages = s.force(A).file.num_pages
    expr = (A + B) * C - D
    if level:
        assert s.plan(expr).signature() == (
            "map:-[tile](input:A, input:B, input:C, input:D)")
    reads, writes = cold(s, expr)
    assert reads + writes == passes * pages
    assert writes == (passes - 3) // 2 * pages
    want = (A.values() + B.values()) * C.values() - D.values()
    assert np.array_equal(s.values(expr), want)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_reduction_over_a_region_stores_nothing_above_level_0(level):
    s = session(level)
    A, B = matrices(s, "AB")
    pages = s.force(A).file.num_pages
    total = Reduce("sum", (A * B).node)
    plan = s.plan(total)
    reads, writes = cold(s, total)
    if level:
        assert plan.signature() == "reduce:sum(input:A, input:B)"
        assert (reads, writes) == (2 * pages, 0)
    else:
        assert isinstance(plan.root.children[0], MapOp)
        assert (reads, writes) == (3 * pages, pages)
    assert np.isclose(s.values(total), (A.values() * B.values()).sum())


def test_epilogue_reads_and_computes_once_per_block():
    """``(P + C) * (P + C)`` fused on the product P: per resident block
    C is read once and ``P + C`` computed once — exactly what the
    single-use ``(P + C) * 2`` costs."""
    calls = {"+": 0, "read C": 0}
    add = ELEMENTWISE_OPS["+"]

    def counted_add(*args):
        calls["+"] += 1
        return add(*args)

    read = TiledMatrix.read_submatrix

    def counted_read(mat, *bounds):
        if mat.name == "C":
            calls["read C"] += 1
        return read(mat, *bounds)

    def run(twice):
        s = session(2, mem_blocks=16)
        g = np.random.default_rng(3)
        a = s.matrix(g.standard_normal((96, 64)), name="A")
        b = s.matrix(g.standard_normal((64, 96)), name="B")
        c = s.matrix(g.standard_normal((96, 96)), name="C")
        total = Map("+", MatMul(a.node, b.node), c.node)
        root = Map("*", total, total if twice else Scalar(2.0))
        calls.update({"+": 0, "read C": 0})
        with mock.patch.dict(ELEMENTWISE_OPS, {"+": counted_add}), \
                mock.patch.object(TiledMatrix, "read_submatrix",
                                  counted_read):
            plan = s.plan(root)
            assert isinstance(plan.root, FusedEpilogueOp)
            out = s.values(root)
        p = a.values() @ b.values()
        return dict(calls), out, p + c.values()

    once, _, _ = run(twice=False)
    twice, out, want = run(twice=True)
    assert twice["read C"] > 1  # several blocks
    assert twice == once
    assert np.allclose(out, want * want)


def test_shared_matrix_is_stored_once_not_recomputed():
    """``P = A + B`` read by a region and by a product: P is one tile
    pass over A and B, stored for the product, and the ``P * C``
    region reads it instead of recomputing it from A and B."""
    s = session(2)
    A, B, C = matrices(s, "ABC")
    P = A + B
    expr = (P * C) @ P
    sig = s.plan(expr).signature()
    assert sig.count("map:+[tile](input:A, input:B)") == 1, sig
    assert "map:*[tile](map:+" in sig, sig
    tiles = len(list(s.force(A).tiles()))
    read = TiledMatrix.read_submatrix
    reads_of_a = [0]

    def counted_read(mat, *bounds):
        reads_of_a[0] += mat.name == "A"
        return read(mat, *bounds)

    with mock.patch.object(TiledMatrix, "read_submatrix", counted_read):
        reads, writes = cold(s, expr)
    assert reads_of_a[0] == tiles
    # 12 passes of 256 pages read, P and P * C written: recomputing P
    # inside the region would read A and B once more (3 328 blocks).
    assert (reads, writes) == (3072, 768)
    p = A.values() + B.values()
    assert np.allclose(s.values(expr), (p * C.values()) @ p)


def _double(mask: np.ndarray) -> np.ndarray:
    return mask.astype(np.float64)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_comparisons_read_by_arithmetic_are_doubles(level):
    """A logical that arithmetic reads is R's 0/1 doubles, whatever
    the region around it: ``-(A > B)``, ``(A > B) - (C > D)`` and
    ``exp(A > B)`` on matrices and vectors, ``-(sum(A) > 3)`` on
    scalars."""
    s = session(level)
    g = np.random.default_rng(7)
    a, b, c, d = (g.standard_normal((40, 30)) for _ in range(4))
    A, B, C, D = (s.matrix(m, name=n) for m, n in zip((a, b, c, d),
                                                        "ABCD"))
    x, y, z = (s.vector(v[:, 0]) for v in (a, b, c))
    cases = [
        (-(A > B), -_double(a > b)),
        ((A > B) - (C > D), _double(a > b) - _double(c > d)),
        ((A > B).exp(), np.exp(_double(a > b))),
        ((x > y) + (x > z), _double(a[:, 0] > b[:, 0])
         + _double(a[:, 0] > c[:, 0])),
        (-(x > y).floor(), -np.floor(_double(a[:, 0] > b[:, 0]))),
    ]
    for got, want in cases:
        assert np.array_equal(got.values(), want)
    scalar = Map("neg", Map(">", Reduce("sum", A.node), Scalar(3.0)))
    assert s.values(scalar) == -float(a.sum() > 3)
