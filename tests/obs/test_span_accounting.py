"""Property: per-op measured deltas sum exactly to session totals.

The evaluator snapshots device and pool stats *after* an operator's
children have run, so every op's measurement is exclusive — each block
and each pool access is attributed to exactly one operator.  On random
DAGs, merging all per-op deltas must reproduce the device's own totals
for the run, field for field (including bytes and call counts), with
the trailing cold-mode flush charged to the root — warm or cold, since
operators run one at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Map, OptimizerConfig, RiotSession
from repro.storage import IOStats, PoolStats, StorageConfig

MEM = 48 * 1024 * 8  # bytes: a 48-block pool keeps the DAGs out of core


def make_session():
    return RiotSession(storage=StorageConfig(memory_bytes=MEM),
                       config=OptimizerConfig(level=2))


def assert_deltas_sum_to_totals(session, node, cold=True):
    """A warm run starts from the pool the inputs were written into
    (dirty residue included); a cold one's own clear would write that
    back before the first op, so it is emptied first, outside the
    window."""
    plan = session.plan(node)
    if cold:
        session.store.pool.clear()
    io_before = session.io_stats.snapshot()
    pool_before = session.store.pool.stats.snapshot()
    try:
        session.evaluator.execute(plan, cold=cold)
        io_total = session.io_stats.delta(io_before)
        pool_total = session.store.pool.stats.delta(pool_before)
    finally:
        session.close()

    io_sum = IOStats()
    pool_sum = PoolStats()
    for op in plan.ops():
        assert op.measured is not None, op.label()
        io_sum = io_sum.merged(op.measured)
        pool_sum = pool_sum.merged(op.pool_measured)
    assert io_sum.as_dict() == io_total.as_dict()
    assert pool_sum.as_dict() == pool_total.as_dict()


# ----------------------------------------------------------------------
# Vector DAGs: elementwise trees over shared leaves
# ----------------------------------------------------------------------
@st.composite
def vector_spec(draw, depth):
    if depth == 0:
        return ("leaf", draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(["leaf", "unary", "binary"]))
    if kind == "leaf":
        return ("leaf", draw(st.integers(0, 2)))
    if kind == "unary":
        return ("unary", draw(st.sampled_from(["neg", "abs", "sqrt"])),
                draw(vector_spec(depth - 1)))
    return ("binary", draw(st.sampled_from(["+", "-", "*"])),
            draw(vector_spec(depth - 1)), draw(vector_spec(depth - 1)))


def build_vector(spec, leaves):
    kind = spec[0]
    if kind == "leaf":
        return leaves[spec[1]]
    if kind == "unary":
        child = build_vector(spec[2], leaves)
        if spec[1] == "sqrt":
            return child.abs().sqrt()
        return child._wrap(Map(spec[1], child.node))
    a = build_vector(spec[2], leaves)
    b = build_vector(spec[3], leaves)
    return {"+": a + b, "-": a - b, "*": a * b}[spec[1]]


@given(spec=vector_spec(depth=3),
       n=st.integers(2_000, 120_000),
       seed=st.integers(0, 2**16),
       subscript=st.booleans(), cold=st.booleans())
@settings(max_examples=12, deadline=None)
def test_vector_dag_deltas_sum(spec, n, seed, subscript, cold):
    s = make_session()
    leaves = [s.vector(np.random.default_rng(seed + i)
                       .standard_normal(n)) for i in range(3)]
    out = build_vector(spec, leaves)
    if subscript:
        out = out[1:max(2, n // 3)]
    assert_deltas_sum_to_totals(s, out.node, cold=cold)


# ----------------------------------------------------------------------
# Matrix DAGs: products, crossprods, solves, fused epilogues
# ----------------------------------------------------------------------
@given(pattern=st.sampled_from(
           ["mm", "crossprod", "tmm", "epilogue", "ols", "chain"]),
       m=st.integers(64, 320), k=st.integers(64, 256),
       seed=st.integers(0, 2**16), cold=st.booleans())
@settings(max_examples=10, deadline=None)
def test_matrix_dag_deltas_sum(pattern, m, k, seed, cold):
    g = np.random.default_rng(seed)
    s = make_session()
    a = s.matrix(g.standard_normal((m, k)), name="A")
    if pattern == "mm":
        b = s.matrix(g.standard_normal((k, m)))
        node = (a @ b).node
    elif pattern == "crossprod":
        node = a.crossprod().node
    elif pattern == "tmm":
        b = s.matrix(g.standard_normal((m, k)))
        node = (a.T @ b).node
    elif pattern == "epilogue":
        b = s.matrix(g.standard_normal((k, m)))
        c = s.matrix(g.standard_normal((m, m)))
        node = ((a @ b) * 0.5 + c).node
    elif pattern == "ols":
        y = s.matrix(g.standard_normal((m, 1)))
        node = s.solve(a.crossprod(), a.crossprod(y)).node
    else:  # chain
        b = s.matrix(g.standard_normal((k, m)))
        c = s.matrix(g.standard_normal((m, 1)))
        node = ((a @ b) @ c).node
    assert_deltas_sum_to_totals(s, node, cold=cold)


@given(density=st.floats(0.002, 0.03),
       n=st.integers(128, 512),
       seed=st.integers(0, 2**16), cold=st.booleans())
@settings(max_examples=8, deadline=None)
def test_sparse_dag_deltas_sum(density, n, seed, cold):
    s = make_session()
    a = s.random_sparse_matrix(n, n, density, seed=seed)
    v = s.matrix(np.random.default_rng(seed + 1)
                 .standard_normal((n, 1)))
    assert_deltas_sum_to_totals(s, (a @ v).node, cold=cold)
