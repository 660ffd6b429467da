"""Tests for the streaming evaluator over the tile store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Map, OptimizerConfig, Reduce, RiotSession,
                        Scalar)
from repro.core import plan as plan_module
from repro.core.evaluator import Evaluator, MissingInputError
from repro.storage import StorageConfig


@pytest.fixture
def session():
    return RiotSession(
        storage=StorageConfig(memory_bytes=2 * 1024 * 1024))


class TestStreaming:
    def test_fused_elementwise(self, session, rng):
        x = rng.standard_normal(50_000)
        v = session.vector(x)
        result = ((v - 1.0) ** 2.0).sqrt() + 5.0
        assert np.allclose(result.values(),
                           np.sqrt((x - 1) ** 2) + 5)

    def test_fusion_writes_no_intermediates(self, rng):
        """A 6-op expression must write only the result's chunks."""
        session = RiotSession(
            storage=StorageConfig(memory_bytes=64 * 8192))
        n = 200_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        vx, vy = session.vector(x), session.vector(y)
        d = (((vx - 1.0) ** 2.0) + ((vy - 2.0) ** 2.0)).sqrt()
        session.store.flush()
        session.reset_stats()
        d.force()
        session.store.flush()
        io = session.io_stats
        chunks = -(-n // session.store.scalars_per_block)
        # Reads: x and y once; writes: the single result.
        assert io.reads == pytest.approx(2 * chunks, abs=4)
        assert io.writes == pytest.approx(chunks, abs=4)

    def test_vector_scalar_broadcast(self, session, rng):
        x = rng.standard_normal(1000)
        v = session.vector(x)
        assert np.allclose((2.0 * v + 1.0).values(), 2 * x + 1)

    def test_range_never_stored(self, session):
        r = session.arange(1, 100_000)
        session.reset_stats()
        total = (r + 0.0).sum()
        assert total == pytest.approx(100_000 * 100_001 / 2)

    def test_comparison_produces_mask(self, session, rng):
        x = rng.standard_normal(5000)
        v = session.vector(x)
        mask = (v > 0.0).values()
        assert np.allclose(mask, (x > 0).astype(float))

    def test_ifelse(self, session, rng):
        x = rng.standard_normal(5000)
        v = session.vector(x)
        out = (v > 0.0).ifelse(1.0, -1.0).values()
        assert np.allclose(out, np.where(x > 0, 1.0, -1.0))


class TestSubscripts:
    def test_gather_values(self, session, rng):
        x = rng.standard_normal(50_000)
        v = session.vector(x)
        idx = np.sort(rng.choice(np.arange(1, 50_001), 200,
                                 replace=False))
        assert np.allclose(v[idx].values(), x[idx - 1])

    def test_slice_subscript(self, session, rng):
        x = rng.standard_normal(5000)
        v = session.vector(x)
        assert np.allclose(v[1:10].values(), x[:10])

    def test_selective_evaluation_io(self, rng):
        """d[s].values() touches ~|s| chunks, not the whole vector."""
        session = RiotSession(
            storage=StorageConfig(memory_bytes=32 * 8192))
        n = 1_000_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        vx, vy = session.vector(x), session.vector(y)
        d = (((vx - 1.0) ** 2.0) + ((vy - 2.0) ** 2.0)).sqrt()
        idx = np.sort(rng.choice(np.arange(1, n + 1), 100,
                                 replace=False))
        z = d[idx]
        session.store.flush()
        session.reset_stats()
        got = z.values()
        chunks = -(-n // session.store.scalars_per_block)
        assert session.io_stats.reads < chunks // 2
        ref = np.sqrt((x - 1) ** 2 + (y - 2) ** 2)
        assert np.allclose(got, ref[idx - 1])

    def test_no_rewrite_forces_full_vector(self, rng):
        """With optimization off, d[s] costs a full materialization."""
        session = RiotSession(storage=StorageConfig(
            memory_bytes=32 * 8192), optimize=False)
        n = 500_000
        x = rng.standard_normal(n)
        v = session.vector(x)
        d = (v - 1.0) ** 2.0
        idx = np.asarray([1, 2, 3])
        z = d[idx]
        session.store.flush()
        session.reset_stats()
        got = z.values()
        chunks = -(-n // session.store.scalars_per_block)
        assert session.io_stats.reads >= chunks  # read all of x
        assert np.allclose(got, (x[:3] - 1) ** 2)

    def test_mask_assign_streams(self, session, rng):
        x = rng.uniform(0, 20, 10_000)
        v = session.vector(x)
        capped = (v ** 2.0).assign((v ** 2.0) > 100.0, 100.0)
        assert np.allclose(capped.values(), np.minimum(x ** 2, 100))

    def test_positional_assign_scatter(self, session, rng):
        x = rng.standard_normal(10_000)
        v = session.vector(x)
        out = v.assign(np.asarray([1, 5000, 10_000]), 0.0)
        expect = x.copy()
        expect[[0, 4999, 9999]] = 0
        assert np.allclose(out.values(), expect)

    def test_assign_with_vector_value(self, session, rng):
        x = rng.standard_normal(1000)
        v = session.vector(x)
        repl = session.vector(np.asarray([7.0, 8.0]))
        out = v.assign(np.asarray([10, 20]), repl)
        expect = x.copy()
        expect[[9, 19]] = [7.0, 8.0]
        assert np.allclose(out.values(), expect)

    def test_assign_is_pure(self, session, rng):
        """The []<- operator returns new state; old handle unchanged."""
        x = rng.standard_normal(1000)
        v = session.vector(x)
        v2 = v.assign(v > 0.0, 0.0)
        v2.force()
        assert np.allclose(v.values(), x)


class TestReductions:
    def test_streamed_sum(self, session, rng):
        x = rng.standard_normal(100_000)
        v = session.vector(x)
        assert ((v * 2.0).sum()
                == pytest.approx(2 * x.sum(), rel=1e-9))

    def test_min_max_mean(self, session, rng):
        x = rng.standard_normal(10_000)
        v = session.vector(x)
        assert v.min() == pytest.approx(x.min())
        assert v.max() == pytest.approx(x.max())
        assert v.mean() == pytest.approx(x.mean())

    def test_reduction_of_expression_materializes_nothing(self, rng):
        session = RiotSession(
            storage=StorageConfig(memory_bytes=32 * 8192))
        n = 500_000
        x = rng.standard_normal(n)
        v = session.vector(x)
        session.store.flush()
        session.reset_stats()
        ((v - 1.0) ** 2.0).sum()
        io = session.io_stats
        chunks = -(-n // session.store.scalars_per_block)
        assert io.writes <= 2  # nothing materialized


class TestMatrices:
    def test_matmul(self, session, rng):
        a = rng.standard_normal((64, 48))
        b = rng.standard_normal((48, 32))
        ma, mb = session.matrix(a), session.matrix(b)
        assert np.allclose((ma @ mb).values(), a @ b)

    def test_chain_reordered_and_correct(self, session, rng):
        a = rng.standard_normal((80, 8))
        b = rng.standard_normal((8, 80))
        c = rng.standard_normal((80, 40))
        ma, mb, mc = (session.matrix(m) for m in (a, b, c))
        out = ((ma @ mb) @ mc).values()
        assert np.allclose(out, a @ b @ c)

    def test_matrix_elementwise(self, session, rng):
        a = rng.standard_normal((50, 50))
        b = rng.standard_normal((50, 50))
        ma, mb = session.matrix(a), session.matrix(b)
        assert np.allclose((ma + mb * 2.0).values(), a + 2 * b)

    def test_transpose(self, session, rng):
        a = rng.standard_normal((30, 70))
        assert np.allclose(session.matrix(a).T.values(), a.T)

    def test_matrix_reduction(self, session, rng):
        a = rng.standard_normal((40, 40))
        assert session.matrix(a).sum() == pytest.approx(a.sum())


    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_reduce_of_a_scalar_is_the_scalar(self, level):
        """``sum(sum(x) + 1)`` is legal R: a reduction over one value
        is that value, for every reduction."""
        s = RiotSession(storage=StorageConfig(memory_bytes=1 << 20),
                        config=OptimizerConfig(level=level))
        x = s.vector(np.arange(10.0))
        inner = Map("+", Reduce("sum", x.node), Scalar(1.0))
        for op in ("sum", "mean", "min", "max"):
            assert s.force(Reduce(op, inner)) == 46.0


class TestOneDispatch:
    def test_every_operator_class_has_exactly_one_runner(self):
        """The table is the only map from operator to code: a new
        PhysOp subclass without an entry fails here, not mid-plan."""
        subclasses = {cls for cls in vars(plan_module).values()
                      if isinstance(cls, type)
                      and issubclass(cls, plan_module.PhysOp)
                      and cls is not plan_module.PhysOp}
        assert set(Evaluator.OP_RUNNERS) == subclasses

    def test_operator_with_missing_input_is_an_error(self, session):
        """Operators look their inputs up; none evaluates a child."""
        a = session.matrix(np.eye(64))
        plan = session.plan(a @ (a + 1.0))
        session.reset_stats()
        with pytest.raises(MissingInputError, match="input"):
            session.evaluator._dispatch_op(plan.root, {})
        assert session.io_stats.total == 0


class TestCaching:
    def test_force_caches_named_results(self, session, rng):
        x = rng.standard_normal(50_000)
        v = session.vector(x)
        d = (v - 1.0) ** 2.0
        d.force()
        session.store.flush()
        session.reset_stats()
        d.force()  # second force: cached, no recomputation
        assert session.io_stats.total == 0


class TestDensifiedCache:
    def test_cache_drains_after_every_force(self, rng):
        """The sparse->dense twin cache must not grow without bound
        across a session: it lives only for the duration of one
        evaluation, so no densified operand outlives its force()."""
        session = RiotSession(
            storage=StorageConfig(memory_bytes=4 << 20))
        evaluator = session.evaluator
        for seed in range(4):
            a = session.random_sparse_matrix(96, 96, 0.01, seed=seed)
            dense = session.matrix(rng.standard_normal((96, 96)))
            # Elementwise matrix op forces densification of `a`.
            (a + dense).force()
            assert len(evaluator._densified_cache) == 0

    def test_densify_still_memoized_within_one_force(self, rng):
        """One DAG using a sparse operand twice converts it once."""
        session = RiotSession(
            storage=StorageConfig(memory_bytes=4 << 20))
        a = session.random_sparse_matrix(128, 128, 0.02, seed=3)
        dense = session.matrix(rng.standard_normal((128, 128)))
        expr = (a + dense) * (a + 0.0)
        got = expr.values()
        a_np = session.values(a)
        d_np = session.values(dense)
        assert np.allclose(got, (a_np + d_np) * a_np)


@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=1, max_size=300),
       st.sampled_from(["+", "-", "*", "sqrtabs", "pow2"]))
@settings(max_examples=40, deadline=None)
def test_streaming_matches_numpy(xs, op):
    session = RiotSession(
        storage=StorageConfig(memory_bytes=1 << 20))
    arr = np.asarray(xs)
    v = session.vector(arr)
    if op == "+":
        got, want = (v + 3.5).values(), arr + 3.5
    elif op == "-":
        got, want = (v - 3.5).values(), arr - 3.5
    elif op == "*":
        got, want = (v * -2.0).values(), arr * -2.0
    elif op == "sqrtabs":
        got, want = v.abs().sqrt().values(), np.sqrt(np.abs(arr))
    else:
        got, want = (v ** 2.0).values(), arr ** 2.0
    assert np.allclose(got, want)
