"""Plan-scoped lifetimes: release points and in-place factorization.

Every operator's result is released at its last reader
(``PhysOp.releases``, set by the planner), and the evaluator drops it
there, so an intermediate that never left the pool never reaches the
device.  An LU whose operand dies at it — computed by another
operator, read by nothing else, on the working factor's tiles
(``costs.lu_in_place``) — factors that operand in place
(``LUSolveOp.in_place`` / ``InverseOp.in_place``).  These tests pin
what that may and may not do:

- after ``execute`` every intermediate is gone (no pool frame, no
  page, no tile-directory entry) and only the result is left;
- stored inputs and results an earlier ``force`` materialized are
  never dropped or overwritten;
- ``in_place`` is refused wherever the operand could be read again or
  is not laid out as the working factor, and at level 0;
- results are bitwise those of the same plans run without lifetimes
  (no release, every LU copying — the engine before it had them) at
  levels 1 and 2, on the mmap and pread backends;
- ``planlint`` rejects a plan that reads past a release point, and the
  sanitizer rejects any pool access to a dropped array's blocks;
- dense twins of sparse operands and coerced NumPy operands live for
  one execution only;
- a right-hand side that dies at its solve is dropped as soon as the
  kernel holds it in memory — before the LU starts, for one that rides
  along — exactly once, and nothing touches it afterwards.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.analysis import (PlanVerificationError, UseAfterDropError,
                            verify_plan)
from repro.core import (ArrayInput, Crossprod, Inverse, MatMul,
                        OptimizerConfig, RiotSession, Solve)
from repro.core import planner as planner_module
from repro.core.costs import lu_in_place
from repro.core.evaluator import Evaluator
from repro.core.plan import (InverseOp, LeafOp, LUSolveOp,
                             SparseSpGEMMOp)
from repro.core.planner import Planner
from repro.linalg import solve as solve_module
from repro.sparse import SparseTiledMatrix
from repro.storage import StorageConfig, TiledMatrix, TiledVector

BLOCK = 8192


def session(level=2, mem_blocks=32, **storage):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_blocks * BLOCK,
                              block_size=BLOCK, **storage),
        config=OptimizerConfig(level=level))


def integers(seed, shape):
    g = np.random.default_rng(seed)
    return g.integers(-8, 9, size=shape).astype(np.float64)


def ols(s):
    x = s.matrix(integers(1, (300, 96)), name="X")
    y = s.matrix(integers(2, (300, 1)), name="y")
    return (x.T @ x).solve(x.T @ y).node


def chain(s):
    a = s.matrix(integers(3, (96, 40)), name="A")
    b = s.matrix(integers(4, (40, 96)), name="B")
    c = s.matrix(integers(5, (96, 96)), name="C")
    return (((a @ b) @ c).abs().sqrt() + 1.0).node


def inverse(s):
    x = s.matrix(integers(6, (200, 64)), name="X")
    return Inverse(Crossprod(x.node))


def vectors(s):
    x = s.vector(integers(7, (5000,)), name="x")
    y = s.vector(integers(8, (5000,)), name="y")
    picked = s.arange(10, 2010)
    return ((x * 2.0 + y)[picked] * (x - y)[picked] + 1.0).node


STATEMENTS = {"ols": ols, "chain": chain, "inverse": inverse,
              "vectors": vectors}


def run_recording(s, root):
    """Execute ``root``'s plan; returns ``(plan, result, made)`` with
    ``made`` every stored value an operator other than a leaf
    returned, and the device blocks it held when it was returned."""
    plan = s.plan(root)
    ev = s.evaluator
    dispatch = ev._dispatch_op
    made = []

    def run_op(op, memo):
        value = dispatch(op, memo)
        if not isinstance(op, LeafOp):
            for v in value if len(op.nodes) > 1 else (value,):
                if hasattr(v, "drop"):
                    made.append((v, list(v.file.page_map)))
        return value

    ev._dispatch_op = run_op
    try:
        out = ev.execute(plan)
    finally:
        del ev._dispatch_op
    return plan, out, made


@contextlib.contextmanager
def without_lifetimes():
    """The engine as it ran before plans had lifetimes: no operator
    releases anything and every LU factors a copy."""
    with mock.patch.object(Planner, "_set_releases",
                           staticmethod(lambda plan: None)), \
            mock.patch.object(planner_module, "lu_in_place",
                              lambda *args: False):
        yield


def lu_ops(plan):
    return [op for op in plan.ops()
            if isinstance(op, (LUSolveOp, InverseOp))]


class TestReleasePoints:
    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_only_the_result_survives(self, name, level):
        """A codec store, so a matrix has tile-directory entries to
        lose."""
        s = session(level, mem_blocks=24, codec="zstd")
        plan, out, made = run_recording(s, STATEMENTS[name](s))
        frames = set(s.store.pool._frames)
        dropped = [(v, pages) for v, pages in made if v is not out]
        assert dropped, "the statement has intermediates"
        for value, pages in dropped:
            assert value.file.num_pages == 0
            assert not getattr(value, "tile_dir", None)
            assert frames.isdisjoint(pages)
        assert out.file.num_pages > 0
        with without_lifetimes():
            ref = session(level, mem_blocks=24, codec="zstd")
            ref_out = ref.force(STATEMENTS[name](ref))
        assert np.array_equal(out.to_numpy(), ref_out.to_numpy())

    def test_a_shared_crossprod_is_released_when_all_its_nodes_are_read(
            self):
        s = session(2, mem_blocks=64)
        plan = s.plan(ols(s))
        [lu] = lu_ops(plan)
        cross = lu.children[0]
        assert lu.children == (cross, cross)  # X'X and X'y, one scan
        assert len(cross.nodes) == 2 and cross.releases == ()
        assert [id(n) for n in lu.releases] == [id(n) for n in cross.nodes]
        assert plan.root.node is plan.logical_root
        assert not any(plan.logical_root is n
                       for op in plan.ops() for n in op.releases)

    def test_ten_forces_grow_the_device_by_their_results_alone(self):
        """Every intermediate of every run is freed on the device;
        only the ten results stay (device block ids are not reused, so
        ``allocated_blocks`` still grows)."""
        s = session(2, mem_blocks=32)
        x = s.matrix(integers(1, (300, 96)), name="X")
        y = s.matrix(integers(2, (300, 1)), name="y")
        s.store.flush()
        for _ in range(10):
            before = s.store.device.resident_blocks
            out = s.force((x.T @ x).solve(x.T @ y))
            s.store.flush()
            grown = s.store.device.resident_blocks - before
            assert grown == out.file.num_pages


class TestNeverDropped:
    def test_materialized_root_and_inputs_survive_an_in_place_solve(self):
        """``force(xtx)`` caches X'X as a result; a later plan on the
        same node computes its own X'X, factors that in place and drops
        it — the cached one and X are untouched."""
        s = session(2, mem_blocks=32)
        x_np, y_np = integers(1, (300, 96)), integers(2, (300, 1))
        x, y = s.matrix(x_np, name="X"), s.matrix(y_np, name="y")
        xtx = x.T @ x
        first = s.force(xtx)
        kept = first.to_numpy().copy()
        system = xtx.solve(x.T @ y)
        [lu] = lu_ops(s.plan(system))
        assert lu.in_place
        beta = s.values(system)
        assert s.force(xtx) is first
        assert np.array_equal(first.to_numpy(), kept)
        assert np.array_equal(s.values(x), x_np)
        assert np.allclose(beta, np.linalg.solve(x_np.T @ x_np,
                                                 x_np.T @ y_np))

    def test_a_stored_operand_is_copied(self):
        s = session(2, mem_blocks=32)
        a_np = integers(3, (96, 96)) + 200 * np.eye(96)
        a, b = s.matrix(a_np, name="A"), s.matrix(integers(4, (96, 2)))
        system = a.solve(b)
        [lu] = lu_ops(s.plan(system))
        assert not lu.in_place
        s.values(system)
        assert np.array_equal(s.values(a), a_np)


class TestInPlaceProof:
    X_SHAPE = (200, 64)

    def plan_of(self, build, mem_blocks=32):
        s = session(2, mem_blocks=mem_blocks)
        x = s.matrix(integers(1, self.X_SHAPE), name="X")
        root = build(s, x.node)
        return s, root, s.plan(root)

    def test_the_positive_controls(self):
        for build in (lambda s, x: Solve(Crossprod(x),
                                         MatMul(x, s.matrix(np.ones(
                                             (200, 1))).node,
                                             trans_a=True)),
                      lambda s, x: Inverse(Crossprod(x))):
            s, root, plan = self.plan_of(build)
            [lu] = lu_ops(plan)
            assert lu.in_place
            assert "(in place: factors its dying operand)" in plan.render()
            assert "in place" not in plan.signature()
            verify_plan(plan, s.storage)

    @pytest.mark.parametrize("case", ["rhs", "stored", "shared",
                                      "densified"])
    def test_refused(self, case):
        def build(s, x):
            cross = Crossprod(x)
            if case == "rhs":
                return Solve(cross, cross)
            if case == "stored":
                a = s.matrix(integers(9, (64, 64)) + 100 * np.eye(64))
                return Solve(a.node, Crossprod(x))
            if case == "shared":
                return Solve(cross, MatMul(cross, s.matrix(
                    np.ones((64, 1))).node))
            d = s.sparse_matrix(np.arange(64), np.arange(64),
                                np.full(64, 2.0), (64, 64))
            return Solve(MatMul(d.node, d.node, kernel="sparse"),
                         Crossprod(x))

        s, root, plan = self.plan_of(build)
        [lu] = lu_ops(plan)
        assert not lu.in_place
        if case == "densified":
            assert isinstance(lu.children[0], SparseSpGEMMOp)
        x_np = integers(1, self.X_SHAPE)
        cross = x_np.T @ x_np
        a = {"rhs": cross, "shared": cross,
             "stored": integers(9, (64, 64)) + 100 * np.eye(64),
             "densified": 4.0 * np.eye(64)}[case]
        b = {"rhs": cross, "shared": cross @ np.ones((64, 1))}.get(
            case, cross)
        assert np.allclose(s.values(root), np.linalg.solve(a, b))

    def test_refused_at_level_0(self):
        """The no-optimizer baseline factors a copy; it still drops
        the dead X'X."""
        s = session(0, mem_blocks=32)
        x = s.matrix(integers(1, self.X_SHAPE), name="X")
        plan = s.plan(Inverse(Crossprod(x.node)))
        [lu] = lu_ops(plan)
        assert not lu.in_place
        assert [id(n) for n in lu.releases] == [id(lu.node.children[0])]

    def test_refused_on_a_tile_side_mismatch(self):
        """A 1024 x 1024 X'X in a 256-block pool is stored on 128-wide
        tiles, but three 1024 x 128 panels overrun the budget, so the
        factor steps down to 64-wide tiles and must be a copy."""
        s, _, plan = self.plan_of(lambda s, x: Solve(
            Crossprod(s.matrix(np.ones((16, 1024))).node),
            s.matrix(np.ones((1024, 1))).node), mem_blocks=256)
        [lu] = lu_ops(plan)
        assert not lu.in_place
        mem = 256 * 1024
        assert not lu_in_place(1024, (128, 128), mem, 1024, 256)
        assert lu_in_place(1024, (64, 64), mem, 1024, 256)

    def test_the_predicate(self):
        mem = 256 * 1024
        assert lu_in_place(512, (128, 128), mem, 1024, 256)
        assert not lu_in_place(512, (32, 32), mem, 1024, 256)
        assert not lu_in_place(512, (128, 64), mem, 1024, 256)
        assert lu_in_place(20, (20, 20), 32 * 1024, 1024, 32)
        assert lu_in_place(100, (32, 32), 32 * 1024, 1024, 32)


class TestBitsWithoutLifetimes:
    @pytest.mark.parametrize("backend", ["mmap", "pread"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_bitwise_equal(self, level, backend):
        def run(name):
            with session(level, mem_blocks=16, backend=backend) as s:
                plan, out, _ = run_recording(s, STATEMENTS[name](s))
                writes = s.io_stats.writes
                return out.to_numpy(), plan, writes

        for name in ("ols", "inverse", "chain"):
            got, plan, writes = run(name)
            with without_lifetimes():
                ref, ref_plan, ref_writes = run(name)
            assert np.array_equal(got, ref), name
            assert writes <= ref_writes, name
            if name != "chain":
                assert [op.in_place for op in lu_ops(plan)] == [True]
                assert not any(op.in_place for op in lu_ops(ref_plan))


class TestPlanlint:
    def ols_plan(self):
        s = session(2, mem_blocks=64)
        plan = s.plan(ols(s))
        [lu] = lu_ops(plan)
        return s, plan, lu

    def test_reading_past_a_release_point(self):
        s, plan, lu = self.ols_plan()
        cross = lu.children[0]
        cross.releases, lu.releases = lu.releases, ()
        with pytest.raises(PlanVerificationError,
                           match="after its release point"):
            verify_plan(plan, s.storage)

    def test_releasing_what_outlives_the_plan(self):
        s, plan, lu = self.ols_plan()
        leaf = next(op for op in plan.ops() if isinstance(op, LeafOp))
        lu.releases += (leaf.node,)
        with pytest.raises(PlanVerificationError, match="outlives"):
            verify_plan(plan, s.storage)

    def test_in_place_on_a_shared_operand(self):
        s = session(2, mem_blocks=64)
        x = s.matrix(integers(1, (200, 64)))
        cross = Crossprod(x.node)
        plan = s.plan(Solve(cross, MatMul(cross, s.matrix(
            np.ones((64, 1))).node)))
        [lu] = lu_ops(plan)
        lu.in_place = True
        with pytest.raises(PlanVerificationError, match="2 operand"):
            verify_plan(plan, s.storage)

    def test_in_place_on_a_stored_operand(self):
        s = session(2, mem_blocks=64)
        a = s.matrix(np.eye(64) * 3.0)
        plan = s.plan(Solve(a.node, s.matrix(np.ones((64, 1))).node))
        [lu] = lu_ops(plan)
        lu.in_place = True
        with pytest.raises(PlanVerificationError, match="not a square"):
            verify_plan(plan, s.storage)


class TestSanitizer:
    def test_any_access_to_a_dropped_array_is_caught(self):
        s = session(2, mem_blocks=32, sanitize=True)
        pool = s.store.pool
        m = s.store.matrix_from_numpy(np.ones((64, 64)))
        live = s.store.matrix_from_numpy(np.ones((64, 64)))
        blocks = m._blocks.ravel().tolist()
        m.drop()
        page = np.zeros(BLOCK, dtype=np.uint8)
        for access in (lambda: pool.get(blocks[0]),
                       lambda: pool.get_many(blocks[:2]),
                       lambda: pool.prefetch(blocks),
                       lambda: pool.put(blocks[0], page),
                       lambda: pool.put_many(blocks[:1], page[None])):
            with pytest.raises(UseAfterDropError, match="dropped"):
                access()
        assert np.array_equal(live.to_numpy(), np.ones((64, 64)))

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_lifetimes_run_clean_sanitized(self, name):
        s = session(2, mem_blocks=16, sanitize=True)
        with without_lifetimes():
            ref = session(2, mem_blocks=16)
            ref_out = ref.values(STATEMENTS[name](ref))
        assert np.array_equal(s.values(STATEMENTS[name](s)), ref_out)


class TestDropAtRead:
    """``solve`` drops a dying right-hand side at its read, not after
    the operator: its frames then never compete with the factor's.
    The plan's release point stays where the planner put it."""

    def run(self, s, root):
        """Execute ``root``'s plan; returns ``(plan, solve op, RHS value,
        result, log)`` with ``log`` every factorization start and every
        drop of a stored value, in order."""
        plan = s.plan(root)
        ev = s.evaluator
        dispatch, factor = ev._dispatch_op, solve_module._factor
        values, log = {}, []

        def run_op(op, memo):
            value = dispatch(op, memo)
            for node, v in zip(op.nodes, value if len(op.nodes) > 1
                               else (value,)):
                values[id(node)] = v
            return value

        def factoring(*args, **kwargs):
            log.append(("factor", args[1]))
            return factor(*args, **kwargs)

        def logged(original):
            def drop(self):
                log.append(("drop", self))
                original(self)
            return drop

        ev._dispatch_op = run_op
        try:
            with mock.patch.object(solve_module, "_factor", factoring), \
                    mock.patch.object(TiledMatrix, "drop",
                                      logged(TiledMatrix.drop)), \
                    mock.patch.object(TiledVector, "drop",
                                      logged(TiledVector.drop)):
                out = ev.execute(plan)
        finally:
            del ev._dispatch_op
        verify_plan(plan, s.storage)
        [lu] = lu_ops(plan)
        return plan, lu, values[id(lu.node.children[1])], out, log

    @staticmethod
    def drops_of(value, log):
        return [i for i, (kind, v) in enumerate(log)
                if kind == "drop" and v is value]

    @pytest.mark.parametrize("rhs", ["matrix", "vector"])
    def test_a_riding_rhs_is_dropped_before_the_factorization(self, rhs):
        s = session(2, mem_blocks=32)
        x_np = integers(1, (300, 96))
        x = s.matrix(x_np, name="X")
        if rhs == "matrix":
            b = x.T @ s.matrix(integers(2, (300, 1)), name="y")
            b_np = x_np.T @ integers(2, (300, 1))
        else:
            b = s.vector(integers(2, (96,)), name="v") * 2.0
            b_np = integers(2, (96,)) * 2.0
        plan, lu, value, out, log = self.run(s, (x.T @ x).solve(b).node)
        assert any(n is lu.node.children[1] for n in lu.releases)
        [dropped] = self.drops_of(value, log)
        [factored] = [i for i, (kind, _) in enumerate(log)
                      if kind == "factor"]
        assert dropped < factored
        assert np.allclose(out.to_numpy(),
                           np.linalg.solve(x_np.T @ x_np, b_np))

    def test_a_wide_rhs_is_dropped_after_its_last_panel(self):
        """Three 96-wide panels: the first rides, the last read drops
        B, once, before the operator ends."""
        s = session(2, mem_blocks=32)
        x_np, y_np = integers(1, (300, 96)), integers(2, (300, 200))
        x, y = s.matrix(x_np, name="X"), s.matrix(y_np, name="Y")
        plan, lu, value, out, log = self.run(
            s, (x.T @ x).solve(x.T @ y).node)
        [dropped] = self.drops_of(value, log)
        assert dropped > next(i for i, (kind, _) in enumerate(log)
                              if kind == "factor")
        assert np.allclose(out.to_numpy(), np.linalg.solve(
            x_np.T @ x_np, x_np.T @ y_np))

    def test_an_operand_in_both_slots_waits_for_its_release(self):
        """``solve(A, A)``: the RHS read must not drop the A the LU is
        about to copy."""
        s = session(2, mem_blocks=32)
        x = s.matrix(integers(1, (300, 96)), name="X")
        a = x.T @ x
        plan, lu, value, out, log = self.run(s, a.solve(a).node)
        assert not lu.in_place
        [dropped] = self.drops_of(value, log)
        assert dropped > next(i for i, (kind, _) in enumerate(log)
                              if kind == "factor")
        assert np.allclose(out.to_numpy(), np.eye(96), atol=1e-9)

    @pytest.mark.parametrize("wide", [False, True])
    def test_nothing_touches_the_dropped_rhs(self, wide):
        """Under the sanitizer any pool access to a dropped array's
        blocks raises ``UseAfterDropError``."""
        def statement(s):
            x = s.matrix(integers(1, (300, 96)), name="X")
            y = s.matrix(integers(2, (300, 200 if wide else 1)))
            return (x.T @ x).solve(x.T @ y).node

        ref = session(2, mem_blocks=16)
        s = session(2, mem_blocks=16, sanitize=True)
        assert np.array_equal(s.values(statement(s)),
                              ref.values(statement(ref)))


class TestTransients:
    """Dense twins of sparse operands, and NumPy values coerced into
    matrices, are stored only to hand an operand to a dense kernel;
    they are dropped when the execution ends.  No macro workload
    densifies; here a 128 x 128 sparse system in a 48-block pool wrote
    its twin's 16 pages at the final flush (20 blocks written in all)
    and now writes 4."""

    def system(self, s):
        n = 128
        rows = np.concatenate([np.arange(n), np.arange(n - 1)])
        cols = np.concatenate([np.arange(n), np.arange(1, n)])
        vals = np.concatenate([np.full(n, 4.0), np.ones(n - 1)])
        a = s.sparse_matrix(rows, cols, vals, (n, n))
        b = s.matrix(integers(3, (n, 1)))
        return Solve(a.node, b.node)

    def test_twins_are_dropped(self):
        twins = []
        to_dense = SparseTiledMatrix.to_dense

        def recording(self, *args, **kwargs):
            twins.append(to_dense(self, *args, **kwargs))
            return twins[-1]

        s = session(2, mem_blocks=48)
        root = self.system(s)
        s.store.pool.clear()
        s.reset_stats()
        with mock.patch.object(SparseTiledMatrix, "to_dense", recording):
            s.force(root)
        s.store.flush()
        assert len(twins) == 1 and twins[0].file.num_pages == 0
        assert s.evaluator._transients == []
        dropped_writes = s.io_stats.writes

        kept = session(2, mem_blocks=48)
        root = self.system(kept)
        kept.store.pool.clear()
        kept.reset_stats()
        with mock.patch.object(Evaluator, "_drop_transients",
                               lambda ev: ev._transients.clear()):
            kept.force(root)
        kept.store.flush()
        assert (dropped_writes, kept.io_stats.writes) == (4, 20)

    def test_coerced_operands_are_dropped(self):
        s = session(0, mem_blocks=16)
        a_np = integers(4, (40, 40)) + 100 * np.eye(40)
        root = Solve(ArrayInput(a_np), s.matrix(np.ones((40, 1))).node)
        made = []
        coerce = s.store.matrix_from_numpy

        def recording(*args, **kwargs):
            made.append(coerce(*args, **kwargs))
            return made[-1]

        with mock.patch.object(s.store, "matrix_from_numpy", recording):
            out = s.values(root)
        assert len(made) == 1 and made[0].file.num_pages == 0
        assert np.allclose(out.ravel(),
                           np.linalg.solve(a_np, np.ones(40)))
