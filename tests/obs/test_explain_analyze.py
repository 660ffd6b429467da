"""EXPLAIN ANALYZE: measured I/O per op, calibration, both backends.

The workload is the acceptance criterion's hint-free OLS normal
equations, sized to the out-of-core regime (X 512 x 256 against a
48-block pool): every exercised cost model must sit inside the
validated [0.5, 2.0] measured/predicted band, on the simulator and on
the ``pread`` file backend alike.
"""

import numpy as np
import pytest

from repro.core import OptimizerConfig, RiotSession
from repro.core.costs import crossprod_schedule, crossprod_side_fits
from repro.core.expr import ArrayInput, MatMul, Solve, Transpose
from repro.core.plan import CrossprodOp
from repro.rlang import Interpreter
from repro.storage import StorageConfig

N_OBS, N_FEAT = 512, 256
POOL_SCALARS = 48 * 1024  # 48 blocks: out-of-core for this X

OLS_MODELS = ("crossprod_io", "solve_io")


def make_session(backend="memory", level=2):
    return RiotSession(
        storage=StorageConfig(backend=backend,
                              memory_bytes=POOL_SCALARS * 8),
        config=OptimizerConfig(level=level))


def ols_node(session):
    rng = np.random.default_rng(17)
    x = session.matrix(rng.standard_normal((N_OBS, N_FEAT)), name="X")
    y = session.matrix(rng.standard_normal((N_OBS, 1)), name="y")
    return Solve(MatMul(Transpose(x.node), x.node),
                 MatMul(Transpose(x.node), y.node))


def assert_analyze_contract(text, backend):
    assert f"-- analyze (backend={backend}) --" in text
    # Every executed operator line set: measured I/O, pool, wall+ratio.
    assert "io: " in text and "pool: " in text and "wall: " in text
    assert "| ratio " in text
    assert "blk read" in text and "blk written" in text
    # In-band on this workload: no op and no model gets flagged.
    assert "!!" not in text
    for model in OLS_MODELS:
        assert f"calibration: {model}: median ratio " in text
        assert f"(cost: {model}" in text


class TestExplainAnalyzeMemory:
    @pytest.fixture(scope="class")
    def analyzed(self):
        s = make_session()
        node = ols_node(s)
        text = s.explain(node, analyze=True)
        return s, node, text

    def test_contract(self, analyzed):
        _, _, text = analyzed
        assert_analyze_contract(text, "memory")

    def test_plain_sections_still_present(self, analyzed):
        _, _, text = analyzed
        assert "-- original --" in text
        assert "-- optimized --" in text
        assert "-- physical plan (level 2) --" in text
        assert "predicted ~" in text and "| measured" in text

    def test_every_executed_op_measured(self, analyzed):
        s, node, _ = analyzed
        plan = s.plan(node)
        assert plan.executed
        for op in plan.ops():
            assert op.measured is not None
            assert op.pool_measured is not None
            assert op.wall_ns is not None and op.wall_ns >= 0

    def test_calibration_report_in_band(self, analyzed):
        s, node, _ = analyzed
        report = s.calibration_report(node)
        assert set(report.models) == set(OLS_MODELS)
        assert report.ok, report.violations()
        for model in OLS_MODELS:
            med = report.models[model].median_ratio
            assert 0.5 <= med <= 2.0, (model, med)

    def test_session_wide_report_aggregates(self, analyzed):
        s, node, _ = analyzed
        whole = s.calibration_report()
        assert set(whole.models) >= set(OLS_MODELS)
        assert whole.ok

    def test_trace_covers_all_layers(self, analyzed):
        s, _, _ = analyzed
        cats = {span.cat for span in s.tracer.spans()}
        assert {"session", "op", "optimizer", "kernel"} <= cats
        assert not s.tracer.enabled  # analyze restores the off state

    def test_x_prime_y_rides_on_the_crossprod(self, analyzed):
        """Why ``matmul_io`` is not exercised here: at 48 blocks with
        32-wide tiles the crossprod holds X'X's whole packed triangle
        (36 864 scalars) beside a 32-row slab of X (8 192), and y's
        slab and result rows, (a + h) = 288 scalars, still fit —
        45 344 of 49 152 — so ``t(X) %*% y`` rides on the one scan of X
        (``costs.crossprod_side_fits``)."""
        s, node, _ = analyzed
        schedule = crossprod_schedule(N_OBS, N_FEAT, 32, POOL_SCALARS)
        assert (schedule.side, schedule.slab) == (N_FEAT, 32)
        assert schedule.peak(1) == 36864 + 8192 + 288 <= POOL_SCALARS
        assert crossprod_side_fits(POOL_SCALARS, N_FEAT, 32, 1)
        cross = [op for op in s.plan(node).ops()
                 if isinstance(op, CrossprodOp)]
        assert len(cross) == 1 and len(cross[0].side_nodes) == 1

    def test_unexecuted_report_is_empty(self):
        s = make_session()
        node = ols_node(s)
        s.plan(node)  # planned but never run
        assert s.calibration_report(node).models == {}


class TestLayoutLine:
    """``explain(analyze=True)`` names each stored dense array whose
    tiles span more than ``MAX_PADDING_SHARE`` (an eighth) beyond the
    pages its data fills, under the operator that holds or computes
    it: the floor a layout gain is measured against."""

    def explain(self, y_tile=None):
        s = RiotSession(storage=StorageConfig(memory_bytes=256 * 8192))
        rng = np.random.default_rng(5)
        x = s.matrix(rng.standard_normal((4096, 16)), name="X")
        y_np = rng.standard_normal((4096, 1))
        y = s.store.create_matrix(y_np.shape, tile_shape=y_tile,
                                  name="y").from_numpy(y_np)
        text = s.explain(Solve(MatMul(Transpose(x.node), x.node),
                               MatMul(Transpose(x.node),
                                      ArrayInput(y, name="y"))),
                         analyze=True)
        return y, [line.strip() for line in text.splitlines()
                   if line.strip().startswith("layout:")]

    def test_square_tiles_of_a_thin_column_are_named(self):
        y, lines = self.explain(y_tile=(128, 1))
        assert (y.grid, y.pages_per_tile, y.data_pages) == ((32, 1), 1, 4)
        assert lines == ["layout: y spans 32 pages for 4 of data"]

    def test_the_default_layout_pads_no_operand(self):
        y, lines = self.explain()
        assert (y.tile_shape, y.data_pages) == ((1024, 1), 4)
        assert lines == []


class TestExplainAnalyzeSharedScan:
    """A 64-block pool: X'y rides on the crossprod's one scan of X, so
    ``matmul_io`` leaves the plan and the shared operator's
    ``crossprod_io`` (with its side term) must sit in the band on its
    own — 0.67 here (0.79 while y was sixteen 32 x 1 tiles of a page
    each, not one page-filling 512 x 1 tile), 0.67 for the crossprod
    alone in the unshared plan: X'X is written when the one pass ends
    and is still dirty in the pool then, so the solve that evicts it
    is charged the writes.  (``solve_io`` reads 0.013 at this pool —
    4 of 297 blocks; 32 with y and X'y in 32 x 1 tiles, 57 of 529
    before the LU carried its right-hand side in one pass per strip —
    and 0.39 before X'X was factored in place: the 256 x 256 factor
    fits the pool, and the LU now overwrites the X'X the crossprod
    left there instead of copying it — the known gap of the dense
    band, which a pool-aware LU model closes.  At the 48-block pool
    above it reads 0.56, 174 of 313 blocks: 0.60 in 32 x 1 tiles,
    0.62 before the one-pass LU, 0.68 with the copy.)"""

    def test_shared_operator_in_band(self):
        s = RiotSession(storage=StorageConfig(memory_bytes=64 * 8192),
                        config=OptimizerConfig(level=2))
        node = ols_node(s)
        text = s.explain(node, analyze=True)
        assert "crossprod[sides=1]" in text
        assert "(rejected: crossprod + separate t(a) %*% b" in text
        assert "side_cols=1" in text
        assert "matmul_io" not in text
        report = s.calibration_report(node)
        assert set(report.models) == {"crossprod_io", "solve_io"}
        assert 0.5 <= report.models["crossprod_io"].median_ratio <= 2.0


class TestExplainAnalyzePread:
    def test_contract_with_real_syscalls(self):
        with make_session(backend="pread") as s:
            text = s.explain(ols_node(s), analyze=True)
        assert_analyze_contract(text, "pread")
        # The execution summary reports physical syscalls, not zeros.
        [line] = [ln for ln in text.splitlines()
                  if ln.startswith("execution: ")]
        syscalls = int(line.split(" syscalls")[0].rsplit(" ", 1)[-1])
        assert syscalls > 0


class TestExplainAnalyzeCodec:
    """A codec result's tiles are still pending, not yet encoded, when
    its plan ends: the cold window's trailing flush encodes them and
    charges their pages to the root, as it charges a raw result's
    dirty frames."""

    @pytest.mark.parametrize("codec", ["raw", "zstd"])
    def test_root_is_charged_the_results_writes(self, codec):
        with RiotSession(storage=StorageConfig(
                memory_bytes=4 << 20, codec=codec)) as s:
            x = s.matrix(np.random.default_rng(23)
                         .standard_normal((1024, 256)))
            plan = s.plan(x.crossprod().node)
            out = s.evaluator.execute(plan, cold=True)
            # X'X: four 128-side tiles of 16 pages each; a codec tile
            # keeps data in the first pages of its span.
            written = 64 if codec == "raw" else out.stored_pages()[0]
            assert 0 < written <= 64
            assert plan.root.measured.writes == written


class TestAnalyzeSurfaces:
    def test_handle_explain_passes_analyze_through(self):
        s = make_session()
        rng = np.random.default_rng(3)
        x = s.matrix(rng.standard_normal((N_OBS, N_FEAT)), name="X")
        text = x.crossprod().explain(analyze=True)
        assert "-- analyze (backend=memory) --" in text
        assert "calibration: crossprod_io:" in text

    def test_level0_analyze_explains_why_not(self):
        s = make_session(level=0)
        x = s.vector(np.arange(1024, dtype=np.float64))
        text = s.explain((x + 1.0).node, analyze=True)
        assert "-- physical plan (level 0) --" in text
        assert "map:+[stream]" in text and "| measured " in text
        assert "-- analyze (backend=memory) --" in text
        assert "calibration: stream_io:" in text

    def test_rlang_explain_analyze(self):
        from repro.core.engine import RiotNGEngine
        engine = RiotNGEngine(memory_bytes=POOL_SCALARS * 8)
        interp = Interpreter(engine, seed=5)
        interp.run("x <- matrix(rnorm(512 * 256), 512, 256)\n"
                   "y <- matrix(rnorm(512), 512, 1)\n"
                   "beta <- solve(t(x) %*% x, t(x) %*% y)\n"
                   "explain(beta, TRUE)")
        text = interp.output[-1]
        assert "-- analyze (backend=memory) --" in text
        assert "| ratio " in text
        assert "calibration: solve_io:" in text

    def test_rlang_explain_still_defaults_to_plain(self):
        from repro.core.engine import RiotNGEngine
        engine = RiotNGEngine(memory_bytes=4 * 1024 * 1024)
        interp = Interpreter(engine, seed=5)
        interp.run("a <- matrix(rnorm(64 * 48), 64, 48)\n"
                   "b <- matrix(rnorm(48 * 32), 48, 32)\n"
                   "explain(a %*% b)")
        text = interp.output[-1]
        assert "-- physical plan (level 2) --" in text
        assert "-- analyze" not in text


class TestCostInputsInExplain:
    def test_dense_ops_show_cost_inputs(self):
        s = make_session()
        text = s.explain(ols_node(s))  # plain EXPLAIN, no analyze
        assert ("(cost: crossprod_io(m=512, k=256, side_cols=1, "
                "tile_side=32, memory=49152, block=1024))") in text
        assert ("(cost: solve_io(n=256, nrhs=1, in_place=True, "
                "memory=49152, block=1024))") in text

    def test_sparse_ops_show_nnz_and_tile_inputs(self):
        """The satellite fix: sparse plans expose the cost inputs the
        planner actually priced — tile counts and nnz."""
        s = make_session()
        a = s.random_sparse_matrix(512, 512, 0.005, seed=1)
        b = s.random_sparse_matrix(512, 512, 0.005, seed=2)
        v = s.matrix(np.random.default_rng(3).standard_normal((512, 1)))
        text = s.explain(((a @ b) @ v).node)
        assert "(cost: spmm_io(m=512, l=512, n=1, nnz=" in text
        assert "tiles=(128, 128)" in text
        assert "tile_side=" not in text
