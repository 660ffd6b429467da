"""Golden-plan snapshots: plan-choice regressions fail loudly.

Each test pins the *structure* of the plan the cost-based planner picks
for a canonical workload — operator kinds, kernel details, chain order
and tree shape via ``PhysicalPlan.signature()`` — plus the section
markers of ``session.explain()``.  Cost-model tweaks that change
predicted numbers don't trip these; a different *choice* does, which is
exactly the alarm we want.
"""

import numpy as np

from repro.core import (MatMul, OptimizerConfig, RiotSession, Solve,
                        Transpose)
from repro.storage import StorageConfig


def session(mem_scalars=96 * 1024, level=2):
    return RiotSession(
        storage=StorageConfig(memory_bytes=mem_scalars * 8,
                              block_size=8192),
        config=OptimizerConfig(level=level))


def rng():
    return np.random.default_rng(7)


class TestGoldenOLS:
    def test_ols_plan_signature(self):
        """X'y rides on the crossprod's scan of X: one operator feeds
        both of the solve's inputs."""
        s = session()
        X = s.matrix(rng().standard_normal((512, 128)), name="X")
        y = s.matrix(rng().standard_normal((512, 1)), name="y")
        node = Solve(MatMul(Transpose(X.node), X.node),
                     MatMul(Transpose(X.node), y.node))
        assert s.plan(node).signature() == (
            "solve.lu[nrhs=1]("
            "crossprod[sides=1](input:X, input:y), "
            "crossprod[sides=1](shared))")

    def test_level0_ols_plan_is_the_program_as_written(self):
        """Same program, optimizer off: both transposes are stored,
        both products run the default kernel, nothing is shared."""
        s = session(level=0)
        X = s.matrix(rng().standard_normal((512, 128)), name="X")
        y = s.matrix(rng().standard_normal((512, 1)), name="y")
        node = Solve(MatMul(Transpose(X.node), X.node),
                     MatMul(Transpose(X.node), y.node))
        assert s.plan(node).signature() == (
            "solve.lu[nrhs=1]("
            "matmul.square(transpose.materialize(input:X), input:X), "
            "matmul.square(transpose.materialize(input:X), input:y))")


class TestGoldenSparseChain:
    def test_sparse_chain_plan_signature(self):
        s = session(mem_scalars=24 * 1024)
        coo = np.random.default_rng(1)
        n, nnz = 512, 1310
        flat = coo.choice(n * n, size=nnz, replace=False)
        A = s.sparse_matrix(flat // n, flat % n,
                            coo.standard_normal(nnz), (n, n),
                            name="A")
        flat2 = coo.choice(n * n, size=nnz, replace=False)
        B = s.sparse_matrix(flat2 // n, flat2 % n,
                            coo.standard_normal(nnz), (n, n),
                            name="B")
        v = s.matrix(coo.standard_normal((n, 1)), name="v")
        plan = s.plan(((A @ B) @ v).node)
        assert plan.signature() == (
            "matmul.spmm[order=(A1 (A2 A3))]("
            "input:A, matmul.spmm(input:B, input:v))")


class TestGoldenRidge:
    def test_fused_crossprod_epilogue_signature(self):
        """Ridge normal matrix X'X + lambda I: the elementwise add is
        fused into the symmetric crossprod kernel."""
        s = session()
        X = s.matrix(rng().standard_normal((512, 128)), name="X")
        lam_eye = s.matrix(0.1 * np.eye(128), name="lamI")
        node = (X.crossprod() + lam_eye).node
        plan = s.plan(node)
        assert plan.signature() == (
            "matmul+epilogue[crossprod]("
            "input:X, input:lamI)")


class TestGoldenChainReorder:
    def test_skewed_dense_chain_signature(self):
        """The DP goes right-deep, and for the top multiply (wide
        result, tiny inner dimension) the BNLJ model undercuts the
        Appendix-A schedule by more than the 10% preference margin —
        the planner picks it and keeps square-tile as the recorded
        alternative."""
        s = session()
        g = rng()
        a = s.matrix(g.standard_normal((512, 64)), name="a")
        b = s.matrix(g.standard_normal((64, 512)), name="b")
        c = s.matrix(g.standard_normal((512, 256)), name="c")
        plan = s.plan(((a @ b) @ c).node)
        assert plan.signature() == (
            "matmul.bnlj[order=(A1 (A2 A3))]("
            "input:a, matmul.square(input:b, input:c))")
        assert any(alt == "square-tile"
                   for alt, _ in plan.root.alternatives)


class TestExplainMarkers:
    def test_sections_and_per_op_io(self):
        s = session()
        a = s.matrix(rng().standard_normal((96, 64)), name="a")
        b = s.matrix(rng().standard_normal((64, 96)), name="b")
        handle = a @ b
        text = s.explain(handle)
        assert "-- original --" in text
        assert "-- optimized --" in text
        assert "-- physical plan (level 2) --" in text
        assert "matmul.square" in text
        assert "predicted ~" in text
        assert "total predicted" in text
        handle.force()
        text = s.explain(handle)
        assert "| measured" in text


class TestGoldenPlansVerify:
    """Every golden plan passes static verification (repro.analysis).

    The snapshots above pin *which* plan the optimizer picks; this
    pins that each pick is statically *feasible* under the session's
    own storage budget — shapes conform, panel footprints fit the
    pool, kernel pins are honored, predictions are sane.
    """

    def golden_plans(self):
        s = session()
        g = rng()
        X = s.matrix(g.standard_normal((512, 128)), name="X")
        y = s.matrix(g.standard_normal((512, 1)), name="y")
        yield s, s.plan(Solve(MatMul(Transpose(X.node), X.node),
                              MatMul(Transpose(X.node), y.node)))
        lam_eye = s.matrix(0.1 * np.eye(128), name="lamI")
        yield s, s.plan((X.crossprod() + lam_eye).node)
        a = s.matrix(g.standard_normal((512, 64)), name="a")
        b = s.matrix(g.standard_normal((64, 512)), name="b")
        c = s.matrix(g.standard_normal((512, 256)), name="c")
        yield s, s.plan(((a @ b) @ c).node)
        s2 = session(mem_scalars=24 * 1024)
        coo = np.random.default_rng(1)
        n, nnz = 512, 1310
        flat = coo.choice(n * n, size=nnz, replace=False)
        A = s2.sparse_matrix(flat // n, flat % n,
                             coo.standard_normal(nnz), (n, n),
                             name="A")
        v = s2.matrix(coo.standard_normal((n, 1)), name="v")
        yield s2, s2.plan(((A @ v)).node)

    def test_all_golden_plans_verify_clean(self):
        from repro.analysis import verify_plan
        checked = 0
        for s, plan in self.golden_plans():
            verify_plan(plan, s.storage)
            checked += 1
        assert checked == 4
