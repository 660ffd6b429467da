"""Tests for DAG rewriting — the Figure-2 optimization and friends.

No session here: the logical rewrites are read off the pass pipeline's
output, chain order off the plan (it is the planner's decision).
"""

import numpy as np

from repro.core import (ArrayInput, Map, MatMul, OptimizerConfig,
                        Planner, Range, Scalar, Subscript,
                        SubscriptAssign, count_nodes, walk)
from repro.core.passes import PassContext, build_pipeline, dag_signature


def optimize(expr, config=None):
    config = config or OptimizerConfig()
    return build_pipeline(config).run(expr, PassContext())


def planned(expr, **overrides):
    config = OptimizerConfig(**overrides)
    return Planner(config).plan(optimize(expr, config))


def vec(n, name="v"):
    return ArrayInput(np.arange(n, dtype=float), name=name)


def mat(r, c):
    return ArrayInput(np.zeros((r, c)))


class TestSubscriptPushdown:
    def test_push_through_map(self):
        """f(x, y)[s] -> f(x[s], y[s])."""
        x, y = vec(100, "x"), vec(100, "y")
        expr = Subscript(Map("+", x, y), Range(1, 5))
        out = optimize(expr)
        assert isinstance(out, Map)
        assert all(isinstance(c, Subscript) for c in out.children)

    def test_scalar_children_not_subscripted(self):
        x = vec(100)
        expr = Subscript(Map("+", x, Scalar(5.0)), Range(1, 5))
        out = optimize(expr)
        assert isinstance(out, Map)
        assert isinstance(out.children[1], Scalar)

    def test_push_through_nested_maps_to_leaves(self):
        x = vec(100)
        expr = Subscript(
            Map("sqrt", Map("pow", Map("-", x, Scalar(1.0)),
                            Scalar(2.0))),
            Range(1, 10))
        out = optimize(expr)
        # The subscript must now sit directly on the input.
        subs = [n for n in walk(out) if isinstance(n, Subscript)]
        assert len(subs) == 1
        assert isinstance(subs[0].src, ArrayInput)

    def test_figure2_pushdown(self):
        """The paper's headline rewrite: (b with b[mask]<-100)[1:10]."""
        a = vec(1000, "a")
        b = Map("pow", a, Scalar(2.0))
        mask = Map(">", b, Scalar(100.0))
        modified = SubscriptAssign(b, mask, Scalar(100.0),
                                   logical_mask=True)
        expr = Subscript(modified, Range(1, 10))
        out = optimize(expr)
        # Result shape: ifelse(mask[1:10-ish], 100, b[1:10]) with the
        # subscript pushed all the way onto `a`.
        assert isinstance(out, Map) and out.op == "ifelse"
        assign_nodes = [n for n in walk(out)
                        if isinstance(n, SubscriptAssign)]
        assert not assign_nodes
        subs = [n for n in walk(out) if isinstance(n, Subscript)]
        assert subs, "selection must survive as a gather"
        for s in subs:
            assert isinstance(s.src, ArrayInput)

    def test_figure2_rewrite_preserves_semantics(self):
        values = np.linspace(0, 20, 500)
        a = ArrayInput(values, name="a")
        b = Map("pow", a, Scalar(2.0))
        mask = Map(">", b, Scalar(100.0))
        modified = SubscriptAssign(b, mask, Scalar(100.0),
                                   logical_mask=True)
        expr = Subscript(modified, Range(1, 10))
        out = optimize(expr)
        got = _eval_numpy(out)
        expect = np.minimum(values ** 2, 100.0)[:10]
        assert np.allclose(got, expect)

    def test_subscript_of_range_is_arithmetic(self):
        expr = Subscript(Range(5, 100), Range(1, 3))
        out = optimize(expr)
        assert not any(isinstance(n, Subscript) for n in walk(out))
        assert np.allclose(_eval_numpy(out), [5, 6, 7])

    def test_subscript_of_unit_range_is_identity(self):
        idx = vec(3, "idx")
        expr = Subscript(Range(1, 100), idx)
        out = optimize(expr)
        assert out is idx

    def test_subscript_composition(self):
        x = vec(100, "x")
        i1 = vec(10, "i1")
        expr = Subscript(Subscript(x, i1), Range(1, 2))
        out = optimize(expr)
        # x[i1][1:2] -> x[i1[1:2]]
        assert isinstance(out, Subscript)
        assert out.src is x or isinstance(out.src, ArrayInput)

    def test_pushdown_disabled_leaves_dag_alone(self):
        x = vec(100)
        expr = Subscript(Map("+", x, Scalar(1.0)), Range(1, 5))
        out = optimize(expr, OptimizerConfig(pushdown=False))
        assert isinstance(out, Subscript)


class TestConstantFolding:
    def test_scalar_subtree_folds(self):
        expr = Map("+", Scalar(2.0), Map("*", Scalar(3.0), Scalar(4.0)))
        out = optimize(expr)
        assert isinstance(out, Scalar)
        assert out.value == 14.0

    def test_mixed_subtree_partially_folds(self):
        x = vec(10)
        expr = Map("*", x, Map("+", Scalar(1.0), Scalar(1.0)))
        out = optimize(expr)
        assert isinstance(out.children[1], Scalar)
        assert out.children[1].value == 2.0


class TestCSE:
    def test_identical_subtrees_merged(self):
        """Example 1 builds (x-xs) twice in separate trees; CSE shares."""
        x = vec(100, "x")
        t1 = Map("pow", Map("-", x, Scalar(1.0)), Scalar(2.0))
        t2 = Map("pow", Map("-", x, Scalar(1.0)), Scalar(2.0))
        expr = Map("+", t1, t2)
        out = optimize(expr)
        assert out.children[0] is out.children[1]

    def test_different_constants_not_merged(self):
        x = vec(100, "x")
        t1 = Map("-", x, Scalar(1.0))
        t2 = Map("-", x, Scalar(2.0))
        out = optimize(Map("+", t1, t2))
        assert out.children[0] is not out.children[1]

    def test_cse_reduces_node_count(self):
        x = vec(100, "x")
        t1 = Map("sqrt", Map("pow", x, Scalar(2.0)))
        t2 = Map("sqrt", Map("pow", x, Scalar(2.0)))
        expr = Map("+", t1, t2)
        assert count_nodes(optimize(expr)) < count_nodes(expr)


class TestChainReorder:
    def test_skewed_chain_reordered(self):
        """A(BC) beats (AB)C when A is wide (the Figure-3 skew)."""
        a, b, c = mat(100, 10), mat(10, 100), mat(100, 100)
        plan = planned(MatMul(MatMul(a, b), c))
        assert "order=" in plan.root.detail
        # New shape: A (BC)
        assert plan.logical_root.children[0] is a

    def test_already_optimal_untouched(self):
        a, b, c = mat(10, 100), mat(100, 10), mat(10, 10)
        plan = planned(MatMul(MatMul(a, b), c))
        assert "order=" not in plan.root.detail
        assert plan.logical_root.children[1] is c

    def test_two_factor_chain_untouched(self):
        a, b = mat(5, 6), mat(6, 7)
        assert "order=" not in planned(MatMul(a, b)).root.detail

    def test_four_factor_chain(self):
        dims = [(50, 5), (5, 50), (50, 5), (5, 50)]
        mats = [mat(r, c) for r, c in dims]
        expr = MatMul(MatMul(MatMul(mats[0], mats[1]), mats[2]),
                      mats[3])
        assert planned(expr).logical_root.shape == (50, 50)

    def test_reorder_disabled(self):
        a, b, c = mat(100, 10), mat(10, 100), mat(100, 100)
        plan = planned(MatMul(MatMul(a, b), c), chain_reorder=False)
        assert "order=" not in plan.root.detail
        assert plan.logical_root.children[1] is c


class TestFixpoint:
    def test_idempotent(self):
        x = vec(100, "x")
        expr = Subscript(Map("+", x, Scalar(1.0)), Range(1, 5))
        once = optimize(expr)
        twice = optimize(once)
        assert dag_signature(once) == dag_signature(twice)


def _eval_numpy(node):
    """Reference evaluation of a DAG over in-memory numpy inputs."""
    from repro.core.expr import (BINARY_OPS, TERNARY_OPS, UNARY_OPS,
                                 ArrayInput, Map, Range, Scalar,
                                 Subscript, SubscriptAssign)
    if isinstance(node, Scalar):
        return node.value
    if isinstance(node, Range):
        return np.arange(node.lo, node.hi + 1, dtype=float)
    if isinstance(node, ArrayInput):
        return np.asarray(node.data)
    if isinstance(node, Map):
        fns = {**UNARY_OPS, **BINARY_OPS, **TERNARY_OPS}
        return fns[node.op](*(_eval_numpy(c) for c in node.children))
    if isinstance(node, Subscript):
        idx = np.asarray(_eval_numpy(node.index)).astype(int)
        return np.asarray(_eval_numpy(node.src))[idx - 1]
    if isinstance(node, SubscriptAssign):
        base = np.asarray(_eval_numpy(node.base)).copy()
        value = _eval_numpy(node.value)
        if node.logical_mask:
            mask = np.asarray(_eval_numpy(node.index)).astype(bool)
            base[mask] = value
        else:
            idx = np.asarray(_eval_numpy(node.index)).astype(int)
            base[idx - 1] = value
        return base
    raise NotImplementedError(type(node).__name__)
