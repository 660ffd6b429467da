"""Unified node identity: CSE keys and fixpoint signatures agree.

Regression tests for the old split-brain bug where the fixpoint
signature probed ``kernel``/``trans_a``/``trans_b`` via getattr on every
node but knew nothing about ``Crossprod.t_first`` or
``SubscriptAssign.logical_mask``, while the CSE key special-cased a
different set of attributes.  Both now derive from
``repro.core.passes.signatures``.
"""

import numpy as np

from repro.core import (ArrayInput, Crossprod, Map, MatMul,
                        OptimizerConfig, Range, Scalar, SubscriptAssign,
                        walk)
from repro.core.passes import PassContext, build_pipeline
from repro.core.passes.signatures import (canon_key, dag_signature,
                                          node_attrs)


def optimize(expr):
    return build_pipeline(OptimizerConfig()).run(expr, PassContext())


def mat(r, c, data=None):
    return ArrayInput(np.zeros((r, c)) if data is None else data)


def vec(n):
    return ArrayInput(np.arange(n, dtype=float))


class TestNodeAttrs:
    def test_matmul_attrs_include_kernel_and_flags(self):
        a, b = mat(8, 8), mat(8, 8)
        assert node_attrs(MatMul(a, b)) != \
            node_attrs(MatMul(a, b, trans_a=True))
        assert node_attrs(MatMul(a, b)) != \
            node_attrs(MatMul(a, b, kernel="dense"))
        assert node_attrs(MatMul(a, b, trans_a=True)) != \
            node_attrs(MatMul(a, b, trans_b=True))

    def test_crossprod_attrs_include_t_first(self):
        a = mat(8, 8)
        assert node_attrs(Crossprod(a, t_first=True)) != \
            node_attrs(Crossprod(a, t_first=False))

    def test_subscript_assign_attrs_include_mask_flag(self):
        base = vec(10)
        mask = Map(">", base, Scalar(0.0))
        assign = SubscriptAssign(base, mask, Scalar(1.0),
                                 logical_mask=True)
        idx = ArrayInput(np.asarray([1.0, 2.0]))
        positional = SubscriptAssign(base, idx, Scalar(1.0),
                                     logical_mask=False)
        assert node_attrs(assign) != node_attrs(positional)

    def test_scalar_and_range_attrs_carry_values(self):
        assert node_attrs(Scalar(1.0)) != node_attrs(Scalar(2.0))
        assert node_attrs(Range(1, 5)) != node_attrs(Range(2, 5))


class TestCanonKey:
    def test_flagged_vs_unflagged_matmul_never_merge(self):
        a, b = mat(8, 8), mat(8, 8)
        assert canon_key(MatMul(a, b)) != \
            canon_key(MatMul(a, b, trans_a=True))

    def test_same_structure_same_key(self):
        a, b = mat(8, 8), mat(8, 8)
        assert canon_key(MatMul(a, b, trans_a=True)) == \
            canon_key(MatMul(a, b, trans_a=True))

    def test_kernel_hint_distinguishes(self):
        a, b = mat(8, 8), mat(8, 8)
        assert canon_key(MatMul(a, b, kernel="dense")) != \
            canon_key(MatMul(a, b, kernel="auto"))


class TestDagSignature:
    def test_t_first_flip_changes_signature(self):
        """The old getattr-based signature was blind to t_first: a pass
        flipping only that attribute looked like a no-op to fixpoint
        detection."""
        a = mat(8, 8)
        assert dag_signature(Crossprod(a, t_first=True)) != \
            dag_signature(Crossprod(a, t_first=False))

    def test_mask_flag_flip_changes_signature(self):
        base = vec(4)
        idx = ArrayInput(np.asarray([1.0, 2.0, 3.0, 4.0]))
        masked = SubscriptAssign(base, Map(">", base, Scalar(0.0)),
                                 Scalar(1.0), logical_mask=True)
        # Rebuild with the same wiring but positional semantics.
        positional = SubscriptAssign(base, idx, Scalar(1.0),
                                     logical_mask=False)
        assert dag_signature(masked) != dag_signature(positional)

    def test_identical_rebuild_same_signature(self):
        a, b = mat(8, 4), mat(4, 8)
        s1 = dag_signature(Map("+", MatMul(a, b), Scalar(1.0)))
        s2 = dag_signature(Map("+", MatMul(a, b), Scalar(1.0)))
        assert s1 == s2


class TestCSERegression:
    def test_flagged_and_unflagged_products_survive_cse(self):
        """t(A) %*% B and A %*% B over the same operands must never be
        merged by CSE, whatever order the rewrites fire in."""
        rng = np.random.default_rng(0)
        a = mat(8, 8, rng.standard_normal((8, 8)))
        b = mat(8, 8, rng.standard_normal((8, 8)))
        plain = MatMul(a, b)
        flagged = MatMul(a, b, trans_a=True)
        out = optimize(Map("+", plain, flagged))
        assert out.children[0] is not out.children[1]
        muls = [n for n in walk(out) if isinstance(n, MatMul)]
        assert len(muls) == 2
        assert {m.trans_a for m in muls} == {True, False}

    def test_identical_flagged_products_do_merge(self):
        a = mat(8, 8)
        b = mat(8, 8)
        m1 = MatMul(a, b, trans_a=True)
        m2 = MatMul(a, b, trans_a=True)
        out = optimize(Map("+", m1, m2))
        assert out.children[0] is out.children[1]

    def test_crossprod_direction_never_merges(self):
        a = mat(8, 8)
        out = optimize(Map("+", Crossprod(a, t_first=True),
                           Crossprod(a, t_first=False)))
        assert out.children[0] is not out.children[1]
