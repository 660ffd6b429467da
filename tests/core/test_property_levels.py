"""Hypothesis property: optimizer levels 0/1/2 agree bitwise.

Random DAGs over ragged tile grids (dense and sparse leaves) are
forced in three sessions at optimizer levels 0, 1 and 2; the results
must be **bitwise identical** — the optimizer may only change *how*
blocks move, never a single ULP of the answer.

Generator constraints keep that guarantee honest (each is a real
engine contract, pinned here):

- No >= 3-factor multiply chains: the DP legitimately reassociates
  them, which changes floating-point grouping (covered by allclose
  tests elsewhere).
- Transposes appear on leaves only (``t(A %*% B)`` pushed through the
  product reorders the accumulation outright).
- Sparse products carry an explicit ``kernel="sparse"`` pin so every
  level runs the same kernel; unpinned kernel choice may (correctly)
  switch to a dense kernel with a different accumulation order.
- Matrix operands stay small enough to fit one Appendix-A panel, so
  fused and unfused epilogues split the k-loop identically.
- Patterns whose rewrite changes the *BLAS transpose mode* — operand
  flags (``t(A) %*% B``) and the symmetric Crossprod forms (where
  numpy dispatches SYRK for the same-buffer product) — are held to
  last-ulp *closeness* instead: gemm's 'T' and 'N' paths use different
  remainder kernels at odd sizes, so e.g. ``A.T @ B`` and
  ``ascontiguousarray(A.T) @ B`` already differ in the final ulp at
  n = 33 with stock OpenBLAS.  Everything that leaves the BLAS calls
  untouched — pushdown, CSE, folding, epilogue fusion, plain products
  — must be exactly identical.

Level 0 is the same executor with the optimizer off: its session runs
``strict`` (every level-0 plan passes ``verify_plan``) and its plans
must show that nothing was chosen.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Map, MatMul, OptimizerConfig, RiotSession
from repro.core.plan import BnljOp, FusedEpilogueOp
from repro.storage import StorageConfig

LEVELS = (0, 1, 2)
MEM = 4 * 1024 * 1024


def make_session(level):
    return RiotSession(
        storage=StorageConfig(memory_bytes=MEM, block_size=8192),
        config=OptimizerConfig(level=level, strict=level == 0))


def planned(s, root):
    """``root``, after checking what its plan may contain at level 0:
    program order, type-driven kernels, no fusion."""
    if s.config.level == 0:
        for op in s.plan(root).ops():
            assert not isinstance(op, (FusedEpilogueOp, BnljOp))
            assert "order=" not in op.detail
    return root


def values_at_level(build, level):
    s = make_session(level)
    return np.asarray(s.values(planned(s, build(s))))


def assert_levels_bitwise(build, exact=True):
    v0 = values_at_level(build, 0)
    for level in LEVELS[1:]:
        v = values_at_level(build, level)
        assert v.shape == v0.shape
        if exact:
            assert np.array_equal(v0, v), \
                f"level {level} differs from level 0"
        else:
            assert np.allclose(v0, v, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Vector DAGs: maps, masked assigns, subscripts, ragged lengths
# ----------------------------------------------------------------------
@st.composite
def vector_spec(draw, depth):
    if depth == 0:
        return ("leaf", draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(
        ["unary", "binary", "ifelse", "assign_mask", "assign_pos",
         "leafy"]))
    if kind == "leafy":
        return ("leaf", draw(st.integers(0, 2)))
    if kind == "unary":
        op = draw(st.sampled_from(["neg", "abs", "floor", "sqrtabs"]))
        return ("unary", op, draw(vector_spec(depth - 1)))
    if kind == "binary":
        op = draw(st.sampled_from(["+", "-", "*"]))
        return ("binary", op, draw(vector_spec(depth - 1)),
                draw(vector_spec(depth - 1)))
    if kind == "ifelse":
        return ("ifelse", draw(st.sampled_from([">", "<"])),
                draw(st.floats(-1.0, 1.0)),
                draw(vector_spec(depth - 1)),
                draw(vector_spec(depth - 1)))
    if kind == "assign_mask":
        return ("assign_mask", draw(st.sampled_from([">", "<"])),
                draw(st.floats(-1.0, 1.0)),
                draw(vector_spec(depth - 1)),
                draw(st.floats(-2.0, 2.0)))
    return ("assign_pos", draw(vector_spec(depth - 1)),
            draw(st.floats(-2.0, 2.0)))


def build_vector(spec, s, leaves, n):
    kind = spec[0]
    if kind == "leaf":
        return leaves[spec[1]]
    if kind == "unary":
        child = build_vector(spec[2], s, leaves, n)
        if spec[1] == "sqrtabs":
            return child.abs().sqrt()
        return child._wrap(Map(spec[1], child.node))
    if kind == "binary":
        a = build_vector(spec[2], s, leaves, n)
        b = build_vector(spec[3], s, leaves, n)
        return {"+": a + b, "-": a - b, "*": a * b}[spec[1]]
    if kind == "ifelse":
        _, op, thresh, t_spec, f_spec = spec
        t = build_vector(t_spec, s, leaves, n)
        f = build_vector(f_spec, s, leaves, n)
        mask = (leaves[0] > thresh) if op == ">" else \
            (leaves[0] < thresh)
        return mask.ifelse(t, f)
    if kind == "assign_mask":
        _, op, thresh, base_spec, value = spec
        base = build_vector(base_spec, s, leaves, n)
        mask = (base > thresh) if op == ">" else (base < thresh)
        return base.assign(mask, value)
    # assign_pos: overwrite a prefix slice with a constant
    base = build_vector(spec[1], s, leaves, n)
    hi = max(1, n // 3)
    return base.assign(slice(1, hi), spec[2])


@given(spec=vector_spec(depth=3),
       n=st.integers(257, 2500),
       seed=st.integers(0, 2**16),
       subscript=st.booleans())
@settings(max_examples=20, deadline=None)
def test_vector_dags_bitwise_across_levels(spec, n, seed, subscript):
    data = [np.random.default_rng(seed + i).standard_normal(n)
            for i in range(3)]

    def build(s):
        leaves = [s.vector(d) for d in data]
        out = build_vector(spec, s, leaves, n)
        if subscript:
            out = out[1:max(2, n // 4)]
        return out.node

    assert_levels_bitwise(build)


# ----------------------------------------------------------------------
# Matrix DAGs: products, flags, crossprods, epilogues, ragged grids
# ----------------------------------------------------------------------
@given(pattern=st.sampled_from(
           ["mm", "tmm", "mtm", "crossprod", "tcross", "epilogue",
            "ep_cross"]),
       m=st.integers(33, 200), k=st.integers(33, 200),
       n=st.integers(33, 200),
       lin=st.sampled_from(["row", "col"]),
       seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_dense_matrix_dags_bitwise_across_levels(pattern, m, k, n,
                                                 lin, seed):
    g = np.random.default_rng(seed)
    a_np = g.standard_normal((m, k))
    b_np = g.standard_normal((k, n))
    c_np = g.standard_normal((m, n))
    d_np = g.standard_normal((k, k))
    a2_np = g.standard_normal((m, n))
    c2_np = g.standard_normal((n, k))

    def build(s):
        a = s.matrix(a_np, linearization=lin)
        b = s.matrix(b_np, linearization=lin)
        if pattern == "mm":
            return (a @ b).node
        if pattern == "tmm":   # t(A) %*% A2 via flags vs materialized
            a2 = s.matrix(a2_np)
            return (a.T @ a2).node
        if pattern == "mtm":   # A %*% t(C2) via the trans_b flag
            c2 = s.matrix(c2_np)
            return (a @ c2.T).node
        if pattern == "crossprod":
            return (a.T @ a).node
        if pattern == "tcross":
            return (a @ a.T).node
        if pattern == "epilogue":
            c = s.matrix(c_np)
            return ((a @ b) * 0.5 + c).node
        # ep_cross: fused crossprod epilogue
        d = s.matrix(d_np)
        return ((a.T @ a) * 2.0 - d).node

    transpose_mode_changes = pattern in (
        "tmm", "mtm", "crossprod", "tcross", "ep_cross")
    assert_levels_bitwise(build, exact=not transpose_mode_changes)


# ----------------------------------------------------------------------
# Sparse leaves (kernel pinned so all levels run the same kernel)
# ----------------------------------------------------------------------
@given(density=st.floats(0.001, 0.05),
       n=st.integers(130, 400),
       seed=st.integers(0, 2**16),
       both_sparse=st.booleans())
@settings(max_examples=15, deadline=None)
def test_sparse_dags_bitwise_across_levels(density, n, seed,
                                           both_sparse):
    g = np.random.default_rng(seed)
    nnz = max(1, int(round(density * n * n)))
    flat_a = g.choice(n * n, size=nnz, replace=False)
    vals_a = g.standard_normal(nnz)
    flat_b = g.choice(n * n, size=nnz, replace=False)
    vals_b = g.standard_normal(nnz)
    dense_np = g.standard_normal((n, 1))

    def build(s):
        A = s.sparse_matrix(flat_a // n, flat_a % n, vals_a, (n, n))
        if both_sparse:
            B = s.sparse_matrix(flat_b // n, flat_b % n, vals_b,
                                (n, n))
            return MatMul(A.node, B.node, kernel="sparse")
        v = s.matrix(dense_np)
        return MatMul(A.node, v.node, kernel="sparse")

    def values(level):
        s = make_session(level)
        forced = s.force(planned(s, build(s)))
        return forced.to_numpy()

    v0 = values(0)
    for level in LEVELS[1:]:
        assert np.array_equal(v0, values(level))
