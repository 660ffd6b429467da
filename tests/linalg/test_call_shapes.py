"""Call shapes of the dense kernels in undersized pools.

Block totals are pinned all over the suite, but how those blocks move
is not: a kernel announces each step's footprint before it reads it,
and ``read_submatrix`` announces the same rectangle again.  In a pool
too small for a hint the pool clips it, and the second, nested
announcement is what fetches the clipped remainder — drop either one
and block totals and results stay put while device calls, prefetched
blocks and pool hits move.  This test pins those counters for every
dense kernel over a grid of pool sizes, shapes and backends, so a
change to how the kernels move data has to keep the exact sequence of
announcements, reads and writes.

Each case builds its operands, flushes and clears the pool, zeroes the
counters, runs one kernel cold, flushes, and compares the device's
``reads`` / ``writes`` / ``read_calls`` / ``write_calls`` /
``prefetched``, the pool's ``hits`` / ``misses`` / ``prefetch_wasted``
and a digest of the result with the literals below.  The products run
on small integers, so their bits do not depend on the BLAS.  The
factorizations' do, in the last few bits, so every result is digested
rounded to six decimals: another BLAS would have to move a value
across a rounding edge, about a 1e-9 chance for each of the ~150 000
values of the largest case.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.linalg import (backward_substitute, bnlj_matmul,
                          crossprod_matmul, forward_substitute,
                          lu_decompose, lu_solve, square_tile_matmul)
from repro.linalg.solve import lu_solve_panels
from repro.storage import ArrayStore, StorageConfig

BLOCK = 8192
POOLS_KIB = (96, 256, 1024)
SIZES = (200, 384)
BACKENDS = ("memory", "pread")


def _ints(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-3, 4, size=shape).astype(np.float64)


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned square matrix, so pivots stay tame."""
    return rng.standard_normal((n, n)) + n * np.eye(n)


def _digest(outputs: list) -> str:
    """Digest of a kernel's outputs (stored matrices or arrays), each
    rounded to six decimals — exact on the products' integers."""
    h = hashlib.sha256()
    for out in outputs:
        values = out if isinstance(out, np.ndarray) else out.to_numpy()
        h.update((np.round(values.astype(np.float64), 6) + 0.0).tobytes())
    return h.hexdigest()[:16]


def _budget(store: ArrayStore, kernel: str, n: int) -> int:
    """The kernel's memory budget: the pool's scalars, raised to the
    LU's minimum tall panel where the pool is smaller than that."""
    pool = store.storage.memory_scalars
    if kernel in ("square", "square_fused", "crossprod", "crossprod_side",
                  "bnlj"):
        return pool
    return max(pool, 3 * n * 32)


def _kernel(kernel: str, store: ArrayStore, home: ArrayStore, n: int,
            rng: np.random.Generator):
    """Build ``kernel``'s operands in ``home``, then return a thunk
    that runs it into ``store`` and returns its outputs."""
    mem = _budget(store, kernel, n)
    if kernel in ("square", "square_fused"):
        a = home.matrix_from_numpy(_ints(rng, (n, n)), layout="square")
        b = home.matrix_from_numpy(_ints(rng, (n, n)), layout="square")
        if kernel == "square":
            return lambda: [square_tile_matmul(store, a, b, mem)]
        c = home.matrix_from_numpy(_ints(rng, (n, n)), layout="square")

        def plus_c(r0, c0, block):
            return block + c.read_submatrix(
                r0, r0 + block.shape[0], c0, c0 + block.shape[1])
        return lambda: [square_tile_matmul(store, a, b, mem,
                                           trans_a=True, epilogue=plus_c,
                                           epilogue_inputs=1)]
    if kernel in ("crossprod", "crossprod_side"):
        # The plain case is A %*% t(A), so its operand streams
        # transposed; the side product rides on t(X) %*% X.
        t_first = kernel == "crossprod_side"
        x = home.matrix_from_numpy(
            _ints(rng, (2 * n, n) if t_first else (n, 2 * n)))
        y = home.matrix_from_numpy(_ints(rng, (2 * n, 1)))

        def go():
            side = [(y, store.create_matrix((n, 1)))] if t_first else []
            out = crossprod_matmul(store, x, mem, t_first=t_first,
                                   side=side)
            return [out] + [o for _, o in side]
        return go
    if kernel == "bnlj":
        a = home.matrix_from_numpy(_ints(rng, (n, n)), layout="row")
        b = home.matrix_from_numpy(_ints(rng, (n, n)), layout="col")
        return lambda: [bnlj_matmul(store, a, b, mem)]
    a = home.matrix_from_numpy(_spd(rng, n))
    rhs = rng.standard_normal((n, 2))
    if kernel == "lu_decompose":
        def go():
            lu = lu_decompose(store, a, mem)
            return [lu.packed, lu.perm]
        return go
    if kernel == "lu_solve":
        return lambda: [lu_solve(store, a, rhs, mem)]
    if kernel in ("forward", "backward"):
        packed = lu_decompose(home, a, mem).packed
        sweep = forward_substitute if kernel == "forward" \
            else backward_substitute
        return lambda: [sweep(packed, rhs, memory_scalars=mem)]
    assert kernel == "lu_solve_panels"
    b = home.matrix_from_numpy(rng.standard_normal((n, n)))
    return lambda: [lu_solve_panels(
        store, a, n, mem, lambda j0, j1: b.read_submatrix(0, n, j0, j1))]


def measure(kernel: str, pool_kib: int, n: int, backend: str,
            foreign: bool = False) -> tuple:
    """One cold run of ``kernel``: the counters of the store it runs
    in (and, with ``foreign``, of the store holding its operands), then
    the digest of its outputs, read after the counters are taken."""
    rng = np.random.default_rng(1234 + n)
    stores = [ArrayStore(StorageConfig(
        backend=backend, memory_bytes=pool_kib * 1024, block_size=BLOCK))
        for _ in range(2 if foreign else 1)]
    try:
        go = _kernel(kernel, stores[0], stores[-1], n, rng)
        for s in stores:
            s.flush()
            s.pool.clear()
            s.reset_stats()
        outputs = go()
        counts = []
        for s in stores:
            s.flush()
            io, pool = s.device.stats, s.pool.stats
            counts.append((io.reads, io.writes, io.read_calls,
                           io.write_calls, io.prefetched, pool.hits,
                           pool.misses, pool.prefetch_wasted))
        return (*counts, _digest(outputs))
    finally:
        for s in stores:
            s.close()


KERNELS = ("square", "square_fused", "crossprod", "crossprod_side", "bnlj",
           "lu_decompose", "lu_solve", "forward", "backward",
           "lu_solve_panels")

CASES = [(k, p, n, be) for k in KERNELS for p in POOLS_KIB for n in SIZES
         for be in BACKENDS]

FOREIGN = [("square", 256, 200, "memory"),
           ("crossprod_side", 256, 200, "memory"),
           ("bnlj", 256, 200, "memory")]

#: ``(kernel, pool KiB, n, backend) -> ((reads, writes, read_calls,
#: write_calls, prefetched, hits, misses, prefetch_wasted), digest)``.
EXPECTED: dict = {
    ('square', 96, 200, 'memory'):
        ((392, 49, 224, 28, 392, 392, 49, 0), '301d0986ad403a2e'),
    ('square', 96, 200, 'pread'):
        ((392, 49, 224, 28, 392, 392, 49, 0), '301d0986ad403a2e'),
    ('square', 96, 384, 'memory'):
        ((1728, 144, 864, 72, 1728, 1728, 144, 0), '38ee4a1d7bec3f18'),
    ('square', 96, 384, 'pread'):
        ((1728, 144, 864, 72, 1728, 1728, 144, 0), '38ee4a1d7bec3f18'),
    ('square', 256, 200, 'memory'):
        ((290, 49, 125, 27, 289, 293, 50, 0), '301d0986ad403a2e'),
    ('square', 256, 200, 'pread'):
        ((290, 49, 125, 27, 289, 293, 50, 0), '301d0986ad403a2e'),
    ('square', 256, 384, 'memory'):
        ((1152, 144, 384, 48, 1152, 1152, 144, 0), '38ee4a1d7bec3f18'),
    ('square', 256, 384, 'pread'):
        ((1152, 144, 384, 48, 1152, 1152, 144, 0), '38ee4a1d7bec3f18'),
    ('square', 1024, 200, 'memory'):
        ((140, 49, 45, 13, 120, 176, 69, 0), '301d0986ad403a2e'),
    ('square', 1024, 200, 'pread'):
        ((140, 49, 45, 13, 120, 176, 69, 0), '301d0986ad403a2e'),
    ('square', 1024, 384, 'memory'):
        ((576, 144, 96, 24, 576, 576, 144, 0), '38ee4a1d7bec3f18'),
    ('square', 1024, 384, 'pread'):
        ((576, 144, 96, 24, 576, 576, 144, 0), '38ee4a1d7bec3f18'),
    ('square_fused', 96, 200, 'memory'):
        ((735, 49, 735, 49, 735, 735, 49, 0), '75a9f2efb7d65166'),
    ('square_fused', 96, 200, 'pread'):
        ((735, 49, 735, 49, 735, 735, 49, 0), '75a9f2efb7d65166'),
    ('square_fused', 96, 384, 'memory'):
        ((3600, 144, 3600, 144, 3600, 3600, 144, 0), '25ecb9818ec42e13'),
    ('square_fused', 96, 384, 'pread'):
        ((3600, 144, 3600, 144, 3600, 3600, 144, 0), '25ecb9818ec42e13'),
    ('square_fused', 256, 200, 'memory'):
        ((414, 49, 228, 29, 408, 435, 55, 0), '75a9f2efb7d65166'),
    ('square_fused', 256, 200, 'pread'):
        ((414, 49, 228, 29, 408, 435, 55, 0), '75a9f2efb7d65166'),
    ('square_fused', 256, 384, 'memory'):
        ((1872, 144, 936, 72, 1872, 1872, 144, 0), '25ecb9818ec42e13'),
    ('square_fused', 256, 384, 'pread'):
        ((1872, 144, 936, 72, 1872, 1872, 144, 0), '25ecb9818ec42e13'),
    ('square_fused', 1024, 200, 'memory'):
        ((207, 49, 72, 11, 184, 222, 72, 0), '75a9f2efb7d65166'),
    ('square_fused', 1024, 200, 'pread'):
        ((207, 49, 72, 11, 184, 222, 72, 0), '75a9f2efb7d65166'),
    ('square_fused', 1024, 384, 'memory'):
        ((980, 144, 248, 39, 962, 990, 162, 0), '25ecb9818ec42e13'),
    ('square_fused', 1024, 384, 'pread'):
        ((980, 144, 248, 39, 962, 990, 162, 0), '25ecb9818ec42e13'),
    ('crossprod', 96, 200, 'memory'):
        ((364, 49, 196, 28, 364, 364, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 96, 200, 'pread'):
        ((364, 49, 196, 28, 364, 364, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 96, 384, 'memory'):
        ((1728, 144, 864, 72, 1728, 1728, 144, 0), '237cfc412aa8c712'),
    ('crossprod', 96, 384, 'pread'):
        ((1728, 144, 864, 72, 1728, 1728, 144, 0), '237cfc412aa8c712'),
    ('crossprod', 256, 200, 'memory'):
        ((91, 49, 91, 2, 91, 91, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 256, 200, 'pread'):
        ((91, 49, 91, 2, 91, 91, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 256, 384, 'memory'):
        ((864, 144, 432, 36, 864, 864, 144, 0), '237cfc412aa8c712'),
    ('crossprod', 256, 384, 'pread'):
        ((864, 144, 432, 36, 864, 864, 144, 0), '237cfc412aa8c712'),
    ('crossprod', 1024, 200, 'memory'):
        ((91, 49, 21, 1, 91, 91, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 1024, 200, 'pread'):
        ((91, 49, 21, 1, 91, 91, 49, 0), 'df162919e4f8d0f4'),
    ('crossprod', 1024, 384, 'memory'):
        ((288, 144, 72, 2, 288, 288, 144, 0), '237cfc412aa8c712'),
    ('crossprod', 1024, 384, 'pread'):
        ((288, 144, 72, 2, 288, 288, 144, 0), '237cfc412aa8c712'),
    ('crossprod_side', 96, 200, 'memory'):
        ((416, 56, 191, 32, 416, 416, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 96, 200, 'pread'):
        ((416, 56, 191, 32, 416, 416, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 96, 384, 'memory'):
        ((1872, 156, 804, 78, 1872, 1872, 156, 0), '55de7cb0d945c9d3'),
    ('crossprod_side', 96, 384, 'pread'):
        ((1872, 156, 804, 78, 1872, 1872, 156, 0), '55de7cb0d945c9d3'),
    ('crossprod_side', 256, 200, 'memory'):
        ((104, 56, 26, 3, 104, 104, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 256, 200, 'pread'):
        ((104, 56, 26, 3, 104, 104, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 256, 384, 'memory'):
        ((936, 156, 192, 43, 936, 936, 156, 0), '55de7cb0d945c9d3'),
    ('crossprod_side', 256, 384, 'pread'):
        ((936, 156, 192, 43, 936, 936, 156, 0), '55de7cb0d945c9d3'),
    ('crossprod_side', 1024, 200, 'memory'):
        ((104, 56, 6, 2, 104, 104, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 1024, 200, 'pread'):
        ((104, 56, 6, 2, 104, 104, 56, 0), 'fd3c818744724723'),
    ('crossprod_side', 1024, 384, 'memory'):
        ((312, 156, 12, 3, 312, 312, 156, 0), '55de7cb0d945c9d3'),
    ('crossprod_side', 1024, 384, 'pread'):
        ((312, 156, 12, 3, 312, 312, 156, 0), '55de7cb0d945c9d3'),
    ('bnlj', 96, 200, 'memory'):
        ((320, 40, 287, 37, 320, 320, 40, 0), '301d0986ad403a2e'),
    ('bnlj', 96, 200, 'pread'):
        ((320, 40, 287, 37, 320, 320, 40, 0), '301d0986ad403a2e'),
    ('bnlj', 96, 384, 'memory'):
        ((4800, 192, 4632, 116, 4800, 4800, 192, 0), '38ee4a1d7bec3f18'),
    ('bnlj', 96, 384, 'pread'):
        ((4800, 192, 4632, 116, 4800, 4800, 192, 0), '38ee4a1d7bec3f18'),
    ('bnlj', 256, 200, 'memory'):
        ((166, 42, 127, 34, 166, 170, 38, 0), '301d0986ad403a2e'),
    ('bnlj', 256, 200, 'pread'):
        ((166, 42, 127, 34, 166, 170, 38, 0), '301d0986ad403a2e'),
    ('bnlj', 256, 384, 'memory'):
        ((2112, 192, 1930, 118, 2112, 2112, 192, 0), '38ee4a1d7bec3f18'),
    ('bnlj', 256, 384, 'pread'):
        ((2112, 192, 1930, 118, 2112, 2112, 192, 0), '38ee4a1d7bec3f18'),
    ('bnlj', 1024, 200, 'memory'):
        ((80, 40, 41, 1, 80, 80, 40, 0), '301d0986ad403a2e'),
    ('bnlj', 1024, 200, 'pread'):
        ((80, 40, 41, 1, 80, 80, 40, 0), '301d0986ad403a2e'),
    ('bnlj', 1024, 384, 'memory'):
        ((768, 192, 579, 130, 768, 768, 192, 0), '38ee4a1d7bec3f18'),
    ('bnlj', 1024, 384, 'pread'):
        ((768, 192, 579, 130, 768, 768, 192, 0), '38ee4a1d7bec3f18'),
    ('lu_decompose', 96, 200, 'memory'):
        ((234, 235, 234, 220, 234, 441, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 96, 200, 'pread'):
        ((234, 235, 234, 220, 234, 441, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 96, 384, 'memory'):
        ((1073, 1074, 1073, 1058, 1061, 2004, 157, 0), '8a78f57a8aa70e3a'),
    ('lu_decompose', 96, 384, 'pread'):
        ((1073, 1074, 1073, 1058, 1061, 2004, 157, 0), '8a78f57a8aa70e3a'),
    ('lu_decompose', 256, 200, 'memory'):
        ((170, 171, 170, 135, 170, 441, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 256, 200, 'pread'):
        ((170, 171, 170, 135, 170, 441, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 256, 384, 'memory'):
        ((1034, 1035, 1034, 991, 1034, 2016, 145, 0), '8a78f57a8aa70e3a'),
    ('lu_decompose', 256, 384, 'pread'):
        ((1034, 1035, 1034, 991, 1034, 2016, 145, 0), '8a78f57a8aa70e3a'),
    ('lu_decompose', 1024, 200, 'memory'):
        ((49, 50, 49, 2, 49, 161, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 1024, 200, 'pread'):
        ((49, 50, 49, 2, 49, 161, 50, 0), '383edcd32a267c91'),
    ('lu_decompose', 1024, 384, 'memory'):
        ((291, 292, 200, 118, 275, 848, 161, 0), '8a78f57a8aa70e3a'),
    ('lu_decompose', 1024, 384, 'pread'):
        ((291, 292, 200, 118, 275, 848, 161, 0), '8a78f57a8aa70e3a'),
    ('lu_solve', 96, 200, 'memory'):
        ((260, 234, 240, 221, 260, 469, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 96, 200, 'pread'):
        ((260, 234, 240, 221, 260, 469, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 96, 384, 'memory'):
        ((1150, 1073, 1085, 1059, 1138, 2082, 156, 0), '1fe4bb3bee469450'),
    ('lu_solve', 96, 384, 'pread'):
        ((1150, 1073, 1085, 1059, 1138, 2082, 156, 0), '1fe4bb3bee469450'),
    ('lu_solve', 256, 200, 'memory'):
        ((188, 156, 177, 141, 188, 469, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 256, 200, 'pread'):
        ((188, 156, 177, 141, 188, 469, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 256, 384, 'memory'):
        ((1107, 1034, 1044, 997, 1107, 2094, 144, 0), '1fe4bb3bee469450'),
    ('lu_solve', 256, 384, 'pread'):
        ((1107, 1034, 1044, 997, 1107, 2094, 144, 0), '1fe4bb3bee469450'),
    ('lu_solve', 1024, 200, 'memory'):
        ((49, 0, 49, 0, 49, 204, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 1024, 200, 'pread'):
        ((49, 0, 49, 0, 49, 204, 49, 0), '8bebba338e8e0592'),
    ('lu_solve', 1024, 384, 'memory'):
        ((327, 199, 210, 125, 311, 938, 160, 0), '1fe4bb3bee469450'),
    ('lu_solve', 1024, 384, 'pread'):
        ((327, 199, 210, 125, 311, 938, 160, 0), '1fe4bb3bee469450'),
    ('forward', 96, 200, 'memory'):
        ((28, 0, 7, 0, 28, 28, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 96, 200, 'pread'):
        ((28, 0, 7, 0, 28, 28, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 96, 384, 'memory'):
        ((78, 0, 13, 0, 78, 78, 0, 0), '2dadc20e23d6a486'),
    ('forward', 96, 384, 'pread'):
        ((78, 0, 13, 0, 78, 78, 0, 0), '2dadc20e23d6a486'),
    ('forward', 256, 200, 'memory'):
        ((28, 0, 7, 0, 28, 28, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 256, 200, 'pread'):
        ((28, 0, 7, 0, 28, 28, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 256, 384, 'memory'):
        ((78, 0, 12, 0, 78, 78, 0, 0), '2dadc20e23d6a486'),
    ('forward', 256, 384, 'pread'):
        ((78, 0, 12, 0, 78, 78, 0, 0), '2dadc20e23d6a486'),
    ('forward', 1024, 200, 'memory'):
        ((43, 0, 7, 0, 43, 43, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 1024, 200, 'pread'):
        ((43, 0, 7, 0, 43, 43, 0, 0), 'd164d411c8ee45c3'),
    ('forward', 1024, 384, 'memory'):
        ((90, 0, 10, 0, 90, 90, 0, 0), '2dadc20e23d6a486'),
    ('forward', 1024, 384, 'pread'):
        ((90, 0, 10, 0, 90, 90, 0, 0), '2dadc20e23d6a486'),
    ('backward', 96, 200, 'memory'):
        ((28, 0, 7, 0, 28, 28, 0, 0), '5c2921d49e8aa439'),
    ('backward', 96, 200, 'pread'):
        ((28, 0, 7, 0, 28, 28, 0, 0), '5c2921d49e8aa439'),
    ('backward', 96, 384, 'memory'):
        ((78, 0, 13, 0, 78, 78, 0, 0), 'bd4ebcbda01724bf'),
    ('backward', 96, 384, 'pread'):
        ((78, 0, 13, 0, 78, 78, 0, 0), 'bd4ebcbda01724bf'),
    ('backward', 256, 200, 'memory'):
        ((28, 0, 7, 0, 28, 28, 0, 0), '5c2921d49e8aa439'),
    ('backward', 256, 200, 'pread'):
        ((28, 0, 7, 0, 28, 28, 0, 0), '5c2921d49e8aa439'),
    ('backward', 256, 384, 'memory'):
        ((78, 0, 12, 0, 78, 78, 0, 0), 'bd4ebcbda01724bf'),
    ('backward', 256, 384, 'pread'):
        ((78, 0, 12, 0, 78, 78, 0, 0), 'bd4ebcbda01724bf'),
    ('backward', 1024, 200, 'memory'):
        ((43, 0, 2, 0, 43, 43, 0, 0), '5c2921d49e8aa439'),
    ('backward', 1024, 200, 'pread'):
        ((43, 0, 2, 0, 43, 43, 0, 0), '5c2921d49e8aa439'),
    ('backward', 1024, 384, 'memory'):
        ((90, 0, 10, 0, 90, 90, 0, 0), 'bd4ebcbda01724bf'),
    ('backward', 1024, 384, 'pread'):
        ((90, 0, 10, 0, 90, 90, 0, 0), 'bd4ebcbda01724bf'),
    ('lu_solve_panels', 96, 200, 'memory'):
        ((633, 283, 367, 270, 633, 854, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 96, 200, 'pread'):
        ((633, 283, 367, 270, 633, 854, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 96, 384, 'memory'):
        ((2999, 1217, 1504, 1203, 2975, 3930, 312, 0), 'eb474157d2dd9f19'),
    ('lu_solve_panels', 96, 384, 'pread'):
        ((2999, 1217, 1504, 1203, 2975, 3930, 312, 0), 'eb474157d2dd9f19'),
    ('lu_solve_panels', 256, 200, 'memory'):
        ((531, 219, 304, 194, 531, 854, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 256, 200, 'pread'):
        ((531, 219, 304, 194, 531, 854, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 256, 384, 'memory'):
        ((2923, 1178, 1430, 1141, 2923, 3954, 288, 0), 'eb474157d2dd9f19'),
    ('lu_solve_panels', 256, 384, 'pread'):
        ((2923, 1178, 1430, 1141, 2923, 3954, 288, 0), 'eb474157d2dd9f19'),
    ('lu_solve_panels', 1024, 200, 'memory'):
        ((98, 49, 63, 1, 98, 339, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 1024, 200, 'pread'):
        ((98, 49, 63, 1, 98, 339, 98, 0), 'ed1c09ea647c2f5d'),
    ('lu_solve_panels', 1024, 384, 'memory'):
        ((876, 426, 315, 195, 860, 1622, 304, 0), 'eb474157d2dd9f19'),
    ('lu_solve_panels', 1024, 384, 'pread'):
        ((876, 426, 315, 195, 860, 1622, 304, 0), 'eb474157d2dd9f19'),
}

#: As above with every operand in a second store: the counters of the
#: running store, then of the operands' store, then the digest.
EXPECTED_FOREIGN: dict = {
    ('square', 256, 200, 'memory'):
        ((0, 49, 0, 13, 0, 0, 49, 0),
         (274, 0, 118, 0, 264, 284, 10, 0),
         '301d0986ad403a2e'),
    ('crossprod_side', 256, 200, 'memory'):
        ((0, 56, 0, 3, 0, 0, 56, 0),
         (104, 0, 26, 0, 104, 104, 0, 0),
         'fd3c818744724723'),
    ('bnlj', 256, 200, 'memory'):
        ((2, 40, 2, 3, 2, 8, 38, 0),
         (162, 0, 123, 0, 162, 162, 0, 0),
         '301d0986ad403a2e'),
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_call_shape(case):
    assert measure(*case) == EXPECTED[case]


@pytest.mark.parametrize("case", FOREIGN,
                         ids=lambda c: "-".join(map(str, c)))
def test_call_shape_with_foreign_operands(case):
    assert measure(*case, foreign=True) == EXPECTED_FOREIGN[case]
