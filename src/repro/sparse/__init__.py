"""Out-of-core sparse arrays over the counted storage stack.

``SparseTiledMatrix`` stores a matrix as a grid of CSR-encoded tiles on
the shared :class:`~repro.storage.pagefile.PageFile` /
:class:`~repro.storage.buffer_pool.BufferPool` /
:class:`~repro.storage.io_scheduler.IOScheduler` stack; empty tiles occupy
zero pages.  The kernels (``spmv``, ``spmm``, ``spgemm``) run on the
schedule runner, which announces their tile footprints, and are
validated against the nnz-parameterized cost models in
:mod:`repro.core.costs`.
"""

from .kernels import spgemm, spmm, spmv
from .sparse_matrix import (SparseTiledMatrix, csr_from_dense, csr_matvec,
                            csr_to_dense, tile_words)

__all__ = [
    "SparseTiledMatrix",
    "csr_from_dense",
    "csr_matvec",
    "csr_to_dense",
    "spgemm",
    "spmm",
    "spmv",
    "tile_words",
]
