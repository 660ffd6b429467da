"""repro — reproduction of "RIOT: I/O-Efficient Numerical Computing without
SQL" (Zhang, Herodotou, Yang; CIDR 2009).

Subpackages
-----------
``repro.storage``
    Simulated block device, buffer pool, tiled (chunked) array store.
``repro.vm``
    Virtual-memory pager: the substrate that makes "Plain R" thrash.
``repro.db``
    Embedded relational engine (tables, B+trees, views, optimizer,
    vectorized executor) — the MySQL stand-in behind RIOT-DB.
``repro.rlang``
    Interpreter for an R subset with S4-style generic dispatch, so the same
    program source runs unmodified on every engine (the transparency claim).
``repro.engines``
    The four systems of Figure 1: Plain R, RIOT-DB/Strawman,
    RIOT-DB/MatNamed, and full RIOT-DB.
``repro.core``
    Next-generation RIOT: expression DAGs, deferred updates, rewrite rules,
    matrix-chain ordering, analytic I/O cost models, and a streaming
    evaluator over the tile store.
``repro.linalg``
    Out-of-core linear algebra over tiles (matrix multiply variants, LU).
``repro.workloads``
    Paper workloads (Example 1) and the OLS problem generator.
"""

__version__ = "1.0.0"


def open_session(url: str | None = None, memory: str | int | None = None,
                 **kwargs):
    """Open a :class:`~repro.core.RiotSession` from a storage URL.

    ``url`` selects the backend: ``None``/``"memory://"`` for the
    in-memory simulator, ``"file:///tmp/riot.db"`` (or a bare path)
    for an mmap-backed page file, with query parameters such as
    ``?mode=pread&fsync=1&block_size=8192`` for the other file knobs.
    ``memory`` caps the buffer pool, as bytes or a string like
    ``"64MiB"``.  Remaining keyword arguments go to ``RiotSession``
    (``optimize=``, ``config=``)::

        with repro.open_session("file:///tmp/riot.db",
                                memory="64MiB") as s:
            x = s.random_matrix(512, 512)
            s.values(s.crossprod(x))
    """
    from repro.core import RiotSession
    from repro.storage import StorageConfig

    storage = StorageConfig.from_url(url, memory=memory)
    return RiotSession(storage=storage, **kwargs)
