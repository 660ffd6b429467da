"""Database facade: DDL, bulk load, views, query execution, I/O accounting.

One :class:`Database` is the complete stand-in for the MySQL server behind
RIOT-DB: a shared block device (counted I/O), a bounded buffer pool (the
memory cap), a catalog of tables/indexes/views, the optimizer, and the
vectorized executor.  Engines in :mod:`repro.engines` talk only to this
facade.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.storage import (BufferPool, IOStats, StorageConfig,
                           create_device, new_pagefile)

from .btree import BPlusTree, KeyCodec
from .catalog import Catalog, TableIndex
from .executor import ExecContext, MaterializeOp, PhysOp, run_to_batch
from .optimizer import Optimizer
from .plan import PlanNode
from .schema import Batch, Schema
from .table import HeapTable


class Database:
    """An embedded relational engine with exact I/O accounting."""

    def __init__(self, memory_bytes: int | None = None,
                 block_size: int | None = None,
                 work_mem_bytes: int | None = None, name: str = "riotdb",
                 storage: StorageConfig | None = None) -> None:
        """``storage`` injects the full storage contract (backend, page
        file path, budget); the classic keyword arguments override its
        corresponding fields and default to the in-memory simulator."""
        if storage is None:
            storage = StorageConfig()
        overrides = {k: v for k, v in (
            ("memory_bytes", memory_bytes), ("block_size", block_size))
            if v is not None}
        if overrides:
            storage = storage.with_options(**overrides)
        self.storage = storage
        memory_bytes = storage.memory_bytes
        block_size = storage.block_size
        self.device = create_device(storage, name=name)
        capacity = max(8, memory_bytes // block_size)
        self.pool = BufferPool(self.device, capacity)
        self.catalog = Catalog()
        # Operators get a quarter of memory as working space by default,
        # mirroring a sort/join buffer configuration.
        work_mem = work_mem_bytes or max(memory_bytes // 4, block_size * 8)
        self.ctx = ExecContext(self, work_mem_bytes=work_mem)
        self.optimizer = Optimizer(self.catalog)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> HeapTable:
        file = new_pagefile(self.device, name=name)
        table = HeapTable(name, schema, file, self.pool)
        self.catalog.register_table(table)
        return table

    def load_table(self, name: str, schema: Schema, batch: Batch,
                   build_index: bool = True) -> HeapTable:
        """Create a table, bulk-load rows, and index the primary key.

        Rows must arrive in primary-key order (RIOT-DB generates them that
        way); the table is marked clustered on the key and a B+tree over the
        packed key is bulk-loaded.  Index pages are written through the
        buffer pool, so index construction I/O is charged like MySQL's.
        """
        table = self.create_table(name, schema)
        table.load(batch, clustered_on=schema.primary_key)
        if build_index and schema.primary_key:
            self._build_pk_index(table, batch)
        return table

    def _build_pk_index(self, table: HeapTable, batch: Batch) -> None:
        key_cols = table.schema.primary_key
        parts = [np.asarray(batch[k], dtype=np.int64) for k in key_cols]
        dims = tuple(int(p.max()) + 1 if p.size else 1 for p in parts)
        codec = KeyCodec(dims)
        keys = codec.pack(*parts)
        file = new_pagefile(self.device, name=f"{table.name}__pk")
        tree = BPlusTree(file, self.pool, name=f"{table.name}__pk")
        tree.bulk_load(keys, np.arange(keys.size, dtype=np.int64))
        self.catalog.register_index(
            TableIndex(table.name, tuple(key_cols), codec, tree))

    def create_view(self, name: str, plan: PlanNode) -> None:
        self.catalog.register_view(name, plan)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    # ------------------------------------------------------------------
    # Temp space for spills
    # ------------------------------------------------------------------
    def create_temp_table(self, schema: Schema) -> HeapTable:
        name = self.catalog.fresh_temp_name()
        file = new_pagefile(self.device, name=name)
        return HeapTable(name, schema, file, self.pool)

    def drop_temp_table(self, table: HeapTable) -> None:
        table.drop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def physical_plan(self, plan: PlanNode) -> PhysOp:
        return self.optimizer.optimize(plan)

    def explain(self, plan: PlanNode) -> str:
        return self.physical_plan(plan).explain()

    def execute(self, plan: PlanNode) -> Iterator[Batch]:
        """Optimize and run a plan, streaming result batches."""
        yield from self.physical_plan(plan).execute(self.ctx)

    def query(self, plan: PlanNode) -> Batch:
        """Run a plan and collect the whole result (small results only)."""
        return run_to_batch(self.physical_plan(plan), self.ctx)

    def materialize(self, plan: PlanNode, name: str,
                    build_index: bool = False,
                    primary_key: tuple[str, ...] | None = None
                    ) -> HeapTable:
        """Evaluate a plan into a new table (CREATE TABLE AS SELECT).

        With ``build_index=True`` the key columns (``primary_key`` bare
        names, defaulting to the first output column) become the table's
        primary key; output must arrive in key order (which merge-join and
        sort-aggregate pipelines guarantee), the table is marked clustered,
        and a B+tree is bulk-loaded over the packed key — what
        RIOT-DB/MatNamed does for every named object.
        """
        phys = self.physical_plan(plan)
        bare_names = [c.name.split(".")[-1] for c in phys.schema.columns]
        keys_named = tuple(primary_key or bare_names[:1]) \
            if build_index else ()
        bare = Schema(
            tuple(type(c)(bn, c.type)
                  for bn, c in zip(bare_names, phys.schema.columns)),
            primary_key=keys_named)
        table = self.create_table(name, bare)
        op = MaterializeOp(phys, table)
        for _ in op.execute(self.ctx):
            pass
        if build_index:
            parts: dict[str, list[np.ndarray]] = {k: [] for k in keys_named}
            for batch in table.scan():
                for k in keys_named:
                    parts[k].append(np.asarray(batch[k], dtype=np.int64))
            cols = [np.concatenate(parts[k]) if parts[k]
                    else np.empty(0, dtype=np.int64) for k in keys_named]
            dims = tuple(int(c.max()) + 1 if c.size else 1 for c in cols)
            codec = KeyCodec(dims)
            keys = codec.pack(*cols)
            # The heap keeps arrival order; the index sorts (key, rowid)
            # pairs, so out-of-order output still gets a valid B+tree —
            # the table is only marked clustered when rows arrived sorted.
            perm = np.argsort(keys, kind="stable")
            keys_sorted = keys[perm]
            if keys_sorted.size > 1 and not np.all(
                    np.diff(keys_sorted) > 0):
                raise ValueError(
                    f"cannot index {name!r}: duplicate key values")
            arrived_sorted = bool(
                np.all(perm == np.arange(perm.size)))
            table.clustered_on = keys_named if arrived_sorted else ()
            file = new_pagefile(self.device, name=f"{name}__pk")
            tree = BPlusTree(file, self.pool, name=f"{name}__pk")
            tree.bulk_load(keys_sorted, perm.astype(np.int64))
            self.catalog.register_index(
                TableIndex(name, keys_named, codec, tree))
        return table

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> IOStats:
        return self.device.stats

    def reset_stats(self) -> None:
        self.device.reset_stats()

    def flush(self) -> None:
        self.pool.flush_all()

    def table(self, name: str) -> HeapTable:
        return self.catalog.table(name)

    def view_sql(self, name: str) -> str:
        """Render a stored view definition as SQL (demo/debugging)."""
        return (f"CREATE VIEW {name} AS "
                f"{self.catalog.view(name).to_sql(self.catalog)}")
