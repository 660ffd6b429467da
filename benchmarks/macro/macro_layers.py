"""Timing every layer from outside: wrappers, spans, self times.

The benchmark may not put spans inside ``src/`` (that is ROADMAP
item 1), so the traced pass wraps the public functions of each layer
from here and restores them afterwards.  A *layer* is one of this
repo's modules; a layer's *part* splits it where the metrics do
(``storage.tile_store`` read vs write, ``storage.codecs`` encode vs
decode, ``sparse`` kernels vs CSR tile storage).

Spans are kept in memory as ``[name, key, start_ns, end_ns, parent,
rep, payload, id, tid]`` and written out once, when the run ends
(:func:`export_chrome`).  A span's *self time* is its duration minus
the durations of its direct children, so the self times of all spans
under one rep's root add up to the root's duration exactly; what the
root keeps for itself is the unattributed share.

A wrapped function called from a span of the same (layer, part) — the
tile store's ``read_submatrix`` calling its own ``read_tile``, the
pool's ``get`` calling ``pin`` — records no span: it is an internal
call, its time is already in the caller's bucket, and the ``*calls``
counts stay "calls into the layer from outside it".
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns

#: Span fields (list indices).
NAME, KEY, START, END, PARENT, REP, PAYLOAD, ID, TID = range(9)

ROOT_KEY = ("process", "rep")


# ----------------------------------------------------------------------
# What is wrapped: (owner, attribute, layer, part, payload)
# ----------------------------------------------------------------------
def _matmul_flops(args, kwargs, out) -> dict:
    a = args[1]
    m, n = out.shape
    return {"linalg.flops": 2 * m * n * (a.shape[0] * a.shape[1] // m)}


def _crossprod_flops(args, kwargs, out) -> dict:
    a = args[1]
    p = out.shape[0]
    # Symmetric schedule: p(p+1)/2 entries, 2 * inner flops each.
    return {"linalg.flops": (a.shape[0] * a.shape[1] // p) * p * (p + 1)}


def _lu_flops(args, kwargs, out) -> dict:
    n = args[1].shape[0]
    return {"linalg.flops": 2 * n ** 3 // 3}


def _lu_solve_flops(args, kwargs, out) -> dict:
    n = args[0].shape[0]
    return {"linalg.flops": 2 * n * n * (out.size // n)}


def _plan_shape(args, kwargs, plan) -> dict:
    ops = list(plan.ops())
    return {"core.optimizer.plan_ops": len(ops),
            "core.optimizer.predicted_blocks":
                sum(op.predicted_io for op in ops)}


def _executed_ops(args, kwargs, out) -> dict:
    return {"core.evaluator.ops": sum(
        1 for op in args[1].ops() if op.wall_ns is not None)}


def _bytes_out(args, kwargs, out) -> dict:
    return {"storage.tile_store.bytes_logical":
            getattr(out, "nbytes", 0)}


def _bytes_in(args, kwargs, out) -> dict:
    values = kwargs.get("values", args[-1])
    return {"storage.tile_store.bytes_logical":
            getattr(values, "nbytes", 0)}


def _nnz_appended(args, kwargs, out) -> dict:
    return {"sparse.nnz_out": int(args[-1].size)}


def targets() -> list[tuple]:
    """The wrap table.  Imported lazily so that importing this module
    does not import ``repro`` (and with it NumPy, before the BLAS
    thread pins are in the environment)."""
    from repro.core.evaluator import Evaluator
    from repro.core.session import RiotSession
    from repro.linalg import lu, matmul, solve
    from repro.sparse import kernels
    from repro.sparse.sparse_matrix import SparseTiledMatrix
    from repro.storage import codecs
    from repro.storage.block_device import BlockDevice
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.io_scheduler import IOScheduler
    from repro.storage.tile_store import TiledMatrix, TiledVector

    table: list[tuple] = [
        (RiotSession, "plan", "core.optimizer", "plan", _plan_shape),
        (Evaluator, "execute", "core.evaluator", "self", _executed_ops),
        (Evaluator, "force", "core.evaluator", "self", None),
        (matmul, "square_tile_matmul", "linalg", "self", _matmul_flops),
        (matmul, "bnlj_matmul", "linalg", "self", _matmul_flops),
        (matmul, "crossprod_matmul", "linalg", "self",
         _crossprod_flops),
        (lu, "lu_decompose", "linalg", "self", _lu_flops),
        (solve, "lu_solve_factored", "linalg", "self", _lu_solve_flops),
        (solve, "forward_substitute", "linalg", "self", None),
        (solve, "backward_substitute", "linalg", "self", None),
        (SparseTiledMatrix, "read_tile_csr", "sparse", "store", None),
        (SparseTiledMatrix, "append_tile", "sparse", "store",
         _nnz_appended),
        (SparseTiledMatrix, "from_coo", "sparse", "store", None),
    ]
    table += [(kernels, name, "sparse", "self", None)
              for name in ("spmv", "spmm", "spgemm")]
    table += [(TiledMatrix, name, "storage.tile_store", "read",
               _bytes_out)
              for name in ("read_submatrix", "read_submatrix_view",
                           "read_tile")]
    table += [(TiledVector, name, "storage.tile_store", "read",
               _bytes_out) for name in ("read_chunk", "gather")]
    table += [(TiledMatrix, name, "storage.tile_store", "write",
               _bytes_in) for name in ("write_submatrix", "write_tile")]
    table += [(TiledVector, name, "storage.tile_store", "write",
               _bytes_in) for name in ("write_chunk", "scatter")]
    # Every registered codec class: a later codec is timed without an
    # edit here, and `raw` showing 0 calls is a measurement.
    for cls in {type(c) for c in codecs.CODECS.values()}:
        table.append((cls, "encode_tile", "storage.codecs", "encode",
                      None))
        table.append((cls, "decode_tile", "storage.codecs", "decode",
                      None))
    table += [(BufferPool, name, "storage.buffer_pool", "self", None)
              for name in ("get", "get_many", "put", "prefetch", "pin",
                           "unpin", "mark_dirty", "flush")]
    table += [(IOScheduler, name, "storage.io_scheduler", "self", None)
              for name in ("fetch", "write_back", "on_demand")]
    table += [(BlockDevice, name, "storage.device", "self", None)
              for name in ("read_block", "read_blocks", "write_block",
                           "write_blocks")]
    return table


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Recorder:
    """In-memory span store with a per-thread open-span stack.

    Wrapped functions record only below an open root span
    (:meth:`rep_root`): calls made while no rep is being timed — and
    calls on a thread that has no root open — pass straight through.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        # count().__next__ and list.append are each atomic, so ids
        # stay unique without a lock on the hot path.
        self._next_id = itertools.count().__next__
        self._next_tid = itertools.count(1).__next__

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.tid = self._next_tid()
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def rep_root(self, rep: int):
        """Bracket one rep's timed interval in the root span."""
        stack = self._stack()
        span = ["rep", ROOT_KEY, 0, 0, -1, rep, None, self._next_id(),
                self._local.tid]
        self.spans.append(span)
        stack.append(span)
        span[START] = _clock()
        try:
            yield span
        finally:
            span[END] = _clock()
            stack.pop()

    def wrap(self, fn, name: str, key: tuple, payload):
        stack_of, spans, next_id = self._stack, self.spans, self._next_id

        def traced(*args, **kwargs):
            stack = stack_of()
            if not stack:
                return fn(*args, **kwargs)
            top = stack[-1]
            if top[KEY] is key:
                return fn(*args, **kwargs)
            span = [name, key, 0, 0, top[ID], top[REP], None, next_id(),
                    top[TID]]
            spans.append(span)
            stack.append(span)
            span[START] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = _clock()
                stack.pop()
            if payload is not None:
                span[PAYLOAD] = payload(args, kwargs, out)
            return out

        return traced


def _use_sites(module, attr: str, fn) -> list:
    """Every loaded ``repro`` module that bound ``fn`` under ``attr``.

    ``core/evaluator.py`` does ``from repro.linalg.matmul import ...``
    at import time and ``from repro.sparse import spmm`` lazily, so the
    defining module alone is not where the calls go through.
    """
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "repro" and mod is not None
            and mod.__dict__.get(attr) is fn] or [module]


@contextmanager
def tracing(recorder: Recorder):
    """Install the wrappers, yield the list of patches, restore.

    Each patch is ``(site, attribute, original)`` where ``original``
    is exactly what ``site.__dict__[attribute]`` held — a function, or
    the ``classmethod`` object — so restoring is by identity.
    """
    keys: dict[tuple, tuple] = {}
    seen: set[tuple] = set()
    patches: list[tuple] = []
    try:
        for owner, attr, layer, part, payload in targets():
            if isinstance(owner, type):
                # Patch the class that defines the method, so a
                # subclass that inherits it is timed once, not twice.
                owner = next(c for c in owner.__mro__
                             if attr in c.__dict__)
            if (owner, attr) in seen:
                continue
            seen.add((owner, attr))
            key = keys.setdefault((layer, part), (layer, part))
            name = f"{layer}:{attr}"
            original = owner.__dict__[attr]
            sites = [owner]
            if isinstance(original, classmethod):
                new = classmethod(recorder.wrap(
                    original.__func__, name, key, payload))
            else:
                new = recorder.wrap(original, name, key, payload)
                if not isinstance(owner, type):
                    sites = _use_sites(owner, attr, original)
            for site in sites:
                patches.append((site, attr, original))
                setattr(site, attr, new)
        yield patches
    finally:
        for site, attr, original in reversed(patches):
            setattr(site, attr, original)


class PanelCounter:
    """``tracer.add_observer`` hook: counts the dense kernels' panel
    spans (``matmul:panel``, ``crossprod:panel``, ``bnlj:chunk``,
    ``lu:panel``) without enabling the tracer."""

    PREFIXES = ("matmul:", "crossprod:", "bnlj:", "lu:")

    def __init__(self) -> None:
        self.panels = 0

    def span_opened(self, name: str, cat: str) -> None:
        if cat == "kernel" and name.startswith(self.PREFIXES):
            self.panels += 1

    def span_closed(self, name: str, cat: str, exc_type) -> None:
        pass


# ----------------------------------------------------------------------
# Reading the spans back
# ----------------------------------------------------------------------
def summarize(spans: list[list]) -> dict[int, dict]:
    """Per rep: root duration, self seconds and span count per
    (layer, part), span count per name, summed payload counters."""
    child_ns: dict[int, int] = {}
    for span in spans:
        child_ns[span[PARENT]] = (child_ns.get(span[PARENT], 0)
                                  + span[END] - span[START])
    reps: dict[int, dict] = {}
    for span in spans:
        rep = reps.setdefault(span[REP], {
            "wall_s": 0.0, "self_s": {}, "calls": {}, "names": {},
            "counters": {}})
        key = span[KEY]
        self_s = (span[END] - span[START]
                  - child_ns.get(span[ID], 0)) / 1e9
        if key is ROOT_KEY:
            rep["wall_s"] = (span[END] - span[START]) / 1e9
        rep["self_s"][key] = rep["self_s"].get(key, 0.0) + self_s
        rep["calls"][key] = rep["calls"].get(key, 0) + 1
        rep["names"][span[NAME]] = rep["names"].get(span[NAME], 0) + 1
        for name, value in (span[PAYLOAD] or {}).items():
            rep["counters"][name] = \
                rep["counters"].get(name, 0) + value
    return reps


def export_chrome(spans: list[list], path: str, meta: dict) -> None:
    """Write the spans as Chrome trace-event JSON (Perfetto /
    ``chrome://tracing``)."""
    t0 = min((span[START] for span in spans), default=0)
    events = [{
        "name": span[NAME], "cat": span[KEY][0], "ph": "X",
        "pid": 1, "tid": span[TID],
        "ts": (span[START] - t0) / 1e3,
        "dur": (span[END] - span[START]) / 1e3,
        "args": {"id": span[ID], "parent": span[PARENT],
                 "rep": span[REP], "part": span[KEY][1],
                 **(span[PAYLOAD] or {})},
    } for span in spans]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)
