"""Intra-query parallelism: plan-level and tile-level worker pools.

ROADMAP item 3.  Two deliberately separate executors that can never
deadlock on each other:

- :class:`ParallelExecutor` schedules the independent ``PhysOp``
  subtrees of a :class:`~repro.core.plan.PhysicalPlan` onto a
  ``ThreadPoolExecutor``, honoring data dependencies and the buffer
  pool's memory budget: an op is admitted only while the sum of running
  ops' predicted footprints (``op.footprint_blocks``, attached by the
  planner) fits the pool capacity — the planner's predicted I/O paying
  off a second time, as admission control.
- :class:`TileParallelism` parallelizes the *inside* of one kernel:
  the dense/sparse kernels hand it an ordered stream of pure GEMM
  thunks while the calling thread keeps issuing the kernel's
  ``pool.prefetch()`` footprints and block reads untouched, overlapping
  one panel's BLAS (which releases the GIL) with the next panel's I/O.

Determinism contract
--------------------

*Results are bitwise-identical at every parallelism level.*  Tile-level
parallelism guarantees this by construction: every pool/device
interaction stays on the calling thread in the exact serial order (the
thunk stream is consumed lazily, so reads interleave with submissions
exactly as the serial loop would issue them), workers compute pure
``a @ b`` partial products, and the caller accumulates the results in
increasing-``k`` order — the same float additions in the same order as
the serial kernel.  Consequently *simulated block counts are also
identical* for tile-parallel kernels at any worker count.

Plan-level parallelism preserves bitwise results too (operators only
read inputs their dependencies finished writing, and frames are
protected by the pool lock), but when independent operators genuinely
overlap they share the pool, so eviction interleaving can shift *which*
op a re-read is charged to; block totals for sequentially-dependent
plans (chains) stay exactly identical.  The parallel executor records
per-op *window* deltas (``op.measured``) — exact when the op ran
alone, inclusive of concurrent ops' traffic otherwise — plus the
schedule (worker, start/end); *exclusive* per-op measurement, the kind
that sums field-for-field to the session totals, is only taken on
serial (cold) runs.

BLAS interplay: workers pin OpenBLAS/MKL to one thread via
``threadpoolctl`` when it is installed (a no-op otherwise) so N plan
workers don't oversubscribe cores by another BLAS-internal factor.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .evaluator import Evaluator
    from .plan import PhysicalPlan, PhysOp

#: Environment variable consulted when OptimizerConfig.parallelism is
#: None (the default): the worker count for plan and kernel execution.
PARALLELISM_ENV = "REPRO_PARALLELISM"

#: Upper bound on workers — far above any sane setting; a typo like
#: REPRO_PARALLELISM=1000 should not spawn a thousand threads.
MAX_WORKERS = 64


def resolve_parallelism(value: int | None = None) -> int:
    """Resolve a parallelism setting to a concrete worker count.

    ``None`` defers to ``$REPRO_PARALLELISM`` (default 1 = serial).
    Values are validated (>= 1) and clamped to :data:`MAX_WORKERS`.
    """
    if value is None:
        raw = os.environ.get(PARALLELISM_ENV, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{PARALLELISM_ENV} must be an integer, got {raw!r}"
            ) from exc
    value = int(value)
    if value < 1:
        raise ValueError(f"parallelism must be >= 1, got {value}")
    return min(value, MAX_WORKERS)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Pin BLAS to one thread inside a worker, when threadpoolctl is
    available; otherwise a documented no-op (set OPENBLAS_NUM_THREADS=1
    / MKL_NUM_THREADS=1 externally on multithreaded-BLAS hosts)."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        yield
        return
    with threadpool_limits(limits=1):
        yield


class TileParallelism:
    """Ordered accumulation of kernel partial products over workers.

    :meth:`accumulate` consumes ``thunks`` — zero-arg callables, each
    returning one partial product — *on the calling thread*, so any
    I/O embedded in producing the thunk stream (prefetch hints, block
    reads) happens in serial order.  Thunks run on the worker pool;
    results are folded into ``acc`` strictly in submission order with a
    bounded in-flight window (workers + 1), which bounds the extra
    memory to a couple of panels while keeping every worker busy.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_parallelism(workers)
        self.window = self.workers + 1
        self._executor: ThreadPoolExecutor | None = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="riot-tile")

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @staticmethod
    def _run(fn: Callable):
        with single_threaded_blas():
            return fn()

    def accumulate(self, acc, thunks: Iterable[Callable]):
        """``for fn in thunks: acc += fn()`` — with ``fn()`` offloaded.

        In-order fold: bitwise-identical to the serial loop (numpy
        evaluates each product to a temporary, then adds in place —
        exactly what the serial kernel does).
        """
        if self._executor is None:
            for fn in thunks:
                acc += fn()
            return acc
        pending: deque = deque()
        for fn in thunks:
            pending.append(self._executor.submit(self._run, fn))
            while len(pending) >= self.window:
                acc += pending.popleft().result()
        while pending:
            acc += pending.popleft().result()
        return acc


class ParallelExecutor:
    """Topological worker-pool scheduler for one evaluator's plans.

    Dependencies come from the op tree (children before parents);
    admission control from ``op.footprint_blocks`` vs the pool
    capacity.  An op with no footprint estimate is treated as needing
    the whole budget (it runs alone); at least one op is always
    admitted so the schedule can't stall.  Results go into one
    ``memo`` per execution exactly as in serial execution — an op only
    reads memo entries its finished dependencies wrote.
    """

    def __init__(self, evaluator: "Evaluator", workers: int) -> None:
        self.evaluator = evaluator
        self.workers = resolve_parallelism(workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="riot-op")

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)

    def execute(self, plan: "PhysicalPlan"):
        ev = self.evaluator
        memo: dict[int, object] = {}
        ops: list[PhysOp] = list(plan.ops())
        remaining = {id(op): {id(c) for c in op.children} for op in ops}
        dependents: dict[int, list[int]] = {id(op): [] for op in ops}
        for op in ops:
            for c in op.children:
                dependents[id(c)].append(id(op))
        capacity = float(ev.store.pool.capacity)
        cond = threading.Condition()
        finished: set[int] = set()
        launched: set[int] = set()
        failures: list[BaseException] = []
        free_slots = list(range(self.workers))
        state = {"active": 0, "footprint": 0.0}
        t0 = time.perf_counter_ns()

        def fp_of(op: "PhysOp") -> float:
            fp = op.footprint_blocks
            if fp is None:
                fp = capacity
            return min(float(fp), capacity)

        def run_op(op: "PhysOp", slot: int, fp: float) -> None:
            err: BaseException | None = None
            try:
                # Window deltas; serial (cold) runs re-measure them
                # exactly.  See Evaluator._measured_op.
                result, start = ev._measured_op(op, memo)
            except BaseException as exc:
                err = exc
            with cond:
                if err is None:
                    op.worker = slot
                    op.sched_start_ns = start - t0
                    op.sched_end_ns = op.sched_start_ns + op.wall_ns
                    ev._keep(op, result, memo)
                    finished.add(id(op))
                    for dep in dependents[id(op)]:
                        remaining[dep].discard(id(op))
                else:
                    failures.append(err)
                state["active"] -= 1
                state["footprint"] -= fp
                free_slots.append(slot)
                cond.notify_all()

        with cond:
            while True:
                if failures:
                    while state["active"] > 0:
                        cond.wait()
                    raise failures[0]
                if len(finished) == len(ops):
                    break
                for op in ops:
                    oid = id(op)
                    if oid in launched or remaining[oid]:
                        continue
                    if state["active"] >= self.workers:
                        break
                    fp = fp_of(op)
                    if (state["active"] > 0
                            and state["footprint"] + fp > capacity):
                        continue  # budget: wait for running ops
                    launched.add(oid)
                    state["active"] += 1
                    state["footprint"] += fp
                    slot = free_slots.pop()
                    self._executor.submit(run_op, op, slot, fp)
                # Re-checked on every completion; the timeout is a
                # belt-and-braces guard against a lost wakeup ever
                # hanging a run.
                cond.wait(timeout=0.5)

        wall_ns = time.perf_counter_ns() - t0
        sched = [{"label": op.label(), "worker": op.worker,
                  "start_ns": op.sched_start_ns,
                  "end_ns": op.sched_end_ns}
                 for op in sorted(ops,
                                  key=lambda o: o.sched_start_ns or 0)]
        plan.parallel_schedule = {
            "workers": self.workers,
            "wall_ns": wall_ns,
            "sum_op_ns": plan.sum_op_ns(),
            "critical_path_ns": plan.critical_path_ns(),
            "ops": sched,
        }
        plan.executed = True
        return memo[id(plan.root.node)]
