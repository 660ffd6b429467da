"""Static analysis and runtime sanitizers for the RIOT storage protocol.

Three layers, one goal — make protocol violations fail loudly before
they become heisenbugs under the concurrent buffer pool the roadmap is
heading toward:

- :mod:`repro.analysis.lint` — repo-specific AST lint rules
  (``python -m repro.analysis src/``): device construction stays in
  the storage factory, planner operators name registered cost models,
  spans always close, plan costing is deterministic.
- :mod:`repro.analysis.planlint` — :func:`verify_plan`, a static
  walk of a :class:`~repro.core.plan.PhysicalPlan` before execution:
  shape conformability, per-op footprint vs the pool budget, kernel
  pins, epilogue-fusion legality, sane predictions.  Wired into
  ``Evaluator.execute`` / ``session.explain`` under
  ``OptimizerConfig(strict=True)``.
- :mod:`repro.analysis.sanitizers` — :class:`SanitizingBufferPool`,
  an ASAN-style pool wrapper (``StorageConfig(sanitize=True)`` or
  ``REPRO_SANITIZE=1``) catching pin leaks, use-after-unpin of
  zero-copy views, discards of pinned blocks and unannounced reads
  inside kernel spans.
"""

from .lint import ALL_RULES, Finding, lint_file, run_lint
from .planlint import PlanVerificationError, verify_plan
from .sanitizers import (CrossThreadUnpinError, LatchLeakError,
                         PinLeakError, PinnedDiscardError, SanitizerError,
                         SanitizingBufferPool, UnannouncedReadError,
                         UseAfterUnpinError, WritebackLeakError)

__all__ = [
    "ALL_RULES", "Finding", "lint_file", "run_lint",
    "PlanVerificationError", "verify_plan",
    "SanitizerError", "SanitizingBufferPool", "PinLeakError",
    "UseAfterUnpinError", "PinnedDiscardError", "UnannouncedReadError",
    "CrossThreadUnpinError", "LatchLeakError", "WritebackLeakError",
]
