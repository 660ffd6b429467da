"""Static analysis and runtime sanitizers for the RIOT storage protocol.

Three layers, one goal — make protocol violations fail loudly where
they happen, not as wrong counts or wrong numbers later:

- :mod:`repro.analysis.lint` — repo-specific AST lint rules
  (``python -m repro.analysis src/``): device construction stays in
  the storage factory, planner operators name registered cost models,
  spans always close, plan costing is deterministic, one module
  builds thread pools.
- :mod:`repro.analysis.planlint` — :func:`verify_plan`, a static
  walk of a :class:`~repro.core.plan.PhysicalPlan` before execution:
  shape conformability, kernel budgets and pins, epilogue-fusion
  legality, release points and in-place operands, sane predictions.
  Wired into
  ``Evaluator.execute`` / ``session.explain`` under
  ``OptimizerConfig(strict=True)``.
- :mod:`repro.analysis.sanitizers` — :class:`SanitizingBufferPool`,
  an ASAN-style pool wrapper (``StorageConfig(sanitize=True)`` or
  ``REPRO_SANITIZE=1``) catching unannounced reads inside kernel
  spans, write-back leaks, accesses to blocks of dropped arrays and
  frames that keep too much memory alive.
"""

from .lint import ALL_RULES, Finding, lint_file, run_lint
from .planlint import PlanVerificationError, verify_plan
from .sanitizers import (RetentionError, SanitizerError,
                         SanitizingBufferPool, UnannouncedReadError,
                         UseAfterDropError, WritebackLeakError)

__all__ = [
    "ALL_RULES", "Finding", "lint_file", "run_lint",
    "PlanVerificationError", "verify_plan",
    "SanitizerError", "SanitizingBufferPool", "UnannouncedReadError",
    "WritebackLeakError", "UseAfterDropError", "RetentionError",
]
