"""Observability: tracing spans, metrics, and cost-model calibration.

Zero-dependency (stdlib-only, imports nothing from the rest of
:mod:`repro`) so every layer — storage, kernels, planner, evaluator —
can carry spans without import cycles.  See :mod:`repro.obs.tracer`
for the design notes.
"""

from .calibration import (CALIBRATION_BAND, CALIBRATION_SCHEMA_VERSION,
                          MIN_PREDICTED_BLOCKS, CalibrationReport,
                          ModelCalibration)
from .metrics import MetricsRegistry
from .tracer import (DEFAULT_CAPACITY, NULL_TRACER, SPAN_CATEGORIES,
                     Span, Tracer)

__all__ = [
    "CALIBRATION_BAND",
    "CALIBRATION_SCHEMA_VERSION",
    "MIN_PREDICTED_BLOCKS",
    "CalibrationReport",
    "ModelCalibration",
    "MetricsRegistry",
    "DEFAULT_CAPACITY",
    "NULL_TRACER",
    "SPAN_CATEGORIES",
    "Span",
    "Tracer",
]
