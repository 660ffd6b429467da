"""Repo-specific AST lint rules (the ``RPRnnn`` family).

RIOT's I/O guarantees only hold when every layer obeys a handful of
conventions that generic linters cannot see: devices are built in one
factory, every physical operator names a registered cost model, tracer
spans always close, and plan costing is deterministic.  This module
checks those conventions on the Python AST — real parse trees, so a
mention in a comment or docstring never trips a rule (the failure mode
of the grep test this replaces).

Rules:

``RPR001``
    No ``BlockDevice`` / ``FileBlockDevice`` / ``PageFile``
    construction outside ``repro/storage``.
    :func:`repro.storage.config.create_device` is the single device
    factory; building a device anywhere else bypasses the injected
    :class:`~repro.storage.config.StorageConfig` and breaks backend
    swapping.
``RPR002``
    Every ``PhysOp`` subclass the planner constructs must name a cost
    model registered in ``repro.core.costs.COST_MODELS`` (directly via
    its class-level ``cost_model`` or via a per-instance override).
    An unregistered name silently drops the operator from calibration
    grouping and from the plan verifier's model check.
``RPR003``
    Tracer spans must be opened as ``with tracer.span(...)``.  A span
    entered any other way is not guaranteed to close, which corrupts
    the tracer's open-span stack and mis-attributes every later I/O
    delta.
``RPR004``
    No wall-clock or randomness calls (``time.*``, ``random.*``,
    ``numpy.random``, ``datetime.now``) inside cost models or optimizer
    passes: plans must be deterministic functions of the DAG and the
    config, or golden-plan tests and cross-run calibration are
    meaningless.
``RPR005``
    No ``encode_tile()`` / ``decode_tile()`` calls outside
    ``repro/storage``.  Tile codecs are a storage-internal protocol:
    the tile store applies them at write/read time and charges
    ``IOStats.bytes_logical`` / ``bytes_compressed`` as it does so.  A
    kernel or pass calling a codec directly would move bytes that the
    I/O accounting never sees, breaking the compression-ratio
    calibration loop.
``RPR006``
    ``ELEMENTWISE_OPS`` is indexed only where a region's tape is
    compiled (``core/plan.py``) and by constant folding
    (``core/passes/fold.py``): any other lookup is one more expression
    walker, free to drift from the one tape every driver runs.

Use :func:`run_lint` programmatically or ``python -m repro.analysis``
from the command line.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path

ALL_RULES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006")

#: Constructors only ``repro/storage`` may call (RPR001).
DEVICE_CONSTRUCTORS = frozenset(
    {"BlockDevice", "FileBlockDevice", "PageFile"})

#: Codec protocol methods only ``repro/storage`` may call (RPR005).
CODEC_METHODS = frozenset({"encode_tile", "decode_tile"})

#: The files that may index ``ELEMENTWISE_OPS`` (RPR006), as
#: ``(parent directory, file name)``.
ELEMENTWISE_INDEXERS = frozenset({("core", "plan.py"),
                                  ("passes", "fold.py")})

#: Modules whose call results depend on wall clock or RNG state
#: (RPR004).  Matched against the root name of attribute chains.
NONDETERMINISTIC_ROOTS = frozenset({"time", "random", "datetime"})

#: Names that are nondeterministic when imported bare
#: (``from time import perf_counter`` etc.).
NONDETERMINISTIC_IMPORTS = frozenset({
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "time_ns", "process_time", "random", "randint", "uniform",
    "shuffle", "choice", "sample", "gauss", "randrange",
})


@dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")


def _attr_chain(func: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a name chain."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _call_name(func: ast.expr) -> str | None:
    """Terminal callable name of ``f(...)`` / ``mod.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_storage_file(path: Path) -> bool:
    return "storage" in path.parts


# ----------------------------------------------------------------------
# RPR001 — device constructors stay inside repro/storage
# ----------------------------------------------------------------------
def _check_device_construction(path: Path, tree: ast.AST
                               ) -> list[Finding]:
    if _is_storage_file(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in DEVICE_CONSTRUCTORS:
                findings.append(Finding(
                    str(path), node.lineno, node.col_offset, "RPR001",
                    f"{name}() constructed outside repro/storage; "
                    f"use storage.config.create_device() / the "
                    f"ArrayStore factories"))
    return findings


# ----------------------------------------------------------------------
# RPR005 — codec encode/decode stays inside repro/storage
# ----------------------------------------------------------------------
def _check_codec_discipline(path: Path, tree: ast.AST) -> list[Finding]:
    if _is_storage_file(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in CODEC_METHODS:
                findings.append(Finding(
                    str(path), node.lineno, node.col_offset, "RPR005",
                    f"{name}() called outside repro/storage; tile "
                    f"codecs are applied by the tile store so the "
                    f"compressed bytes are charged to IOStats"))
    return findings


# ----------------------------------------------------------------------
# RPR006 — only the region runner and folding index ELEMENTWISE_OPS
# ----------------------------------------------------------------------
def _check_elementwise_lookup(path: Path, tree: ast.AST
                              ) -> list[Finding]:
    if (path.parent.name, path.name) in ELEMENTWISE_INDEXERS:
        return []

    def is_table(node: ast.expr) -> bool:   # name or module.name
        return getattr(node, "id", getattr(node, "attr", None)) \
            == "ELEMENTWISE_OPS"

    findings = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Subscript) and is_table(node.value))
                or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and is_table(node.func.value))):
            findings.append(Finding(
                str(path), node.lineno, node.col_offset, "RPR006",
                "ELEMENTWISE_OPS indexed outside the region runner "
                "(core/plan.py) and folding (core/passes/fold.py); "
                "build a Region and run its tape instead"))
    return findings


# ----------------------------------------------------------------------
# RPR002 — planner-constructed PhysOps name registered cost models
# ----------------------------------------------------------------------
def _registered_cost_models(costs_path: Path) -> set[str] | None:
    """Keys of the ``COST_MODELS`` dict literal in ``core/costs.py``."""
    try:
        tree = ast.parse(costs_path.read_text())
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name)
                        and t.id == "COST_MODELS"
                        for t in node.targets)
                and isinstance(node.value, ast.Dict)):
            keys = set()
            for key in node.value.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    keys.add(key.value)
            return keys
    return None


def _physop_cost_models(plan_path: Path) -> dict[str, str | None] | None:
    """Map class name -> class-level ``cost_model`` in ``plan.py``."""
    try:
        tree = ast.parse(plan_path.read_text())
    except (OSError, SyntaxError):
        return None
    models: dict[str, str | None] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        model: str | None = None
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for t in targets:
                if (isinstance(t, ast.Name) and t.id == "cost_model"
                        and isinstance(value, ast.Constant)):
                    model = value.value
        models[node.name] = model
    # Subclasses inherit: resolve one level of bases by name.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and models.get(node.name) is None:
            for base in node.bases:
                base_name = (base.id if isinstance(base, ast.Name)
                             else None)
                if base_name in models and models[base_name]:
                    models[node.name] = models[base_name]
    return models


def _check_cost_model_registry(path: Path, tree: ast.AST
                               ) -> list[Finding]:
    if path.name != "planner.py":
        return []
    registry = _registered_cost_models(path.parent / "costs.py")
    class_models = _physop_cost_models(path.parent / "plan.py")
    if registry is None or class_models is None:
        return []  # context files missing: rule not applicable
    findings = []
    for node in ast.walk(tree):
        # Constructed operator classes: the class attr must be
        # registered (or None, for leaves/constants).
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in class_models and name.endswith("Op"):
                model = class_models[name]
                if model is not None and model not in registry:
                    findings.append(Finding(
                        str(path), node.lineno, node.col_offset,
                        "RPR002",
                        f"{name} names cost model {model!r} which is "
                        f"not registered in core.costs.COST_MODELS"))
    # Per-instance overrides: ``op.cost_model = "..."`` (directly or
    # through a string variable assigned in this file).
    consts: dict[str, str] = {}
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Assign):
            continue
        value = sub.value
        if (isinstance(value, ast.Constant)
                and isinstance(value.value, str)):
            for t in sub.targets:
                if isinstance(t, ast.Name):
                    consts[t.id] = value.value
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Assign):
            continue
        for t in sub.targets:
            if not (isinstance(t, ast.Attribute)
                    and t.attr == "cost_model"):
                continue
            value = sub.value
            resolved: str | None = None
            if (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                resolved = value.value
            elif (isinstance(value, ast.Name)
                    and value.id in consts):
                resolved = consts[value.id]
            if resolved is not None and resolved not in registry:
                findings.append(Finding(
                    str(path), sub.lineno, sub.col_offset,
                    "RPR002",
                    f"cost_model override {resolved!r} is not "
                    f"registered in core.costs.COST_MODELS"))
    return findings


# ----------------------------------------------------------------------
# RPR003 — spans open via ``with tracer.span(...)``
# ----------------------------------------------------------------------
def _check_span_discipline(path: Path, tree: ast.AST) -> list[Finding]:
    # The tracer module itself builds and returns span objects.
    if path.name == "tracer.py":
        return []
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                guarded.add(id(item.context_expr))
    findings = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in guarded):
            findings.append(Finding(
                str(path), node.lineno, node.col_offset, "RPR003",
                "tracer span opened outside a with-statement; use "
                "'with tracer.span(...)' so the span is guaranteed "
                "to close"))
    return findings


# ----------------------------------------------------------------------
# RPR004 — no wall clock / RNG in cost models or passes
# ----------------------------------------------------------------------
def _deterministic_scope(path: Path) -> bool:
    """Does RPR004 apply to this file?"""
    if path.name in ("costs.py", "planner.py", "chain.py"):
        return True
    return "passes" in path.parts


def _check_determinism(path: Path, tree: ast.AST) -> list[Finding]:
    if not _deterministic_scope(path):
        return []
    # Track bare names imported from nondeterministic modules.
    tainted: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in NONDETERMINISTIC_ROOTS):
            for alias in node.names:
                if alias.name in NONDETERMINISTIC_IMPORTS:
                    tainted.add(alias.asname or alias.name)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        hit = None
        if chain and chain[0] in NONDETERMINISTIC_ROOTS:
            hit = ".".join(chain)
        elif (len(chain) >= 2 and chain[0] in ("np", "numpy")
                and "random" in chain[1:]):
            hit = ".".join(chain)
        elif (isinstance(node.func, ast.Name)
                and node.func.id in tainted):
            hit = node.func.id
        if hit is not None:
            findings.append(Finding(
                str(path), node.lineno, node.col_offset, "RPR004",
                f"nondeterministic call {hit}() inside a cost model / "
                f"optimizer pass; plans must be pure functions of the "
                f"DAG and config"))
    return findings


_RULES = {
    "RPR001": _check_device_construction,
    "RPR002": _check_cost_model_registry,
    "RPR003": _check_span_discipline,
    "RPR004": _check_determinism,
    "RPR005": _check_codec_discipline,
    "RPR006": _check_elementwise_lookup,
}


def lint_file(path: Path, select: set[str] | None = None
              ) -> list[Finding]:
    """Lint one Python file; returns findings (possibly empty)."""
    try:
        source = path.read_text()
    except OSError as err:
        return [Finding(str(path), 1, 0, "RPR000",
                        f"cannot read file: {err}")]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as err:
        return [Finding(str(path), err.lineno or 1,
                        (err.offset or 1) - 1, "RPR000",
                        f"syntax error: {err.msg}")]
    findings: list[Finding] = []
    for code, rule in _RULES.items():
        if select is None or code in select:
            findings.extend(rule(path, tree))
    return findings


def iter_python_files(paths: list[str | os.PathLike]):
    """Yield every ``.py`` file under the given files/directories."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def run_lint(paths: list[str | os.PathLike],
             select: set[str] | None = None) -> list[Finding]:
    """Lint files/trees; findings sorted by (path, line, col, code)."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
