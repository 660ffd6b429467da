#!/usr/bin/env python
"""Validate benchmark JSON artifacts against the shared IOStats schema.

The CI benchmark-smoke job runs every ``bench_*.py`` with
``--benchmark-json`` and then this script over the result directory.
Every benchmark entry must carry ``extra_info["io"]`` containing every
key of :data:`repro.storage.IOSTATS_SCHEMA_KEYS` (the shape produced by
``IOStats.as_dict()``) — the uniform schema that lets downstream
tooling aggregate I/O numbers across benchmarks without per-file
special cases.  Exit status is non-zero on any violation, which fails
the job.

Usage::

    python benchmarks/check_schema.py bench-results/
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.storage import BACKENDS, IO_SCHEMA_VERSION, \
    IOSTATS_SCHEMA_KEYS, POOL_SCHEMA_KEYS


def check_entry(where: str, bench: dict) -> list[str]:
    """Schema-v2 violations for one benchmark entry.

    Beyond the IOStats keys, every entry must *dual-report*: the
    simulated block counters (``io``) plus which backend served them
    (``backend``) and what the physical I/O cost in wall-clock
    ``seconds`` — so a results file always answers both "how many
    blocks" and "how long on this hardware".
    """
    problems: list[str] = []
    extra = bench.get("extra_info", {})
    io = extra.get("io")
    if not isinstance(io, dict):
        return [f"{where}: extra_info['io'] missing — record it "
                f"with record_io_stats(benchmark, stats)"]
    missing = [k for k in IOSTATS_SCHEMA_KEYS if k not in io]
    if missing:
        problems.append(
            f"{where}: io dict missing schema keys {missing}")
    elif io["schema_version"] != IO_SCHEMA_VERSION:
        problems.append(
            f"{where}: io schema_version {io['schema_version']!r}, "
            f"expected {IO_SCHEMA_VERSION}")
    backend = extra.get("backend")
    if backend not in BACKENDS:
        problems.append(
            f"{where}: extra_info['backend'] is {backend!r}; "
            f"dual-reporting requires one of {'|'.join(BACKENDS)}")
    seconds = extra.get("seconds")
    if not isinstance(seconds, (int, float)) or seconds < 0:
        problems.append(
            f"{where}: extra_info['seconds'] is {seconds!r}; "
            f"dual-reporting requires a non-negative number")
    # The pool section is optional (analytic benchmarks have no pool),
    # but when present it must be the exact PoolStats.as_dict() shape.
    pool = extra.get("pool")
    if pool is not None:
        if not isinstance(pool, dict):
            problems.append(
                f"{where}: extra_info['pool'] is {type(pool).__name__}, "
                f"expected the PoolStats.as_dict() mapping")
        else:
            missing = [k for k in sorted(POOL_SCHEMA_KEYS)
                       if k not in pool]
            if missing:
                problems.append(
                    f"{where}: pool dict missing schema keys {missing}")
    return problems


def check_file(path: Path) -> tuple[list[str], int]:
    """Violations and benchmark count for one pytest-benchmark JSON."""
    problems: list[str] = []
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable benchmark JSON ({exc})"], 0
    if "benchmarks" not in data:
        # Not a pytest-benchmark file: the results dir also collects
        # other artifacts (Chrome traces, calibration reports).
        return [], -1
    benchmarks = data["benchmarks"]
    if not benchmarks:
        problems.append(f"{path.name}: no benchmarks recorded")
    for bench in benchmarks:
        name = bench.get("name", "<unnamed>")
        problems.extend(check_entry(f"{path.name}::{name}", bench))
    return problems, len(benchmarks)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    results_dir = Path(argv[1])
    files = sorted(results_dir.glob("*.json"))
    if not files:
        print(f"no benchmark JSON files found in {results_dir}")
        return 1
    problems: list[str] = []
    checked = 0
    bench_files = 0
    for path in files:
        file_problems, n = check_file(path)
        problems.extend(file_problems)
        if n < 0:
            print(f"skipped: {path.name} (not a pytest-benchmark file)")
        elif not file_problems:
            checked += n
            bench_files += 1
            print(f"ok: {path.name} ({n} benchmarks)")
    if bench_files == 0 and not problems:
        print(f"no pytest-benchmark JSON files found in {results_dir}")
        return 1
    if problems:
        print(f"\n{len(problems)} schema violation(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nall {checked} benchmark entries carry the shared "
          f"IOStats schema ({len(IOSTATS_SCHEMA_KEYS)} keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
