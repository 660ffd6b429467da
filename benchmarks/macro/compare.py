#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: the A/A check and the A/B tool.

    python benchmarks/macro/compare.py A.json B.json

One row per (workload, end-to-end metric) with both values, the ratio
B/A (A is the base) and a verdict under the bounds ``BENCHMARK.json``
declares (A's copy of them is used):

- counts (blocks, bytes, calls, failed runs) are exact: any difference
  is ``better`` or ``worse``;
- timings and memory move only beyond their bound, and are
  ``unresolved`` — not ``same`` — when either side's two passes
  disagree with each other by more than that bound, because then the
  run-to-run spread is as wide as the regression being looked for.

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool
            ) -> str:
    va, vb = a["value"], b["value"]
    sampled = "pass_a" in a
    if sampled and (a.get("unresolved") or b.get("unresolved")):
        return "unresolved"
    slack = bound * abs(va) if sampled else 0.0
    if abs(vb - va) <= slack:
        return "same"
    return "better" if (vb < va) == lower_is_better else "worse"


def rows(a: dict, b: dict) -> list[tuple]:
    out = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa \
                or "end_to_end" not in wb:
            out.append((name, "(missing)", "-", "-", "-", "worse"))
            continue
        for spec in a["end_to_end"]:
            ma = wa["end_to_end"][spec["name"]]
            mb = wb["end_to_end"][spec["name"]]
            ratio = (f"{mb['value'] / ma['value']:.4f}"
                     if ma["value"] else "-")
            out.append((name, f"{spec['name']} [{spec['unit']}]",
                        f"{ma['value']:.6g}", f"{mb['value']:.6g}",
                        ratio,
                        verdict(ma, mb, spec["bound"],
                                spec["better"] == "lower")))
        fa, fb = wa["failed"], wb["failed"]
        out.append((name, "failed_runs [runs]",
                    f"{fa} of {wa['attempted']}",
                    f"{fb} of {wb['attempted']}", "-",
                    "same" if fa == fb else
                    "better" if fb < fa else "worse"))
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    table = rows(*docs)
    header = ("workload", "metric", "A", "B", "B/A", "verdict")
    widths = [max(len(str(r[i])) for r in table + [header])
              for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    worse = sum(1 for r in table if r[-1] == "worse")
    unresolved = sum(1 for r in table if r[-1] == "unresolved")
    print(f"\n{len(table)} rows: {worse} worse, {unresolved} "
          f"unresolved (A = {argv[0]}, B = {argv[1]})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
