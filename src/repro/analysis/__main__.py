"""CLI for the repo-specific linter: ``python -m repro.analysis src/``.

Prints one ``path:line:col: CODE message`` line per finding (the
compiler-error shape editors and CI annotate) and exits 1 when any rule
fired, 0 on a clean tree.
"""

from __future__ import annotations

import argparse
import sys

from .lint import ALL_RULES, run_lint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="RIOT repo lint: storage/plan/span/determinism/"
                    "codec conventions checked on the AST "
                    "(rules RPR001-6).")
    parser.add_argument(
        "paths", nargs="+",
        help="files or directories to lint (directories recurse)")
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule codes to run "
             f"(default: all of {','.join(ALL_RULES)})")
    args = parser.parse_args(argv)
    select = None
    if args.select:
        select = {code.strip().upper()
                  for code in args.select.split(",") if code.strip()}
        unknown = select - set(ALL_RULES)
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")
    findings = run_lint(args.paths, select)
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
