#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, every layer timed.

Two ways in, one code path::

    run.py [--seed N] [--out FILE] [--trace-out FILE]
    run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` the whole suite runs: every workload declared in
``BENCHMARK.json`` in its own child process, twice untraced (passes A
and B, pooled) and once traced, and every metric is printed by name
with its unit.  With ``--workload`` this process *is* one such child:
it measures that workload for ``--seconds``, checks every result
against the NumPy oracle, prints the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``) and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when anything failed.

The method — closed loop, one client, serial, BLAS pinned to one
thread, fresh session per rep, cold pool — is fixed here and identical
on every commit; README.md says why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Page files and child records go here: the benchmark reads and writes
#: only inside its checkout (listed in the root .gitignore).
SCRATCH = HERE / ".scratch"

#: With OpenBLAS free to use both shared cores, identical reps of one
#: chain are bimodal (0.05 s vs 0.20 s, same block counts); pinned,
#: quartiles sit within a few percent of the median.
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics in seconds (or per second) that are not a layer's
#: self time, so have no share of the traced wall.
NOT_SELF_TIMES = ("process.cpu_s", "storage.device.busy_s",
                  "linalg.gflops_s")


def load_spec() -> dict:
    """BENCHMARK.json is the one declaration of workloads, metric
    names, units, directions, bounds and run length."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bootstrap() -> None:
    """Pin BLAS and put src/ and this directory on the import path.
    Must run before NumPy is first imported.  (REPRO_PARALLELISM and
    REPRO_SANITIZE need no stripping: every session is built with
    explicit ``parallelism=1`` and ``sanitize=False``.)"""
    for var in PINS:
        os.environ[var] = "1"
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):>16d}"
    return f"{value:>16.6g}"


# ----------------------------------------------------------------------
# Child: one workload, one pass
# ----------------------------------------------------------------------
def run_child(args, spec: dict) -> int:
    bootstrap()
    import macro_measure
    SCRATCH.mkdir(exist_ok=True)
    record = macro_measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, trace_out=args.trace_out,
        scratch=str(SCRATCH))
    record["provenance"] = macro_measure.provenance(ROOT, str(SCRATCH))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {d["name"] for d in declared}
    if record["digest"] is None:
        # Every rep raised, nothing was counted: the metrics read 0
        # next to failed == attempted.
        record["metrics"] = dict.fromkeys(names, 0)
    elif names != set(record["metrics"]):
        raise SystemExit(
            "error: measured metrics differ from BENCHMARK.json: "
            f"{sorted(names ^ set(record['metrics']))}")
    metrics = {d["name"]: {"value": record["metrics"][d["name"]],
                           "unit": d["unit"]} for d in declared}
    record["metrics"] = metrics
    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"runs={record['attempted']} "
          f"failed_runs={record['failed']} ==")
    for name, m in metrics.items():
        print(f"{name:<42}{fmt(m['value'])} {m['unit']}")
    for err in record["errors"]:
        print(f"FAILED: {err.rstrip()}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({k: record[k] for k in (
        "correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Suite: every workload, passes A, B and traced
# ----------------------------------------------------------------------
def spawn(workload: str, args, trace: int, out: str,
          trace_out: str | None) -> dict | None:
    """Run one child; its record, or None when it died without one."""
    cmd = [sys.executable, str(HERE / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    if not os.path.exists(out):
        print(f"FAILED: {workload} child exited {proc.returncode} "
              "without a record", file=sys.stderr)
        return None
    with open(out) as fh:
        return json.load(fh)


def pooled(a: dict, b: dict, metric: str, bound: float) -> dict:
    """Median of the two passes' pooled samples, with the spread and
    whether the passes agree with each other within the bound."""
    sa, sb = a["samples"][metric], b["samples"][metric]
    both = sa + sb
    q1, med, q3 = statistics.quantiles(both, n=4)
    ma, mb = statistics.median(sa), statistics.median(sb)
    return {"value": med, "q1": q1, "q3": q3, "min": min(both),
            "n": len(both), "pass_a": ma, "pass_b": mb,
            "unresolved": abs(ma - mb) > bound * min(ma, mb)}


def measure_workload(name: str, args, spec: dict, tmp: str) -> dict:
    bounds = {d["name"]: d["bound"] for d in spec["end_to_end"]}
    trace_file = f"{tmp}/{name}.trace.json" if args.trace_out else None
    recs = [spawn(name, args, 0, f"{tmp}/{name}-A.json", None),
            spawn(name, args, 0, f"{tmp}/{name}-B.json", None),
            spawn(name, args, 1, f"{tmp}/{name}-T.json", trace_file)]
    out = {"attempted": sum(r["attempted"] for r in recs if r),
           "failed": sum(r["failed"] for r in recs if r),
           "errors": [e for r in recs if r for e in r["errors"]]}
    if None in recs or not all(r["samples"]["wall_s"]
                               for r in recs[:2]):
        out["failed"] = max(out["failed"], 1)
        return out
    a, b, t = recs
    e2e = {}
    for metric in a["metrics"]:
        va, vb = (r["metrics"][metric]["value"] for r in (a, b))
        if metric in a["samples"]:
            e2e[metric] = pooled(a, b, metric, bounds[metric])
        elif metric == "peak_rss_mib":
            e2e[metric] = {"value": max(va, vb), "pass_a": va,
                           "pass_b": vb, "unresolved": False}
        else:
            e2e[metric] = {"value": va}
            if va != vb:
                out["failed"] += 1
                out["errors"].append(
                    f"{metric} differs between passes: {va} vs {vb}")
        e2e[metric]["unit"] = a["metrics"][metric]["unit"]
    if len({r["digest"] for r in recs}) != 1:
        out["failed"] += 1
        out["errors"].append("result digests differ between passes")
    out.update(end_to_end=e2e, per_layer=t["metrics"],
               digest=a["digest"], provenance=a["provenance"],
               patched=t["patched"], restored=t["restored"])
    return out


def print_workload(name: str, why: str, w: dict) -> None:
    print(f"\n== {name} ==  runs {w['attempted']}, failed_runs "
          f"{w['failed']}, result sha256 "
          f"{str(w.get('digest'))[:16]}")
    print(f"   {why}")
    for err in w["errors"]:
        print(f"   FAILED: {err.rstrip()}")
    if "end_to_end" not in w:
        return
    for metric, m in w["end_to_end"].items():
        note = ""
        if "n" in m:
            note = (f"  q1 {m['q1']:.4g} q3 {m['q3']:.4g} min "
                    f"{m['min']:.4g} n {m['n']}; pass A "
                    f"{m['pass_a']:.4g} B {m['pass_b']:.4g}")
        elif "pass_a" in m:
            note = f"  pass A {m['pass_a']:.4g} B {m['pass_b']:.4g}"
        if m.get("unresolved"):
            note += "  UNRESOLVED (passes disagree beyond the bound)"
        print(f"{metric:<42}{fmt(m['value'])} {m['unit']}{note}")
    layer = w["per_layer"]
    # Shares are of the traced wall: the layers' self times plus what
    # the root span kept for itself.
    self_times = {k: m["value"] for k, m in layer.items()
                  if k.endswith("_s") and k not in NOT_SELF_TIMES}
    traced_wall = sum(self_times.values()) / max(
        1.0 - layer["process.unattributed_share"]["value"], 1e-9)
    for metric, m in layer.items():
        share = ""
        if metric in self_times and traced_wall:
            share = f"  {100 * m['value'] / traced_wall:5.1f}%"
        print(f"{metric:<42}{fmt(m['value'])} {m['unit']}{share}")


def merge_traces(names: list[str], tmp: str, path: str) -> None:
    """One Chrome trace file, one process track per workload."""
    events, meta = [], {}
    for pid, name in enumerate(names, start=1):
        part = f"{tmp}/{name}.trace.json"
        if not os.path.exists(part):
            continue
        with open(part) as fh:
            doc = json.load(fh)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        events += [dict(ev, pid=pid) for ev in doc["traceEvents"]]
        meta[name] = doc["otherData"]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)


def run_suite(args, spec: dict) -> int:
    SCRATCH.mkdir(exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    result = {"seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "end_to_end": spec["end_to_end"],
              "per_layer": spec["per_layer"], "workloads": {}}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for w in spec["workloads"]:
            result["workloads"][w["name"]] = measure_workload(
                w["name"], args, spec, tmp)
        if args.trace_out:
            merge_traces(names, tmp, args.trace_out)
    provs = [w.pop("provenance") for w in result["workloads"].values()
             if "provenance" in w]
    prov = result["provenance"] = provs[0] if provs else {}
    print("provenance:")
    for key, value in prov.items():
        print(f"  {key:<14} {value}")
    print(f"  {'seed':<14} {args.seed}")
    print(f"  {'reps':<14} "
          + ("2 per pass (--smoke)" if args.smoke else
             f"as many as fit in {args.seconds} s per pass: "
             + ", ".join(f"{n} {result['workloads'][n]['attempted']}"
                         for n in names)))
    if prov and not prov["zstandard"]:
        print("WARNING: `zstandard` is not importable: ols_zstd ran "
              "on the zlib fallback; its codec times are zlib's, not "
              "zstd's.")
    for w in spec["workloads"]:
        print_workload(w["name"], w["why"],
                       result["workloads"][w["name"]])
    failed = sum(w["failed"] for w in result["workloads"].values())
    unresolved = [f"{n}.{k}" for n, w in result["workloads"].items()
                  for k, m in w.get("end_to_end", {}).items()
                  if m.get("unresolved")]
    print(f"\nfailed_runs {failed} of "
          f"{sum(w['attempted'] for w in result['workloads'].values())}"
          f" runs; unresolved: {', '.join(unresolved) or 'none'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="measure this one workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=spec["run_seconds"],
                    help="measuring time per pass (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced pass")
    ap.add_argument("--smoke", action="store_true",
                    help="sizes / 8 and 2 reps: the tier-1 test's run")
    ap.add_argument("--out", help="write the full record as JSON")
    ap.add_argument("--trace-out",
                    help="write the traced spans as Chrome trace JSON")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found — the "
              "benchmark measures the repo it sits in", file=sys.stderr)
        return 2
    if args.workload:
        return run_child(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
