"""Tier-1 check of the macro benchmark itself.

Runs ``run.py --smoke`` once (same code path as the real run: child
processes, passes A, B and traced; sizes / 8, 2 reps) and asserts what
the benchmark promises about its own output — names, limits, presence
of every declared metric, exact counts, self times that add up, patches
that are undone, failures that are counted — so a later PR cannot break
the measuring stick without tier-1 noticing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """(completed process, --out document, --trace-out document)."""
    tmp = tmp_path_factory.mktemp("macro")
    out, trace = tmp / "smoke.json", tmp / "smoke.trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(out), "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=tmp)
    assert out.exists(), proc.stdout + proc.stderr
    with open(out) as fh, open(trace) as th:
        return proc, json.load(fh), json.load(th), out


@pytest.fixture
def in_process(monkeypatch):
    """Import the benchmark's modules into this process, undoing the
    path and environment edits afterwards."""
    for var in PINS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import compare
    import macro_layers
    import macro_measure
    import run
    return run, compare, macro_measure, macro_layers


def test_names_units_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/macro"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end",
                                   "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert isinstance(spec["run_seconds"], int) \
        and 1 <= spec["run_seconds"] <= 60


def test_declared_workloads_are_the_implemented_ones(spec, in_process):
    from macro_workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_declared_metric_is_reported(spec, suite):
    proc, doc, _, _ = suite
    assert proc.returncode == 0, proc.stdout + proc.stderr
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        got = doc["workloads"][w["name"]]
        assert list(got["end_to_end"]) == e2e
        assert list(got["per_layer"]) == layer
        assert all(m["value"] > 0 for m in got["end_to_end"].values())
    # ... and printed by name with its unit.
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(
            rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b",
            proc.stdout, re.M), m["name"]
    for key in ("git_sha", "nproc", "numpy", "blas", "thread_pins",
                "zstandard", "threadpoolctl", "tmpdir_fs", "block_size"):
        assert key in doc["provenance"]
    if not doc["provenance"]["zstandard"]:
        assert "zlib fallback" in proc.stdout


def test_counts_repeat_and_nothing_failed(suite):
    # A rep whose counters or result bits differ from rep 1 is a
    # failed run, so "no failures" is "identical across reps".
    _, doc, _, _ = suite
    for name, w in doc["workloads"].items():
        assert w["failed"] == 0, (name, w["errors"])
        # 2 reps in each of passes A and B, 2 + 2 in the traced pass.
        assert w["attempted"] == 8
    digests = {n: w["digest"] for n, w in doc["workloads"].items()}
    assert digests["ols_pread"] == digests["ols_zstd"]


def test_layer_isolation(suite):
    _, doc, _, _ = suite
    for name, w in doc["workloads"].items():
        layer = {k: m["value"] for k, m in w["per_layer"].items()}
        codec_calls = (layer["storage.codecs.encode_calls"]
                       + layer["storage.codecs.decode_calls"])
        assert (codec_calls > 0) == (name == "ols_zstd")
        assert (layer["sparse.calls"] > 0) == (name == "sparse_chain")
        assert (layer["linalg.calls"] > 0) == name.startswith(
            ("ols", "chain"))


def test_self_times_add_up_to_the_traced_wall(suite):
    # Recomputed from the exported Chrome trace, not from run.py's own
    # arithmetic: per rep, the layers' self times are within
    # [0.85, 1.0] of the root span's duration.
    _, doc, trace, _ = suite
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in events} == set(
        range(1, len(doc["workloads"]) + 1))
    children: dict[tuple, float] = {}
    for e in events:
        key = (e["pid"], e["args"]["parent"])
        children[key] = children.get(key, 0.0) + e["dur"]
    roots = [e for e in events if e["cat"] == "process"]
    assert len(roots) == 2 * len(doc["workloads"])
    for root in roots:
        inside = [e for e in events if e["pid"] == root["pid"]
                  and e["args"]["rep"] == root["args"]["rep"]
                  and e is not root]
        self_us = sum(
            e["dur"] - children.get((e["pid"], e["args"]["id"]), 0.0)
            for e in inside)
        assert 0.85 <= self_us / root["dur"] <= 1.0 + 1e-9


def test_patches_are_restored(suite, in_process):
    _, doc, _, _ = suite
    for w in doc["workloads"].values():
        assert w["patched"] > 40 and w["restored"] is True
    *_, layers = in_process
    import repro.core.evaluator as evaluator
    import repro.sparse
    from repro.linalg import matmul
    from repro.storage.buffer_pool import BufferPool
    before = (evaluator.crossprod_matmul, matmul.crossprod_matmul,
              repro.sparse.spmm, BufferPool.__dict__["get"])
    with layers.tracing(layers.Recorder()) as patches:
        during = (evaluator.crossprod_matmul, matmul.crossprod_matmul,
                  repro.sparse.spmm, BufferPool.__dict__["get"])
        assert all(d is not b for d, b in zip(during, before))
        # The use site and the defining module get the same wrapper.
        assert during[0] is during[1]
    after = (evaluator.crossprod_matmul, matmul.crossprod_matmul,
             repro.sparse.spmm, BufferPool.__dict__["get"])
    assert all(a is b for a, b in zip(after, before))
    assert all(site.__dict__[attr] is original
               for site, attr, original in patches)


def test_a_raising_kernel_fails_every_run(in_process, monkeypatch,
                                          tmp_path, capsys):
    run, _, measure, _ = in_process
    import repro.core.evaluator as evaluator

    def boom(*args, **kwargs):
        raise RuntimeError("injected kernel failure")

    for kernel in ("crossprod_matmul", "square_tile_matmul",
                   "bnlj_matmul"):
        monkeypatch.setattr(evaluator, kernel, boom)
    record = measure.run_workload("ols_pread", 1, 0.0, False,
                                  smoke=True, scratch=str(tmp_path))
    assert record["attempted"] == 2
    assert record["failed"] == record["attempted"]
    assert record["correct"] is False
    assert "injected kernel failure" in record["errors"][-1]
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    assert run.main(["--workload", "ols_pread", "--smoke"]) != 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["failed"] == 2


def test_compare_a_file_with_itself(suite, in_process, capsys):
    _, compare, _, _ = in_process
    *_, out = suite
    assert compare.main([str(out), str(out)]) == 0
    table = capsys.readouterr().out
    assert "worse" not in table.replace("0 worse", "")
    assert "blocks_read" in table and "failed_runs" in table


def test_compare_flags_a_regression(suite, in_process, tmp_path,
                                    capsys):
    _, compare, _, _ = in_process
    _, doc, _, out = suite
    worse = json.loads(json.dumps(doc))
    worse["workloads"]["ols_pread"]["end_to_end"]["blocks_read"][
        "value"] += 1
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    assert compare.main([str(out), str(path)]) == 1
    assert re.search(r"ols_pread\s+blocks_read.*worse",
                     capsys.readouterr().out)


def test_exits_nonzero_without_the_repo(spec, tmp_path):
    # The driver's contract: in a directory that holds only
    # BENCHMARK.json and the benchmark's own files there is nothing to
    # measure — fail fast, print no result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    dest = tmp_path / "benchmarks" / "macro"
    dest.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, dest)
    proc = subprocess.run(
        spec["command"] + ["--workload", "ols_pread", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
