"""The RPR lint rules: each fixture trips exactly its own rule.

Every rule gets (a) a minimal offending snippet that must produce the
rule's code and nothing else, (b) a near-miss that must stay clean, and
the suite ends with the self-hosting check: the shipped ``src/repro``
tree lints green.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import repro
from repro.analysis import ALL_RULES, lint_file, run_lint


def lint_source(tmp_path, source, name="snippet.py", select=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, set(select) if select else None)


def codes(findings):
    return sorted({f.code for f in findings})


class TestRPR001DeviceConstruction:
    def test_blockdevice_call_flagged(self, tmp_path):
        found = lint_source(tmp_path, "dev = BlockDevice(block_size=1)\n")
        assert codes(found) == ["RPR001"]
        assert "BlockDevice" in found[0].message

    def test_filedevice_and_pagefile_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "a = FileBlockDevice(path='x')\n"
            "b = PageFile(dev, name='t')\n")
        assert [f.code for f in found] == ["RPR001", "RPR001"]

    def test_storage_package_exempt(self, tmp_path):
        found = lint_source(
            tmp_path, "dev = BlockDevice()\n",
            name="storage/pagefile.py")
        assert found == []

    def test_mention_in_string_is_clean(self, tmp_path):
        # The grep test this replaces flagged docstrings; the AST
        # linter must not.
        found = lint_source(
            tmp_path,
            '"""Docs about BlockDevice(block_size) usage."""\n'
            "x = 'PageFile(dev)'\n")
        assert found == []

    def test_factory_call_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from repro.storage import new_pagefile\n"
            "f = new_pagefile(dev, name='t')\n")
        assert found == []


class TestRPR003SpanDiscipline:
    def test_bare_span_call_flagged(self, tmp_path):
        found = lint_source(tmp_path, "span = tracer.span('x')\n")
        assert codes(found) == ["RPR003"]

    def test_with_span_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "with tracer.span('x', cat='kernel'):\n    pass\n")
        assert found == []

    def test_with_span_as_target_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "with tracer.span('x') as sp:\n    pass\n")
        assert found == []

    def test_span_inside_helper_call_flagged(self, tmp_path):
        # contextlib.ExitStack-style indirection hides the close.
        found = lint_source(
            tmp_path, "stack.enter_context(tracer.span('x'))\n")
        assert codes(found) == ["RPR003"]


class TestRPR004Determinism:
    def test_time_call_in_costs_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "import time\n"
            "def model():\n    return time.perf_counter()\n",
            name="core/costs.py")
        assert codes(found) == ["RPR004"]

    def test_numpy_random_in_pass_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def jitter():\n    return np.random.random()\n",
            name="core/passes/fold.py")
        assert codes(found) == ["RPR004"]

    def test_bare_import_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from time import perf_counter\n"
            "def f():\n    return perf_counter()\n",
            name="core/planner.py")
        assert codes(found) == ["RPR004"]

    def test_rule_scoped_to_costing_files(self, tmp_path):
        # Wall-clock use is fine outside cost models / passes — the
        # tracer reads clocks by design.
        found = lint_source(
            tmp_path,
            "import time\n"
            "def now():\n    return time.perf_counter()\n",
            name="obs/tracer.py")
        assert found == []

    def test_deterministic_numpy_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f(x):\n    return np.ceil(x / 2)\n",
            name="core/costs.py")
        assert found == []


class TestRPR002CostModelRegistry:
    PLAN = (
        "class PhysOp:\n"
        "    cost_model = None\n"
        "class GoodOp(PhysOp):\n"
        "    cost_model = 'stream_io'\n"
        "class BadOp(PhysOp):\n"
        "    cost_model = 'unregistered_io'\n"
    )
    COSTS = (
        "def stream_io():\n    return 0\n"
        "COST_MODELS = {'stream_io': stream_io}\n"
    )

    def make_pkg(self, tmp_path, planner_body):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "plan.py").write_text(self.PLAN)
        (tmp_path / "core" / "costs.py").write_text(self.COSTS)
        planner = tmp_path / "core" / "planner.py"
        planner.write_text(planner_body)
        return planner

    def test_registered_op_clean(self, tmp_path):
        planner = self.make_pkg(
            tmp_path, "from .plan import GoodOp\nop = GoodOp()\n")
        assert lint_file(planner) == []

    def test_unregistered_op_flagged(self, tmp_path):
        planner = self.make_pkg(
            tmp_path, "from .plan import BadOp\nop = BadOp()\n")
        found = lint_file(planner)
        assert codes(found) == ["RPR002"]
        assert "unregistered_io" in found[0].message

    def test_unregistered_override_flagged(self, tmp_path):
        planner = self.make_pkg(
            tmp_path,
            "from .plan import GoodOp\n"
            "op = GoodOp()\n"
            "op.cost_model = 'not_there_io'\n")
        found = lint_file(planner)
        assert codes(found) == ["RPR002"]

    def test_rule_only_runs_in_planner(self, tmp_path):
        self.make_pkg(tmp_path, "pass\n")
        other = tmp_path / "core" / "chain.py"
        other.write_text("op.cost_model = 'not_there_io'\n")
        assert lint_file(other) == []


class TestRPR005CodecDiscipline:
    def test_encode_call_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "payload = codec.encode_tile(tile)\n",
            name="linalg/matmul.py")
        assert codes(found) == ["RPR005"]
        assert "encode_tile" in found[0].message

    def test_decode_call_flagged(self, tmp_path):
        found = lint_source(
            tmp_path, "tile = c.decode_tile(buf, dt, 16)\n")
        assert codes(found) == ["RPR005"]

    def test_storage_package_exempt(self, tmp_path):
        found = lint_source(
            tmp_path,
            "payload = codec.encode_tile(tile)\n",
            name="storage/tile_store.py")
        assert found == []

    def test_mention_in_string_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            '"""Codecs expose encode_tile(tile) -> bytes."""\n'
            "x = 'decode_tile(buf)'\n")
        assert found == []

    def test_other_codec_api_is_clean(self, tmp_path):
        # Only the tile wire protocol is storage-internal; reading a
        # codec's metadata (name, ratio) anywhere is fine.
        found = lint_source(
            tmp_path,
            "from repro.storage import get_codec\n"
            "ratio = get_codec('delta+zstd').ratio_estimate\n")
        assert found == []


class TestRPR006ElementwiseLookup:
    def test_table_lookup_in_evaluator_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from repro.core.expr import ELEMENTWISE_OPS\n"
            "def ev(n, args):\n"
            "    return ELEMENTWISE_OPS[n.op](*args)\n",
            name="core/evaluator.py")
        assert codes(found) == ["RPR006"]
        assert "region runner" in found[0].message

    def test_attribute_and_get_lookups_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "f = expr.ELEMENTWISE_OPS['+']\n"
            "g = ELEMENTWISE_OPS.get(op)\n",
            name="linalg/matmul.py")
        assert [f.code for f in found] == ["RPR006", "RPR006"]

    def test_region_runner_and_folding_exempt(self, tmp_path):
        source = "fn = ELEMENTWISE_OPS[node.op]\n"
        assert lint_source(tmp_path, source, name="core/plan.py") == []
        assert lint_source(tmp_path, source,
                           name="core/passes/fold.py") == []
        # ...by place, not by file name alone
        found = lint_source(tmp_path, source, name="sparse/plan.py")
        assert codes(found) == ["RPR006"]

    def test_import_and_membership_are_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from repro.core.expr import ELEMENTWISE_OPS\n"
            "ok = op in ELEMENTWISE_OPS\n"
            "names = sorted(ELEMENTWISE_OPS)\n")
        assert found == []


class TestRPR007ExecutorHome:
    def test_executor_outside_parallel_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=4)\n",
            name="core/evaluator.py")
        assert codes(found) == ["RPR007"]
        assert "core/parallel.py" in found[0].message

    def test_module_qualified_call_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "import concurrent.futures as cf\n"
            "pool = cf.ThreadPoolExecutor(2)\n",
            name="linalg/matmul.py")
        assert codes(found) == ["RPR007"]

    def test_parallel_module_exempt_by_place(self, tmp_path):
        source = "pool = ThreadPoolExecutor(max_workers=2)\n"
        assert lint_source(tmp_path, source,
                           name="core/parallel.py") == []
        found = lint_source(tmp_path, source, name="sparse/parallel.py")
        assert codes(found) == ["RPR007"]

    def test_import_alone_is_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "from concurrent.futures import ThreadPoolExecutor\n"
            "kind = ThreadPoolExecutor\n")
        assert found == []


class TestRPR008PoolDiscipline:
    def test_device_read_outside_storage_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "page = store.device.read_block(bid)\n",
            name="core/evaluator.py")
        assert codes(found) == ["RPR008"]
        assert "buffer pool" in found[0].message

    def test_every_transfer_method_flagged(self, tmp_path):
        found = lint_source(
            tmp_path,
            "dev.read_blocks(ids)\n"
            "dev.write_block(0, page)\n"
            "dev.write_blocks(ids, pages)\n"
            "view = dev.block_view(0)\n",
            name="linalg/matmul.py")
        assert [f.code for f in found] == ["RPR008"] * 4

    def test_storage_and_pager_swap_exempt_by_place(self, tmp_path):
        source = "page = self.device.read_block(bid)\n"
        assert lint_source(tmp_path, source,
                           name="storage/buffer_pool.py") == []
        assert lint_source(tmp_path, source, name="vm/pager.py") == []
        found = lint_source(tmp_path, source, name="vm/swap.py")
        assert codes(found) == ["RPR008"]

    def test_pool_calls_are_clean(self, tmp_path):
        found = lint_source(
            tmp_path,
            "page = store.pool.get(bid)\n"
            "pages = store.pool.get_many(ids)\n"
            "store.pool.put(bid, page)\n",
            name="core/evaluator.py")
        assert found == []


class TestSelectAndErrors:
    def test_select_filters_rules(self, tmp_path):
        source = ("dev = BlockDevice()\n"
                  "span = tracer.span('x')\n")
        only1 = lint_source(tmp_path, source, select={"RPR001"})
        assert codes(only1) == ["RPR001"]
        only3 = lint_source(tmp_path, source, select={"RPR003"})
        assert codes(only3) == ["RPR003"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        found = lint_source(tmp_path, "def broken(:\n")
        assert codes(found) == ["RPR000"]

    def test_finding_render_format(self, tmp_path):
        found = lint_source(tmp_path, "dev = BlockDevice()\n")
        rendered = found[0].render()
        assert ": RPR001 BlockDevice() constructed outside" in rendered
        assert ":1:7:" in rendered  # 1-based line, 1-based column


class TestSelfHosting:
    def test_shipped_tree_lints_green(self):
        root = pathlib.Path(repro.__file__).parent
        findings = run_lint([root])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_all_rules_constant_matches_docs(self):
        assert ALL_RULES == ("RPR001", "RPR002", "RPR003", "RPR004",
                             "RPR005", "RPR006", "RPR007", "RPR008")


class TestCLI:
    def run_cli(self, *args):
        repo = pathlib.Path(__file__).resolve().parents[2]
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin"})

    def test_clean_tree_exits_zero(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        proc = self.run_cli(str(repo / "src"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stderr

    def test_seeded_violation_exits_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("dev = BlockDevice(block_size=4096)\n")
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert "RPR001" in proc.stdout

    def test_seeded_fifth_walker_exits_one(self, tmp_path):
        bad = tmp_path / "walker.py"
        bad.write_text("value = ELEMENTWISE_OPS[node.op](*args)\n")
        proc = self.run_cli("--select", "RPR006", str(bad))
        assert proc.returncode == 1
        assert "RPR006" in proc.stdout

    def test_seeded_second_executor_exits_one(self, tmp_path):
        bad = tmp_path / "core" / "evaluator.py"
        bad.parent.mkdir()
        bad.write_text("pool = ThreadPoolExecutor(max_workers=4)\n")
        proc = self.run_cli("--select", "RPR007", str(tmp_path))
        assert proc.returncode == 1
        assert "RPR007" in proc.stdout

    def test_unknown_rule_rejected(self, tmp_path):
        bad = tmp_path / "f.py"
        bad.write_text("x = 1\n")
        proc = self.run_cli("--select", "RPR999", str(bad))
        assert proc.returncode == 2
