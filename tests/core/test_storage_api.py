"""The injected storage API: sessions and URL opening.

``RiotSession(storage=StorageConfig(...), config=OptimizerConfig(...))``
is the one way to configure a session — no keyword restates a field of
either config, and every layer reads M and B from the
``StorageConfig``; ``repro.open_session(url)`` covers the URL form; no
module outside ``repro.storage`` constructs a ``BlockDevice`` directly.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

from unittest import mock

import numpy as np
import pytest

import repro
from repro.analysis import planlint, verify_plan
from repro.core import ArrayInput, MatMul, OptimizerConfig, RiotSession
from repro.core.engine import RiotNGEngine
from repro.core.evaluator import Evaluator
from repro.core.planner import Planner
from repro.db import Database
from repro.linalg import lu
from repro.storage import ArrayStore, FileBlockDevice, StorageConfig
from repro.vm import Pager


class TestSessionConfigInjection:
    def test_storage_config_drives_the_store(self):
        cfg = StorageConfig(memory_bytes=1 << 20, block_size=4096)
        s = RiotSession(storage=cfg)
        assert s.store.device.block_size == 4096
        assert s.store.pool.capacity == (1 << 20) // 4096
        assert s.storage is cfg

    def test_default_is_memory_backend(self):
        assert RiotSession().store.device.backend == "memory"

    def test_file_backend_session(self, tmp_path):
        cfg = StorageConfig(backend="mmap", path=tmp_path / "s.db",
                            memory_bytes=1 << 20)
        with RiotSession(storage=cfg) as s:
            x = s.vector(np.arange(5000.0))
            assert np.array_equal(s.values(x * 2.0),
                                  np.arange(5000.0) * 2.0)
            assert isinstance(s.store.device, FileBlockDevice)
        assert (tmp_path / "s.db").exists()

    def test_storage_plus_legacy_kwargs_rejected(self):
        for legacy in ({"memory_bytes": 1 << 20}, {"block_size": 4096},
                       {"policy": "clock"}, {"optimize": False},
                       {"memory_bytes": 1 << 20,
                        "storage": StorageConfig()}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                RiotSession(**legacy)
        with pytest.raises(TypeError, match="unexpected keyword"):
            StorageConfig(policy="clock")


class TestOneBudget:
    """M and B are stated once, by ``StorageConfig``: the planner, the
    evaluator (its kernels and its level-0 planner), the plan verifier
    and a kernel called without a budget all read its
    ``memory_scalars`` and ``block_scalars``, however they were
    built."""

    def test_every_layer_sees_the_storage_budget(self):
        cfg = StorageConfig(memory_bytes=1 << 20, dtype="float32")
        budget = ((1 << 20) // 4, 8192 // 4)      # float32 scalars
        # Not the pool's float64 count (131 072 here).
        assert Evaluator(ArrayStore(storage=cfg)).memory_scalars \
            == budget[0]
        assert (cfg.memory_scalars, cfg.block_scalars) == budget
        bare = ArrayStore(cfg)
        square = bare.matrix_from_numpy(np.eye(64, dtype=np.float32))
        assert lu._schedule(bare, square, None).memory == budget[0]
        seen = []

        def spy_plan(planner, root):
            seen.append(("plan", planner.memory_scalars,
                         planner.block_scalars))
            return plan(planner, root)

        def spy_verify(op, memory_scalars, block_scalars):
            seen.append(("verify", memory_scalars, block_scalars))
            return verify(op, memory_scalars, block_scalars)

        plan, verify = Planner.plan, planlint._verify_op
        with mock.patch.object(Planner, "plan", spy_plan), \
                mock.patch.object(planlint, "_verify_op", spy_verify):
            store = ArrayStore(cfg)
            ev = Evaluator(store, OptimizerConfig(strict=True))
            a = store.matrix_from_numpy(np.eye(4, dtype=np.float32))
            ev.force(MatMul(ArrayInput(a), ArrayInput(a)))
            with RiotSession(storage=cfg,
                             config=OptimizerConfig(strict=True)) as s:
                assert s.evaluator.memory_scalars == budget[0]
                m = s.matrix(np.eye(4))
                s.values(m @ m)
                verify_plan(s.plan(m @ m), cfg)
        assert {kind for kind, *_ in seen} == {"plan", "verify"}
        assert {tuple(rest) for _, *rest in seen} == {budget}

    @pytest.mark.parametrize("build", [
        lambda: repro.open_session(None, optimize=False),
        lambda: RiotNGEngine(optimize=False),
        lambda: RiotNGEngine(block_size=4096),
        lambda: ArrayStore(memory_bytes=1 << 20),
        lambda: ArrayStore(scheduler=False),
        lambda: Evaluator(ArrayStore(), memory_scalars=1 << 10),
        lambda: Evaluator(ArrayStore(), parallelism=2),
        lambda: Planner(OptimizerConfig(), memory_scalars=1 << 10),
    ])
    def test_a_setting_enters_one_way(self, build):
        """The keywords that restated a config field are gone."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            build()


class TestOpenSession:
    def test_memory_url(self):
        with repro.open_session("memory://", memory="1MiB") as s:
            assert s.store.device.backend == "memory"
            assert s.planner.memory_scalars == (1 << 20) // 8

    def test_file_url_roundtrip(self, tmp_path):
        url = (tmp_path / "riot.db").as_uri()
        with repro.open_session(url, memory="1MiB") as s:
            m = s.matrix(np.arange(24.0).reshape(4, 6), name="M")
            s.values(m)  # materialize before close
        with repro.open_session(url, memory="1MiB") as s:
            assert "M" in s.stored_names()
            got = s.values(s.open_matrix("M"))
        assert np.array_equal(got, np.arange(24.0).reshape(4, 6))

    def test_pread_mode_via_query(self, tmp_path):
        url = (tmp_path / "riot.db").as_uri() + "?mode=pread"
        with repro.open_session(url, memory="1MiB") as s:
            assert s.store.device.backend == "pread"

    def test_kwargs_forwarded(self):
        with repro.open_session(
                None, config=OptimizerConfig(level=0)) as s:
            assert s.config.level == 0

    def test_temp_file_cleanup_on_close(self):
        s = repro.open_session("file:///?mode=pread", memory="1MiB")
        # empty path -> device-owned temporary page file
        assert s.store.device.owns_path
        path = s.store.device.path
        assert os.path.exists(path)
        s.close()
        s.close()  # idempotent
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".meta")

    def test_vector_persistence(self, tmp_path):
        url = (tmp_path / "v.db").as_uri()
        data = np.random.default_rng(3).standard_normal(10_000)
        with repro.open_session(url, memory="1MiB") as s:
            s.values(s.vector(data, name="x"))
        with repro.open_session(url, memory="1MiB") as s:
            assert np.array_equal(s.values(s.open_vector("x")), data)


class TestSubsystemInjection:
    def test_ng_engine_storage_passthrough(self, tmp_path):
        cfg = StorageConfig(backend="mmap", path=tmp_path / "e.db",
                            memory_bytes=1 << 20)
        engine = RiotNGEngine(storage=cfg)
        assert isinstance(engine.session.store.device, FileBlockDevice)
        engine.session.close()

    def test_database_storage_passthrough(self, tmp_path):
        cfg = StorageConfig(backend="pread", path=tmp_path / "d.db",
                            memory_bytes=1 << 20)
        db = Database(storage=cfg)
        assert isinstance(db.device, FileBlockDevice)
        assert db.device.backend == "pread"
        db.device.close()

    def test_pager_swap_storage(self, tmp_path):
        cfg = StorageConfig(backend="pread", path=tmp_path / "swap.db")
        pager = Pager(memory_bytes=4 * 8192, page_size=8192,
                      swap_storage=cfg)
        assert isinstance(pager.swap, FileBlockDevice)
        first = pager.allocate(8)
        for pid in range(first, first + 8):
            pager.touch(pid, write=True)
        for pid in range(first, first + 8):
            pager.touch(pid)
        assert pager.stats.reads > 0 and pager.stats.writes > 0
        assert pager.swap.stats.syscalls > 0
        pager.swap.close()

    def test_no_direct_device_construction_outside_storage(self):
        """Acceptance check: only repro.storage constructs devices and
        page files.  RPR001 checks real call sites on the AST (the
        grep predecessor of this test also flagged docstrings and
        could not see ``PageFile``)."""
        from repro.analysis import run_lint
        root = pathlib.Path(repro.__file__).parent
        findings = run_lint([root], select={"RPR001"})
        assert findings == [], "\n".join(f.render() for f in findings)


def test_quickstart_example_runs():
    """The shipped example must track the new API."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run(
        [sys.executable, str(repo / "examples" / "quickstart.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
