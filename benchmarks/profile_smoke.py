#!/usr/bin/env python
"""Profile two workloads under the tracer; emit CI artifacts.

The CI bench-smoke job runs this after the benchmark sweep::

    python benchmarks/profile_smoke.py bench-results/

It executes the paper's hint-free OLS normal equations
``solve(t(X) X, t(X) y)`` and then the fused chain
``sqrt(abs(A %*% B %*% C)) + 1`` cold through the level-2 planner with
span recording on, then writes two artifacts into the output
directory:

- ``trace.json`` — both runs as Chrome trace events (open in Perfetto
  or ``chrome://tracing``): one slice per physical operator, optimizer
  pass, and kernel panel, with I/O and pool deltas in ``args``.
- ``calibration.json`` — the machine-readable
  :class:`repro.obs.CalibrationReport`: per cost model, the measured /
  predicted block ratios of every executed operator of both runs.

``benchmarks/check_calibration.py`` validates both files and fails CI
when any exercised model's median ratio leaves the validated
[0.5, 2.0] band — the drift alarm for the analytic cost models.

The workload regime matters: X is 512 x 256, and A 512 x 128, B
128 x 512 and C 512 x 512, against a 48 K-scalar (48-block) pool, so
every operator genuinely runs out of core.  With a pool that holds the
operands, measured I/O collapses and the ratios say nothing about the
models.  The models it exercises are ``crossprod_io`` with its side
term — X'X's packed triangle and a 32-row slab of X leave room for y,
so ``t(X) %*% y`` rides on the one scan of X — ``solve_io``, and for
the chain, reordered to ``A (B C)``, ``matmul_io`` (``B C``) and
``matmul_epilogue_io`` (``A`` times it, with the elementwise tail
fused in).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core import OptimizerConfig, RiotSession
from repro.core.expr import MatMul, Solve, Transpose
from repro.storage import StorageConfig

N_OBS = 512
N_FEAT = 256
POOL_SCALARS = 48 * 1024  # 48 blocks of 1024 scalars: out-of-core


def build_ols(session: RiotSession):
    """The normal equations as the user writes them — no hints."""
    rng = np.random.default_rng(17)
    x = session.matrix(rng.standard_normal((N_OBS, N_FEAT)), name="X")
    y = session.matrix(rng.standard_normal((N_OBS, 1)), name="y")
    return Solve(MatMul(Transpose(x.node), x.node),
                 MatMul(Transpose(x.node), y.node))


def build_chain(session: RiotSession):
    """The fused chain ``sqrt(abs(A %*% B %*% C)) + 1``."""
    rng = np.random.default_rng(23)
    a, b, c = (session.matrix(rng.standard_normal(shape), name=name)
               for name, shape in (("A", (512, 128)), ("B", (128, 512)),
                                   ("C", (512, 512))))
    return ((a @ b @ c).abs().sqrt() + 1.0).node


def profile(out_dir: Path, backend: str = "memory") -> int:
    # strict=True statically verifies every plan (shapes, footprints,
    # kernel pins) before it runs, so a planner regression fails the
    # smoke job up front instead of skewing the calibration numbers.
    session = RiotSession(
        storage=StorageConfig(backend=backend,
                              memory_bytes=POOL_SCALARS * 8),
        config=OptimizerConfig(level=2, strict=True))
    with session:
        for build in (build_ols, build_chain):
            print(session.explain(build(session), analyze=True))
        session.tracer.export_chrome(out_dir / "trace.json")
        report = session.calibration_report()
        report.to_json(out_dir / "calibration.json")
    n_spans = len(session.tracer)
    print(f"\nwrote {out_dir / 'trace.json'} ({n_spans} spans) and "
          f"{out_dir / 'calibration.json'} "
          f"({len(report.models)} models, ok={report.ok})")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    out_dir = Path(argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    backend = argv[2] if len(argv) == 3 else "memory"
    return profile(out_dir, backend)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
