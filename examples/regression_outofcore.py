"""Out-of-core ordinary least squares — a realistic statistical workload.

The kind of computation the paper's introduction motivates: a regression
over a design matrix far larger than memory.  The program is the
statement a statistician writes,

    beta <- solve(t(X) %*% X, t(X) %*% y)

and the session plans its I/O: X'X and X'y come from one shared scan of
X in its stored layout (no transposed copy is ever stored), and the
blocked out-of-core LU factors X'X in place, since nothing reads it
after the solve.

Run:  python examples/regression_outofcore.py
"""

import numpy as np

from repro.core import RiotSession
from repro.storage import StorageConfig


def main() -> None:
    n_obs, n_feat = 20_000, 64
    memory_scalars = 96 * 1024       # 768 KB of "RAM"
    rng = np.random.default_rng(123)

    beta_true = rng.standard_normal(n_feat)
    x_np = rng.standard_normal((n_obs, n_feat))
    y_np = x_np @ beta_true + 0.01 * rng.standard_normal(n_obs)

    data_mb = x_np.nbytes / 2 ** 20
    mem_mb = memory_scalars * 8 / 2 ** 20
    print(f"design matrix: {n_obs:,} x {n_feat} ({data_mb:.1f} MB), "
          f"memory budget: {mem_mb:.2f} MB")

    s = RiotSession(storage=StorageConfig(
        memory_bytes=memory_scalars * 8, block_size=8192))
    x = s.matrix(x_np, name="X")
    y = s.matrix(y_np.reshape(-1, 1), name="y")

    s.store.pool.clear()
    s.reset_stats()

    # Normal equations, all out of core.
    result = s.force(s.solve(x.T @ x, x.T @ y))

    s.store.flush()
    io = s.io_stats
    print(f"I/O: {io.total} blocks ({io.mb_total():.1f} MB), "
          f"buffer hit rate {s.store.pool.stats.hit_rate:.0%}")

    beta = result.to_numpy().ravel()
    err = np.max(np.abs(beta - np.linalg.lstsq(x_np, y_np,
                                               rcond=None)[0]))
    print(f"max |beta - lstsq| = {err:.2e}")
    print(f"recovered beta[:5]: {beta[:5].round(4)}")
    print(f"true      beta[:5]: {beta_true[:5].round(4)}")
    assert err < 1e-6


if __name__ == "__main__":
    main()
