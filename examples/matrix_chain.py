"""Matrix-chain optimization: Figure 3 analytically + measured at scale.

Part 1 recomputes the paper's Figure 3 cost tables (n = 100000 matrices
are 80 GB objects — the paper costed them analytically, and so do we).

Part 2 writes the chain as one session statement at laptop scale and
measures it on the counted tile store twice: with the planner's chain
reordering switched off (R's left-to-right order) and on (the DP
order), so the win from reordering under skew shows in measured blocks.

Run:  python examples/matrix_chain.py
"""

import numpy as np

from repro.core import OptimizerConfig, RiotSession
from repro.core.chain import optimal_order, order_to_string
from repro.core.costs import (GB_IN_SCALARS, fig3_dims,
                              fig3_strategy_costs)
from repro.storage import StorageConfig


def analytic_part() -> None:
    print("=" * 64)
    print("Figure 3(a) (analytic): I/O blocks for A %*% B %*% C, s=2")
    print("=" * 64)
    for n in (100_000, 120_000):
        for gb in (2, 4):
            costs = fig3_strategy_costs(n, 2.0, gb * GB_IN_SCALARS)
            print(f"\nn={n:,}, memory={gb} GB:")
            for strategy, io in costs.items():
                print(f"  {strategy:18s} {io:14.3e} blocks")

    print("\nOrder chosen by the DP under skew:")
    for s in (2, 4, 6, 8):
        dims = fig3_dims(100_000, s)
        order = optimal_order(dims)
        print(f"  s={s}: {order_to_string(order, ['A', 'B', 'C'])}")


def measured_part() -> None:
    print("\n" + "=" * 64)
    print("Measured at laptop scale: n=512, s=8, memory=512 KB")
    print("=" * 64)
    n, s = 512, 8
    mem = 64 * 1024  # scalars
    rng = np.random.default_rng(1)
    a = rng.standard_normal((n, n // s))
    b = rng.standard_normal((n // s, n))
    c = rng.standard_normal((n, n))

    for label, reorder in (("in-order  (AB)C", False),
                           ("opt-order A(BC)", True)):
        sess = RiotSession(
            storage=StorageConfig(memory_bytes=mem * 8, block_size=8192),
            config=OptimizerConfig(chain_reorder=reorder))
        ma, mb, mc = (sess.matrix(m) for m in (a, b, c))
        sess.store.pool.clear()
        sess.reset_stats()
        out = sess.force(ma @ mb @ mc)
        sess.store.flush()
        io = sess.io_stats.total
        ok = np.allclose(out.to_numpy(), a @ b @ c)
        print(f"  {label}: {io:6d} blocks  (correct: {ok})")
        assert ok


if __name__ == "__main__":
    analytic_part()
    measured_part()
