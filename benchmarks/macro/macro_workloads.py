"""The five macro workloads: inputs, statements, oracles.

Each workload names one statement a RIOT user would type and the
storage configuration it runs under (README.md says why each is in the
suite: which layer it loads and which layers it bypasses).  Inputs
are NumPy arrays generated here from the seed; the program under test
receives only arrays, and every result is checked against a NumPy-only
oracle that never touches ``repro``.

Sizes are fixed by the benchmark and identical on every commit;
``shrink`` (8 under ``--smoke``) divides them for the tier-1 test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MIB = 1024 * 1024

#: The sparsity *pattern* of ``sparse_chain`` is structure, like a
#: matrix shape: it is drawn from this constant so block counts repeat
#: exactly across ``--seed`` values; the seed draws the nonzero values.
PATTERN_SEED = 20090104

#: Example 1's fixed endpoints (the paper leaves them symbolic).
XS, YS, XE, YE = 0.0, 0.0, 100.0, 100.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``generate(rng, shrink)`` draws the NumPy inputs; ``load(session,
    inputs)`` ingests them and returns deferred handles (timed as part
    of ``setup_s``); ``run(session, handles)`` forces the statement(s)
    and returns the stored result (the timed interval, with the
    trailing ``store.flush()`` added by the driver loop);
    ``oracle(inputs)`` is the NumPy reference.  ``rtol`` is relative to
    the oracle's largest magnitude; 0.0 demands exact equality.
    ``same_bits_as`` names a workload that runs the same statement on
    the same inputs under another storage configuration: its result
    must be bitwise equal (the lossless-codec contract).
    """

    name: str
    storage: dict
    generate: Callable
    load: Callable
    run: Callable
    oracle: Callable
    rtol: float = 1e-9
    same_bits_as: str | None = None


# ----------------------------------------------------------------------
# ols_pread / ols_zstd — the ROADMAP's anchor statement
# ----------------------------------------------------------------------
def _ols_generate(rng: np.random.Generator, shrink: int) -> dict:
    n, p = 4096 // shrink, 512 // shrink
    # Integer-valued float64 in [-8, 8]: exactly representable sums (so
    # t(X) X is the same bits under any summation order) and
    # compressible under delta+zstd.
    return {"X": rng.integers(-8, 9, size=(n, p)).astype(np.float64),
            "y": rng.integers(-8, 9, size=(n, 1)).astype(np.float64)}


def _ols_load(session, inputs: dict) -> dict:
    return {"X": session.matrix(inputs["X"], name="X"),
            "y": session.matrix(inputs["y"], name="y")}


def _ols_run(session, h: dict):
    x, y = h["X"], h["y"]
    # Hint-free: transposes and the product order are the optimizer's
    # to find, exactly as a user would write the normal equations.
    return session.force(session.solve(x.T @ x, x.T @ y))


def _ols_oracle(inputs: dict) -> np.ndarray:
    x, y = inputs["X"], inputs["y"]
    return np.linalg.solve(x.T @ x, x.T @ y)


# ----------------------------------------------------------------------
# chain_mmap — Figure 3's chain with an elementwise epilogue
# ----------------------------------------------------------------------
def _chain_generate(rng: np.random.Generator, shrink: int) -> dict:
    n = 2048 // shrink
    k = n // 4  # fig3_dims(n, 4): A n x n/4, B n/4 x n, C n x n
    return {"A": rng.standard_normal((n, k)),
            "B": rng.standard_normal((k, n)),
            "C": rng.standard_normal((n, n))}


def _chain_load(session, inputs: dict) -> dict:
    return {k: session.matrix(v, name=k) for k, v in inputs.items()}


def _chain_run(session, h: dict):
    return session.force((((h["A"] @ h["B"]) @ h["C"]).abs().sqrt())
                         + 1.0)


def _chain_oracle(inputs: dict) -> np.ndarray:
    a, b, c = inputs["A"], inputs["B"], inputs["C"]
    return np.sqrt(np.abs(a @ b @ c)) + 1.0


# ----------------------------------------------------------------------
# sparse_chain — spgemm then spmm, two statements in one session
# ----------------------------------------------------------------------
def _sparse_generate(rng: np.random.Generator, shrink: int) -> dict:
    n, k = 2048 // shrink, max(64 // shrink, 8)
    pattern = np.random.default_rng(PATTERN_SEED)
    nnz = int(round(0.005 * n * n))
    out = {}
    for name in ("A", "B"):
        flat = pattern.choice(n * n, size=nnz, replace=False)
        out[name] = (flat // n, flat % n, rng.standard_normal(nnz), n)
    out["V"] = rng.standard_normal((n, k))
    return out


def _sparse_load(session, inputs: dict) -> dict:
    h = {}
    for name in ("A", "B"):
        rows, cols, vals, n = inputs[name]
        h[name] = session.sparse_matrix(rows, cols, vals, (n, n),
                                        name=name)
    h["V"] = session.matrix(inputs["V"], name="V")
    return h


def _sparse_run(session, h: dict):
    from repro.core import ArrayInput, RiotMatrix
    # G <- A %*% B ; forced, so G is a stored sparse matrix that the
    # second statement consumes as an input.
    g_stored = session.force(h["A"] @ h["B"])
    g = RiotMatrix(session, ArrayInput(g_stored, name="G"))
    return session.force(g @ h["V"])


def _sparse_dense(triplets) -> np.ndarray:
    rows, cols, vals, n = triplets
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    return dense


def _sparse_oracle(inputs: dict) -> np.ndarray:
    a, b = _sparse_dense(inputs["A"]), _sparse_dense(inputs["B"])
    return a @ (b @ inputs["V"])


# ----------------------------------------------------------------------
# vector_stream — the paper's Example 1, line (1), fully materialised
# ----------------------------------------------------------------------
def _vector_generate(rng: np.random.Generator, shrink: int) -> dict:
    n = 6_000_000 // shrink
    return {"x": rng.uniform(0.0, 100.0, size=n),
            "y": rng.uniform(0.0, 100.0, size=n)}


def _vector_load(session, inputs: dict) -> dict:
    return {k: session.vector(v, name=k) for k, v in inputs.items()}


def _vector_run(session, h: dict):
    x, y = h["x"], h["y"]
    d = (((x - XS) ** 2 + (y - YS) ** 2).sqrt()
         + ((x - XE) ** 2 + (y - YE) ** 2).sqrt())
    return session.force(d)


def _vector_oracle(inputs: dict) -> np.ndarray:
    x, y = inputs["x"], inputs["y"]
    return (np.sqrt((x - XS) ** 2 + (y - YS) ** 2)
            + np.sqrt((x - XE) ** 2 + (y - YE) ** 2))


_OLS = dict(generate=_ols_generate, load=_ols_load, run=_ols_run,
            oracle=_ols_oracle)

# Why each workload is in the suite — which layer it loads and which it
# bypasses — is recorded once, in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ols_pread",
        dict(backend="pread", codec="raw", memory_bytes=2 * MIB),
        **_OLS),
    Workload(
        "ols_zstd",
        dict(backend="pread", codec="zstd", memory_bytes=2 * MIB),
        same_bits_as="ols_pread", **_OLS),
    Workload(
        "chain_mmap",
        dict(backend="mmap", codec="raw", memory_bytes=64 * MIB),
        generate=_chain_generate, load=_chain_load, run=_chain_run,
        oracle=_chain_oracle),
    Workload(
        "sparse_chain",
        dict(backend="pread", codec="raw", memory_bytes=1 * MIB),
        generate=_sparse_generate, load=_sparse_load, run=_sparse_run,
        oracle=_sparse_oracle),
    Workload(
        "vector_stream",
        dict(backend="pread", codec="raw", memory_bytes=16 * MIB),
        generate=_vector_generate, load=_vector_load, run=_vector_run,
        oracle=_vector_oracle, rtol=0.0),
)}


def input_bytes(inputs: dict) -> int:
    """Bytes of user data handed to the program (COO triplets count
    their three arrays)."""
    total = 0
    for value in inputs.values():
        parts = value[:3] if isinstance(value, tuple) else (value,)
        total += sum(np.asarray(p).nbytes for p in parts)
    return total
