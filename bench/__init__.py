"""Benchmark for qdtm: pinned synthetic workloads, end-to-end and per-layer metrics.

See bench/README.md. Entry point: `python3 bench/run.py --workload NAME
--seed N --seconds S --trace 0|1`.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS/OpenMP thread, so a matmul never competes with the sweep for a core.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
