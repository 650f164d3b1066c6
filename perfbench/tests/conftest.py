"""Puts the checkout's src/ and the benchmark's own modules on the import path."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(REPO / "src"), str(BENCH)]
