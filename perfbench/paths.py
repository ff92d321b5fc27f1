"""Locate the checkout and import pctl from its ``src``, at a fixed thread count.

Importing this module sets PCTL_THREADS (and clears the BLAS variables it
maps to, so pctl's own mapping decides), puts the checkout's ``src`` first on
``sys.path`` and imports pctl, whose ``__init__`` caps the BLAS threads; so
it must be imported before numpy. It exits with code 2 when the checkout has
no pctl sources, so the benchmark never measures another copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: on the 2-vCPU reference machine a second thread made
# patch-1 steps slower (30 against 26 ms), and the idle core absorbs the
# parent process and the system.
THREADS = 1

os.environ["PCTL_THREADS"] = str(THREADS)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.pop(_var, None)

if not (SRC / "pctl" / "__init__.py").is_file():
    print(f"error: no pctl sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
import pctl  # noqa: E402,F401
