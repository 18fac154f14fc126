"""One BLAS thread per test process, as in ``perfbench/run.py``.

numpy's BLAS splits a long dot product over its threads, so a timed test
(``test_kernel.py::TestFactorizedSolver::test_fine_step_time_and_memory``)
slows down many times over when another process holds a core.  The
variables are read when numpy loads, so they are set before any test
module imports it.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy loaded before tests/conftest.py pinned its threads"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
