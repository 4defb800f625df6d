"""One BLAS thread per caller, as bench/run.py pins its children.

The federation already runs one training thread per core; a BLAS that
starts threads of its own under each of them oversubscribes the cores and
gives back the speed-up. OpenBLAS reads these variables once, when numpy
loads, so they are set here, before any test module imports numpy.
"""

import os
import sys

assert "numpy" not in sys.modules, (
    "numpy was imported before tests/conftest.py could pin BLAS to one thread")
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
