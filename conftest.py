"""Test-session set-up shared by every test under this checkout.

BLAS is pinned to one thread before numpy loads.  The states in the tests
are small, so extra BLAS threads buy little, and on a busy host they make
the suite's wall time swing by an order of magnitude.  A thread count
already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
