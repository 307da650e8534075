"""Distributed quantum interactive proofs: simulator, compilers, optimizers.

The package models networks of verifier nodes interacting with a single
untrusted prover through quantum message registers, executes the resulting
turn scripts exactly (branch-averaging classical coins) or by sampling,
compiles classical Arthur-Merlin protocols into quantum ones, reduces turn
counts, enforces perfect completeness, and searches for the best cheating
prover by see-saw coordinate ascent.
"""

import os

# BLAS runs on one thread unless the environment sets a count.  The states
# are small, so extra threads buy little, and on a busy host they make run
# times swing by an order of magnitude.  This takes effect only when dqip is
# imported before numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .network import NetworkGraph, RegisterLayout, build_network  # noqa: F401
from .protocol import (  # noqa: F401
    ProtocolSpec,
    ProverStrategy,
    RunReport,
    execute_exact,
    execute_sampled,
)
from .qcore import (  # noqa: F401
    DensityOperator,
    fidelity,
    projector_probability,
    trace_distance,
)
