"""The zero-filled walk that the slice walk replaced, kept as the tests' reference.

Every branch of this walk holds all ``2^n`` amplitudes: the initial state is
:func:`~dqip.protocol.initial_vector`, each initial factor's preparation
applied to the full ``|0...0>`` vector, and a measurement child is the full
vector with every amplitude of the other outcomes zeroed
(:func:`project_outcome`).  It runs through the
package's executor with every qubit free, so each operator acts on the full
vector with its own targets, and each weight, density and accept read sums
over all ``2^n`` entries.
"""

from dataclasses import replace

import numpy as np

from dqip import qcore
from dqip.protocol import _Exact, _Executor, _joint, _Sample, _State, initial_vector


def project_outcome(vec, targets, outcome):
    """``vec`` with every amplitude whose ``targets`` bits differ from ``outcome`` zeroed."""
    plan = qcore._plan_for(vec, targets)
    index = tuple(slice(None) if group is None else (outcome >> group[0]) % 2 ** group[1] for group in plan.groups)
    out = np.zeros(vec.size, dtype=np.complex128)
    out.reshape(plan.shape)[index] = vec.reshape(plan.shape)[index]
    return out


class _ZeroFilled:
    """A measurement child is the zero-filled projected vector, all qubits still free."""

    def project(self, state, parts, outcome):
        return replace(state, vec=project_outcome(state.vec, _joint(parts), outcome))


class ZeroFilledExact(_ZeroFilled, _Exact):
    pass


class ZeroFilledSample(_ZeroFilled, _Sample):
    pass


def zero_filled(spec, strategy, policy=None):
    """An executor that walks ``spec`` on full vectors under ``policy`` (exact by default)."""
    executor = _Executor(spec, strategy, policy or ZeroFilledExact())
    n = spec.layout.total_qubits
    executor.initial = _State(initial_vector(spec), tuple(range(n)), 0, n)  # replaces the cached property
    return executor
