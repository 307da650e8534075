"""The allocator settings made at ``import dqip``.

Where glibc's ``mallopt`` exists and the environment sets neither
``MALLOC_MMAP_THRESHOLD_`` nor ``MALLOC_TRIM_THRESHOLD_``, dqip keeps freed
blocks up to 32 MiB in the heap, so a walk's 1-2 MiB slices reuse pages
instead of faulting fresh ones in.  Each check runs in a new interpreter,
since this one imported dqip long ago.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _python(code: str, **env: str) -> str:
    clean = {k: v for k, v in os.environ.items() if k not in MALLOC_VARS}
    clean["PYTHONPATH"] = os.pathsep.join([str(SRC), clean.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=clean | env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


# Records the mallopt calls that importing dqip makes, instead of making them.
RECORD_MALLOPT = """
import ctypes
calls = []
class Libc:
    def __init__(self, name):
        self.mallopt = lambda *args: calls.append(args)
ctypes.CDLL = Libc
import dqip
print(calls)
"""


def test_import_sets_both_thresholds():
    assert _python(RECORD_MALLOPT) == str([(-3, 32 << 20), (-1, 64 << 20)])


@pytest.mark.parametrize("name", MALLOC_VARS)
def test_an_allocator_setting_in_the_environment_leaves_the_allocator_alone(name):
    assert _python(RECORD_MALLOPT, **{name: "1048576"}) == "[]"


SAMPLED_OPS = """
import resource
from dqip.dqct import build_pdqct, make_instance
from dqip.ghz import GhzProtocolParams
from dqip.network import path_graph
from dqip.protocol import execute_sampled

def op(seed):
    instance = make_instance(path_graph(2), (3, 3), "random", seed=seed)
    compiled = build_pdqct(instance, GhzProtocolParams(copies=1, prover_qubits=0))
    execute_sampled(compiled.spec, compiled.honest, trials=12, seed=seed)

for seed in range(2):  # the heap grows to its peak
    op(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(2, 8):
    op(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 6)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt"
)
def test_sampled_ops_reuse_their_pages():
    # The bench's sampled closeness test on 17 qubits, built and run: about
    # 3,500 minor faults per op when every slice is mapped fresh.
    assert float(_python(SAMPLED_OPS)) < 100
