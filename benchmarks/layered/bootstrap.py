"""Import first: pin BLAS to one thread and put the checkout's ``src/``
ahead of any installed ``repro``, so the benchmark measures the tree it
sits in. Exits non-zero when that tree has no program to measure.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

# Must be set before numpy loads; the box has 2 cores and the loop under
# test is single-threaded, so a BLAS pool would only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"benchmarks/layered: no program to measure under {_SRC}")
sys.path.insert(0, _SRC)
