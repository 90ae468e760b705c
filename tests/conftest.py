"""Pin BLAS to one thread before any test module imports numpy.

pytest loads this file before the test modules, and numpy reads the thread
variables once, when it loads. The rule is the package's own (see
`sedmtl/__init__.py`): a value the caller set wins. In-process pipelines then
compute the same bits as the `sedmtl` command on any core count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
