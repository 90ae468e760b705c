"""Pin BLAS to one thread before any test module imports numpy.

pytest loads this file before the test modules, and numpy reads the thread
variables once, when it loads. Importing the package applies its own rule
(see `sedmtl/__init__.py`, which imports no numpy): a value the caller set
wins. In-process pipelines then compute the same bits as the `sedmtl`
command on any core count.
"""

import sedmtl  # noqa: F401
