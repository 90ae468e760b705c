"""Polyphonic sound event detection trained jointly with scene classification.

The package provides a small float64 autodiff core (`autodiff`), log mel-band
feature extraction (`features`), TUT-style dataset ingestion (`data`), the
teacher/student network definitions (`networks`), the task objectives
(`losses`), the two-stage training pipeline (`training`), segment-based
metrics (`evaluation`), and a command line front end (`cli`).

Importing it pins BLAS to one thread, before numpy loads, unless the caller set
the count: artifacts then repeat byte for byte whatever the core count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
