"""Serving benchmark for the localization service (see README.md).

Importing the package applies the measured interpreter's host-noise
hygiene, so it must happen before anything imports numpy: one
BLAS/OpenMP thread (extra BLAS threads double serve CPU without
lowering wall time on these small systems), and no on-disk artifact
cache (set-up must not depend on earlier runs or write into the
checkout).
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["REPRO_NO_CACHE"] = "1"
