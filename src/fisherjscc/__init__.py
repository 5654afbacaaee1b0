"""Fisher-information-regularized joint source-channel coding for classification."""

import os

# One OpenBLAS thread per process unless the caller sets OPENBLAS_NUM_THREADS.
# The matrix products here are small enough that a second BLAS thread mostly
# spins on the other core, doubling CPU time for no wall time and leaving no
# core for the package's own worker threads (the sweep's pool, the Monte-Carlo
# KL's noise draws). OpenBLAS reads the variable once, when NumPy first loads,
# so this must run before the submodule imports below bring NumPy in.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import autodiff, channel, data, experiments, models, rng, robustness, train  # noqa: E402

__all__ = [
    "autodiff",
    "channel",
    "data",
    "experiments",
    "models",
    "rng",
    "robustness",
    "train",
    "__version__",
]
