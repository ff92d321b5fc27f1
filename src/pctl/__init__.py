"""Cross-domain hyperspectral pixel classification via a shared abundance space.

The package trains a reconstruction network (shared simplex encoder, affine
per-band decoder, mutual-information discriminator) jointly with a
densely-connected 3D-CNN classifier on labeled source pixels, then predicts
target-domain pixels with no target labels and no retraining.
"""

import os as _os
import sys as _sys

# BLAS thread caps must land in the environment before numpy loads anywhere
# in this process, so this runs ahead of every submodule import.
if "PCTL_THREADS" in _os.environ:
    if "numpy" in _sys.modules:
        import warnings as _warnings
        _warnings.warn("PCTL_THREADS does not cap BLAS threads: numpy was imported "
                       "before pctl; import pctl first", RuntimeWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["PCTL_THREADS"])

from .errors import (
    ConfigError,
    ContractError,
    DataMismatchError,
    DimensionError,
    DivergenceError,
    DomainError,
    ParseError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DataMismatchError",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "ParseError",
]
