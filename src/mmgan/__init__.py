"""Manifold-matching GAN training at desk scale."""
import ctypes

import numpy as np

from mmgan.neural import (
    NumericalError,
    Tensor,
    constant,
    parameter,
    backward,
    gradients,
    Network,
    SGD,
)
from mmgan.manifold import ManifoldTracker
from mmgan.kernel import KernelSpec
from mmgan.loss import LossConfig, LossReport, generator_terms
from mmgan.regularizer import r_g
from mmgan.data import DatasetHandle, make_dataset, load_idx, sample_batch
from mmgan.metrics import MetricsRow, mode_coverage
from mmgan.trainer import TrainResult, train, draw_eval_batch, score_samples
from mmgan.config import RunConfig, parse_config_text, manifest_text
from mmgan.persist import save_network, load_network

__version__ = "0.1.0"

# One BLAS thread for the whole process, whatever the environment: the
# layers are at most batch x 784 x 64, where a second OpenBLAS thread buys
# no wall time, doubles the CPU per step and makes idx outputs depend on
# the thread count. The symbol is numpy's bundled OpenBLAS, found through
# the linalg extension's dependency; a numpy without it is left as it is.
_blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
if hasattr(_blas, "scipy_openblas_set_num_threads64_"):
    _blas.scipy_openblas_set_num_threads64_(1)
