"""Manifold-matching GAN training at desk scale."""

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
