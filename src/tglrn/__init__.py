"""Dynamic-graph traffic flow forecasting.

Per-time-step graph construction from recurrent node embeddings,
adaptive k-hop structural pruning, diffusion-convolution spatial
processing, gated temporal convolution, and MAE-trained multi-horizon
prediction, all on a self-contained float64 reverse-mode autodiff core.
"""

__version__ = "0.1.0"

from .data import FlowSeries, Scaler, SynthSettings, WindowedDataset, load_flows, make_windows, synth_generate
from .diffcore import Linear, Parameter, Tensor
from .model import ModelConfig, TGLRN
from .roadnet import RoadNetwork, build_asp, hop_distances, structure_group
from .trainer import MetricsReport, baseline_ha, evaluate, mae_loss, train

__all__ = [
    "FlowSeries",
    "Scaler",
    "SynthSettings",
    "WindowedDataset",
    "load_flows",
    "make_windows",
    "synth_generate",
    "Linear",
    "Parameter",
    "Tensor",
    "ModelConfig",
    "TGLRN",
    "RoadNetwork",
    "build_asp",
    "hop_distances",
    "structure_group",
    "MetricsReport",
    "baseline_ha",
    "evaluate",
    "mae_loss",
    "train",
]
