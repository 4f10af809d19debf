"""Flat ``key = value`` run configuration with typed, documented defaults.

Unknown keys are hard errors so typos never silently fall back to a
default. The effective configuration (defaults, then file, then command
line overrides) is echoed into the output directory of every run, and
re-running from the echoed file reproduces the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .model import ModelConfig

__all__ = ["RunConfig", "load_config", "config_text", "section", "DEFAULT_HELP"]


@dataclass
class RunConfig:
    # reproducibility
    seed: int = 0
    # paths
    edges_path: str = ""
    flows_path: str = ""
    out_dir: str = "out"
    checkpoint_path: str = ""
    # windowing and splits
    num_nodes: int = 0
    t_in: int = 12
    t_out: int = 12
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    # model shape
    embed_dim: int = 16
    hop_dim: int = 16
    hidden_dim: int = 64
    levels: int = 5
    diff_steps: int = 2
    kernel_size: int = 2
    n_blocks: int = 3
    gamma: float = 0.3
    alpha: float = 1.0
    tau: float = 1.0
    dropout_rate: float = 0.1
    # optimization
    learning_rate: float = 0.005
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 15
    # behavior toggles
    mape_threshold: float = 1.0
    scaler_scope: str = "per_sensor"
    normalized_loss: bool = False
    eval_sampling_override: bool = False
    symmetrize_hops: bool = False
    # synthetic generation
    synth_topology: str = "chain"
    synth_nodes: int = 8
    synth_steps: int = 372
    synth_period: int = 288
    synth_noise_std: float = 0.05
    synth_regime_period: int = 48
    synth_coupling_a: float = 0.8
    synth_coupling_b: float = 0.0
    synth_amplitude: float = 20.0
    synth_offset: float = 50.0
    # inspection
    inspect_windows: int = 8
    inspect_window_index: int = 0


DEFAULT_HELP = {
    "seed": "master seed; every random draw in a run derives from it",
    "edges_path": "edge-list CSV (header from,to; extra columns ignored)",
    "flows_path": "flow CSV (header t,s0..s{N-1}; one time step per row)",
    "out_dir": "directory receiving artifacts (created if absent)",
    "checkpoint_path": "checkpoint to load (eval/predict/inspect) or write (train)",
    "num_nodes": "sensor count; required whenever flows are loaded",
    "t_in": "input window length in 5-minute steps",
    "t_out": "forecast horizon count",
    "train_frac": "chronological share of steps for training",
    "val_frac": "chronological share for validation",
    "test_frac": "chronological share for testing",
    "embed_dim": "edge-embedding width d (tuned in {4,8,16,32,64})",
    "hop_dim": "hop-selector embedding width m",
    "hidden_dim": "block channel width D",
    "levels": "hop radii available L (tuned in {5,7,10,15})",
    "diff_steps": "diffusion steps K",
    "kernel_size": "temporal kernel width Ks",
    "n_blocks": "spatio-temporal block count",
    "gamma": "edge keep probability during training (tuned in {0.05,0.1,0.2,0.3})",
    "alpha": "target std of normalized edge logits",
    "tau": "relaxation temperature",
    "dropout_rate": "dropout after each temporal layer (tuned in {0.05..0.2})",
    "learning_rate": "Adam learning rate",
    "batch_size": "windows per optimization step",
    "max_epochs": "epoch cap",
    "patience": "early-stopping patience on validation MAE",
    "mape_threshold": "targets with |y| below this are excluded from MAPE",
    "scaler_scope": "z-score statistics per_sensor or global",
    "normalized_loss": "train on z-scored values instead of original units",
    "eval_sampling_override": "apply edge thinning at evaluation time too",
    "symmetrize_hops": "treat edges as bidirectional for hop distances",
    "synth_topology": "chain, ring, or grid",
    "synth_nodes": "synthetic sensor count (>= 4; a square for grid)",
    "synth_steps": "synthetic series length",
    "synth_period": "sinusoid period in steps",
    "synth_noise_std": "innovation noise level",
    "synth_regime_period": "steps between coupling regime switches",
    "synth_coupling_a": "lag-1 coupling coefficient in regime A",
    "synth_coupling_b": "lag-1 coupling coefficient in regime B",
    "synth_amplitude": "sinusoid amplitude scale",
    "synth_offset": "baseline flow level",
    "inspect_windows": "test windows aggregated in inspect-graph histograms",
    "inspect_window_index": "test window dumped edge-by-edge",
}

_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw):
    default = getattr(RunConfig(), key)
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected a number, got {raw!r}") from None
    return raw


def _apply(cfg_dict, key, raw, origin):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r} ({origin})")
    cfg_dict[key] = _coerce(key, raw)


def load_config(path=None, overrides=()):
    """Defaults, then the optional file, then ``key=value`` overrides."""
    cfg_dict = {}
    if path:
        try:
            fh = open(path)
        except OSError as e:
            raise ConfigError(f"cannot open config file {path}: {e}") from None
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                _apply(cfg_dict, key.strip(), raw, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        _apply(cfg_dict, key.strip(), raw, "command line")
    cfg = RunConfig(**cfg_dict)
    _validate(cfg)
    return cfg


# Lengths and counts outside the model shape that must be at least 1.
_AT_LEAST_ONE = (
    "batch_size",
    "max_epochs",
    "synth_steps",
    "synth_period",
    "synth_regime_period",
    "inspect_windows",
)


# Synthetic-generator coefficients that must be finite and non-negative.
_SYNTH_COEFFICIENTS = (
    "synth_noise_std",
    "synth_coupling_a",
    "synth_coupling_b",
    "synth_amplitude",
    "synth_offset",
)


def section(cfg, cls):
    """``cls`` built from every field it shares with ``cfg``; the rest keep their defaults."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls) if f.name in _FIELDS})


def _validate(cfg):
    for key in _AT_LEAST_ONE:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    for key in ("seed", "patience"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be at least 0, got {getattr(cfg, key)}")
    # Per-field checks only: eval, predict and inspect-graph take the model shape
    # from the checkpoint, and train runs the full validate before any work.
    # 1 stands in for an unset num_nodes, which only commands that load flows need.
    replace(section(cfg, ModelConfig), num_nodes=max(cfg.num_nodes, 1)).check_fields()
    if not 0.0 < cfg.learning_rate < float("inf"):
        raise ConfigError(f"learning_rate must be positive and finite, got {cfg.learning_rate}")
    if not 0.0 <= cfg.mape_threshold < float("inf"):
        raise ConfigError(f"mape_threshold must be non-negative and finite, got {cfg.mape_threshold}")
    for key in _SYNTH_COEFFICIENTS:
        if not 0.0 <= getattr(cfg, key) < float("inf"):
            raise ConfigError(f"{key} must be non-negative and finite, got {getattr(cfg, key)}")
    if cfg.synth_topology not in ("chain", "ring", "grid"):
        raise ConfigError(f"synth_topology must be chain, ring or grid, got {cfg.synth_topology!r}")
    if cfg.synth_nodes < 4:
        raise ConfigError(f"synth_nodes must be at least 4, got {cfg.synth_nodes}")
    if cfg.synth_topology == "grid" and math.isqrt(cfg.synth_nodes) ** 2 != cfg.synth_nodes:
        raise ConfigError(f"synth_topology grid needs a square synth_nodes, got {cfg.synth_nodes}")
    if cfg.scaler_scope not in ("per_sensor", "global"):
        raise ConfigError(f"scaler_scope must be per_sensor or global, got {cfg.scaler_scope!r}")
    fracs = (cfg.train_frac, cfg.val_frac, cfg.test_frac)
    if not (min(fracs) >= 0 and abs(sum(fracs) - 1.0) <= 1e-9):
        raise ConfigError(
            f"train_frac, val_frac and test_frac must be non-negative and sum to 1, got {fracs}"
        )


def config_text(cfg):
    """Render the effective config as a reloadable key = value file."""
    lines = ["# effective configuration (defaults + file + overrides)"]
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"
