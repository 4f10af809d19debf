"""Flat ``key = value`` run configuration.

The keys are the fields of ``ModelConfig``, ``TrainSettings`` and
``SynthSettings`` plus the run's own (seed, paths, splits, inspection);
each key's default, one-line help and range check sit next to its field,
and this module only composes them. Unknown keys are hard
errors so typos never silently fall back to a default. The effective
configuration (defaults, then file, then command line overrides) is
echoed into the output directory of every run, and re-running from the
echoed file reproduces the results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, make_dataclass, replace

from .data import SPLIT_RATIOS, Scaler, SynthSettings, check_scaler_scope, check_split_ratios
from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainSettings

__all__ = ["RunConfig", "load_config", "config_text", "section"]


@dataclass
class _RunKeys:
    """The run keys that no settings group declares."""

    seed: int = 0  # master seed; every random draw in a run derives from it
    edges_path: str = ""  # edge-list CSV (header from,to; extra columns ignored)
    flows_path: str = ""  # flow CSV (header t,s0..s{N-1}; one time step per row)
    out_dir: str = "out"  # directory receiving artifacts (created if absent)
    checkpoint_path: str = ""  # checkpoint to load (eval/predict/inspect) or write (train)
    num_nodes: int = 0  # sensor count, 0 = unset; required whenever flows are loaded
    train_frac: float = SPLIT_RATIOS[0]  # chronological share of steps for training
    val_frac: float = SPLIT_RATIOS[1]  # chronological share for validation
    test_frac: float = SPLIT_RATIOS[2]  # chronological share for testing
    scaler_scope: str = Scaler.scope  # z-score statistics per_sensor or global
    symmetrize_hops: bool = False  # treat edges as bidirectional for hop distances
    inspect_windows: int = 8  # test windows aggregated in inspect-graph histograms
    inspect_window_index: int = 0  # test window dumped edge-by-edge


# num_nodes is a run key above, where 0 means unset; in_features is not a key,
# because flow CSVs carry one feature.
RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default))
        for spec in (ModelConfig, TrainSettings, SynthSettings)
        for f in fields(spec)
        if f.name not in ("num_nodes", "in_features")
    ],
    bases=(_RunKeys,),
)
RunConfig.__module__ = __name__

_FIELDS = {f.name for f in fields(RunConfig)}


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


# A comment starts with a # at the line start or after whitespace, so values like runs/#3 survive.
_COMMENT = re.compile(r"(?:^|\s)#")


def _apply(cfg_dict, key, raw, origin):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r} ({origin})")
    value = raw.strip()  # config_text echoes it unquoted, on a line of its own
    if "\n" in value or "\r" in value or _COMMENT.search(value):
        raise ConfigError(
            f"config key {key}: {value!r} holds a line break or a # that starts a comment, "
            f"which effective_config.cfg cannot echo ({origin})"
        )
    cfg_dict[key] = _coerce(key, raw)


def load_config(path=None, overrides=()):
    """Defaults, then the optional file, then ``key=value`` overrides."""
    cfg_dict = {}
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot open config file {path}: {e}") from None
        for lineno, line in enumerate(lines, start=1):
            line = _COMMENT.split(line, 1)[0].strip()
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


def section(cfg, cls):
    """``cls`` built from every field it shares with ``cfg``; the rest keep their defaults."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls) if f.name in _FIELDS})


def _validate(cfg):
    if cfg.seed < 0:
        raise ConfigError(f"seed must be at least 0, got {cfg.seed}")
    if cfg.inspect_windows < 1:
        raise ConfigError(f"inspect_windows must be at least 1, got {cfg.inspect_windows}")
    # Per-field checks only: eval, predict and inspect-graph take the model shape
    # from the checkpoint, and train runs the full validate before any work.
    # 1 stands in for an unset num_nodes, which only commands that load flows need.
    replace(section(cfg, ModelConfig), num_nodes=max(cfg.num_nodes, 1)).check_fields()
    section(cfg, TrainSettings).check_fields()
    section(cfg, SynthSettings).check_fields()
    check_scaler_scope(cfg.scaler_scope)
    check_split_ratios((cfg.train_frac, cfg.val_frac, cfg.test_frac))


def config_text(cfg):
    """Render the effective config as a reloadable key = value file."""
    lines = ["# effective configuration (defaults + file + overrides)"]
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"
